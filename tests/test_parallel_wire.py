"""The binary cross-shard wire format: exact round-trips, no pickle.

Two layers of proof.  The codec tests check every packet class that can
cross a shard boundary survives encode/decode bit-exactly — including
identity metadata (``uid``, ``nonce``, ``size``, ``created_at``) that
trace hooks and dedup tables key off.  (The codec lives in
:mod:`repro.net.codec`; ``tests/test_net_codec.py`` holds its wire-format
pins, the nested RP-tunnel case and name interning.)
The integration test then makes ``Connection.send`` (the pickle path)
explode and runs a real two-process scenario to completion: if anything
on the transit path still pickled, the run would die instead of
reproducing the serial digest.
"""

import multiprocessing
import multiprocessing.connection
import os
import pickle
import struct

import pytest

from repro.core.packets import (
    CdHandoffPacket,
    ConfirmPacket,
    FibAddPacket,
    FibRemovePacket,
    JoinPacket,
    LeavePacket,
    MulticastPacket,
    SubscribePacket,
    UnsubscribePacket,
)
from repro.ndn.packets import Data, Interest
from repro.net import codec
from repro.packets import Packet
import repro.parallel.scale as scale_mod
from repro.parallel import wire
from repro.parallel.digest import DeliveryLog
from repro.parallel.scale import ScaleSpec, run_scale


def sample_packets():
    """One instance of every wire-registered packet class (plus variants)."""
    tunnel_payload = MulticastPacket(
        cd="/region/1",
        payload_size=200,
        publisher="p000042",
        sequence=17,
        object_id=3,
        pub_seq=5,
        created_at=1004.25,
    )
    return [
        Packet(size=40, created_at=1.5, uid=700),
        Interest(
            name="/rp/core0",
            nonce=12_345,
            lifetime=250.0,
            size=64,
            created_at=3.125,
            uid=701,
        ),
        # The RP tunnel: a Multicast encapsulated in an Interest payload.
        Interest(name="/rp/core1", nonce=2**40 + 7, payload=tunnel_payload),
        Data(
            name="/obj/7",
            payload_size=120,
            freshness=5.0,
            content=("snapshot", 3, None),
            uid=702,
        ),
        SubscribePacket(cds=("/region/1", "/world")),
        UnsubscribePacket(cds=("/region/2",)),
        tunnel_payload,
        FibAddPacket(prefixes=("/region/0", "/world"), origin="core0"),
        FibRemovePacket(prefixes=("/region/3",), origin="core3"),
        CdHandoffPacket(prefixes=("/region/0",), old_rp="core0", new_rp="core1"),
        JoinPacket(prefixes=("/region/0",), epoch=2, origin="core1"),
        ConfirmPacket(prefixes=("/region/0",), epoch=2),
        LeavePacket(prefixes=("/region/0",), epoch=2),
    ]


def roundtrip_packet(packet):
    buf = bytearray()
    codec.encode_packet(buf, packet)
    decoded, offset = codec.decode_packet(bytes(buf), 0)
    assert offset == len(buf)
    return decoded


class TestPacketCodec:
    @pytest.mark.parametrize(
        "packet", sample_packets(), ids=lambda p: type(p).__name__
    )
    def test_roundtrip_equals_pickle_roundtrip(self, packet):
        decoded = roundtrip_packet(packet)
        assert type(decoded) is type(packet)
        # The codec must preserve exactly what a pickle hop preserved in
        # the old protocol: full field-wise equality.
        assert decoded == pickle.loads(pickle.dumps(packet))
        assert decoded == packet

    @pytest.mark.parametrize(
        "packet", sample_packets(), ids=lambda p: type(p).__name__
    )
    def test_identity_metadata_survives(self, packet):
        decoded = roundtrip_packet(packet)
        # Trace hooks key off uid; byte meters off size; latency off
        # created_at.  None may be re-derived on decode.
        assert decoded.uid == packet.uid
        assert decoded.size == packet.size
        assert decoded.created_at == packet.created_at
        if isinstance(packet, Interest):
            assert decoded.nonce == packet.nonce

    def test_unregistered_class_fails_loudly(self):
        class Rogue(Packet):
            pass

        with pytest.raises(TypeError, match="PACKET_TYPES"):
            codec.encode_packet(bytearray(), Rogue(size=1))

    def test_decode_does_not_consume_local_id_counters(self):
        buffers = []
        for packet in sample_packets():
            buf = bytearray()
            codec.encode_packet(buf, packet)
            buffers.append(bytes(buf))
        before = Packet(size=1).uid
        for buf in buffers:
            codec.decode_packet(buf, 0)
        after = Packet(size=1).uid
        assert after == before + 1


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**62,
            1.5,
            float("inf"),
            "",
            "héllo/world",
            b"\x00\xffraw",
            (1, ("a", None), [2.5]),
            [1, 2, 3],
            {"k": (1, 2), 3: "v", "nested": {"d": b"x"}},
        ],
        ids=repr,
    )
    def test_roundtrip(self, value):
        buf = bytearray()
        codec.encode_value(buf, value)
        decoded, offset = codec.decode_value(bytes(buf), 0)
        assert offset == len(buf)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_unencodable_fails_loudly_instead_of_pickling(self):
        with pytest.raises(TypeError, match="pickle"):
            codec.encode_value(bytearray(), {1, 2, 3})


class TestFrames:
    def _msgs(self):
        packets = sample_packets()
        return [
            (1002.5, 3, i, f"core{i % 4}", f"acc{i % 4}_0", packet)
            for i, packet in enumerate(packets)
        ]

    def test_ready_roundtrip(self):
        assert wire.decode_ready(wire.encode_ready(12.5)) == 12.5
        assert wire.decode_ready(wire.encode_ready(None)) is None

    def test_run_roundtrip_carries_batch(self):
        msgs = self._msgs()
        horizon, inclusive, decoded = wire.decode_run(
            wire.encode_run(1010.25, True, msgs)
        )
        assert (horizon, inclusive) == (1010.25, True)
        assert decoded == msgs

    def test_done_roundtrip_carries_batch(self):
        msgs = self._msgs()
        peek, decoded = wire.decode_done(wire.encode_done(1012.0, msgs))
        assert peek == 1012.0
        assert decoded == msgs
        assert wire.decode_done(wire.encode_done(None, [])) == (None, [])

    def test_status_head_layout_is_pinned(self):
        """READY/DONE = op u8, peek flag u8, peek f64, count u32 — 14 bytes."""
        head = struct.pack("<BdI", 1, 12.5, 0)
        assert wire.encode_ready(12.5) == bytes([wire.OP_READY]) + head
        assert wire.encode_done(12.5, []) == bytes([wire.OP_DONE]) + head
        idle = bytes([wire.OP_READY]) + struct.pack("<BdI", 0, 0.0, 0)
        assert wire.encode_ready(None) == idle
        msgs = self._msgs()[:2]
        frame = wire.encode_done(3.0, msgs)
        assert frame[:14] == bytes([wire.OP_DONE]) + struct.pack("<BdI", 1, 3.0, 2)
        assert frame[14:] == wire.encode_run(0.0, False, msgs)[14:]

    def test_truncated_status_frames_fail_loudly(self):
        ready = wire.encode_ready(12.5)
        done = wire.encode_done(12.5, self._msgs()[:3])
        for cut in range(1, len(ready)):
            with pytest.raises(struct.error):
                wire.decode_ready(ready[:cut])
        for cut in range(1, len(done)):
            with pytest.raises((struct.error, codec.FrameError)):
                wire.decode_done(done[:cut])

    @staticmethod
    def _log():
        log = DeliveryLog()
        for row in [(0, "p000001", 2.75), (1, "p000002", 3.0), (1, "p000003", -0.0),
                    (-7, "p000001", 5e-324)]:
            log.record(*row)
        return log

    def test_result_roundtrip(self):
        log = self._log()
        result = {
            "log": log.columns(),
            "events_processed": 123,
            "network_bytes": 4567,
            "federation": None,
        }
        decoded = wire.decode_result(wire.encode_result(result))
        assert decoded == result
        # 20 bytes a row plus the three-name table, not a tagged tuple each.
        columns = decoded["log"]
        assert [len(columns[c]) for c in ("keys", "receivers", "latencies")] == [32, 16, 32]
        assert columns["names"] == ["p000001", "p000002", "p000003"]
        rebuilt = DeliveryLog.from_columns(**columns)
        assert list(rebuilt.entries) == list(log.entries)
        assert rebuilt.digest() == log.digest()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda c: c.update(keys=c["keys"][:-1]), r"per column: \(31, 16, 32\)"),
            (lambda c: c.update(receivers=c["receivers"] + b"\0"), r"\(32, 17, 32\)"),
            (lambda c: c.update(latencies=c["latencies"][8:]), r"\(32, 16, 24\)"),
            (lambda c: c.update(keys=c["keys"] + bytes(8)), r"\(40, 16, 32\)"),
            (lambda c: c.update(names=c["names"][:2]), "index 2 outside 2 distinct"),
            (lambda c: c.update(names=["a", "b", "a"]), "index 2 outside 2 distinct"),
        ],
    )
    def test_ragged_result_columns_fail_loudly(self, damage, message):
        """A damaged RESULT names the offending lengths; no ragged log is built."""
        columns = self._log().columns()
        damage(columns)
        decoded = wire.decode_result(wire.encode_result({"log": columns}))
        with pytest.raises(ValueError, match=message):
            DeliveryLog.from_columns(**decoded["log"])

    def test_truncated_result_frame_is_a_frame_error(self):
        frame = wire.encode_result({"log": self._log().columns()})
        with pytest.raises(codec.FrameError):
            wire.decode_result(frame[:-5])

    def test_error_roundtrip(self):
        frame = wire.encode_error("Traceback ...\nZeroDivisionError: caf\u00e9")
        assert frame[0] == wire.OP_ERROR
        assert wire.decode_error(frame) == "Traceback ...\nZeroDivisionError: caf\u00e9"
        with pytest.raises(ValueError, match="protocol error"):
            wire.decode_result(frame)

    def test_op_mismatch_fails_loudly(self):
        with pytest.raises(ValueError, match="protocol error"):
            wire.decode_done(wire.encode_run(1.0, False, []))
        with pytest.raises(ValueError, match="protocol error"):
            wire.decode_ready(b"")


class TestNoPickleOnTransitPath:
    def test_proc_run_survives_with_pickle_send_disabled(self, monkeypatch):
        """A real 2-worker run with ``Connection.send`` poisoned.

        Workers inherit the poisoned method through fork; any pickled
        object send anywhere in the coordinator/worker protocol would
        raise instead of reproducing the serial digest.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        spec = ScaleSpec(players=24, regions=4, access_per_region=2,
                         updates=30, seed=3)
        serial = run_scale(spec)

        def no_pickle(self, obj):
            raise AssertionError(
                f"Connection.send({type(obj).__name__}) on the proc path: "
                "cross-shard exchange must use binary send_bytes frames"
            )

        monkeypatch.setattr(
            multiprocessing.connection.Connection, "send", no_pickle
        )
        proc = run_scale(spec, workers=2)
        assert proc["mode"] == "proc:2"
        assert proc["digest"] == serial["digest"]
        assert proc["deliveries"] == serial["deliveries"]


class TestWorkerDeath:
    """A dead worker is a named failure of ``run_scale``, not a hang."""

    SPEC = ScaleSpec(players=24, regions=4, access_per_region=2, updates=30, seed=3)

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")

    @staticmethod
    def _no_children_left():
        leftover = multiprocessing.active_children()
        for child in leftover:
            child.join(timeout=5)
        return not any(child.is_alive() for child in leftover)

    @pytest.mark.timeout(60)
    def test_raising_callback_names_shard_and_cause(self, monkeypatch):
        def boom(host, cd, size, sequence):
            raise ZeroDivisionError(f"update {sequence} went wrong")

        # Workers resolve ``_publish`` after the fork, so they see the patch.
        monkeypatch.setattr(scale_mod, "_publish", boom)
        with pytest.raises(RuntimeError) as failure:
            run_scale(self.SPEC, workers=2)
        text = str(failure.value)
        assert text.startswith("shard ") and " failed: " in text
        assert "ZeroDivisionError: update" in text and "Traceback" in text
        assert self._no_children_left()

    @pytest.mark.timeout(60)
    def test_silent_exit_reports_the_exit_code(self, monkeypatch):
        monkeypatch.setattr(scale_mod, "_publish", lambda *args: os._exit(7))
        with pytest.raises(RuntimeError, match=r"shard \d failed: died, exit code 7"):
            run_scale(self.SPEC, workers=2)
        assert self._no_children_left()
