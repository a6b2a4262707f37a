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
import pickle

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
from repro.parallel import wire
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
        assert wire.decode_ready(wire.encode_ready(12.5, 14.5)) == (12.5, 14.5)
        assert wire.decode_ready(wire.encode_ready(None, float("inf"))) == (
            None,
            float("inf"),
        )

    def test_run_roundtrip_carries_batch(self):
        msgs = self._msgs()
        horizon, inclusive, decoded = wire.decode_run(
            wire.encode_run(1010.25, True, msgs)
        )
        assert (horizon, inclusive) == (1010.25, True)
        assert decoded == msgs

    def test_done_roundtrip_carries_batch(self):
        msgs = self._msgs()
        peek, eot, decoded = wire.decode_done(wire.encode_done(None, 1012.0, msgs))
        assert (peek, eot) == (None, 1012.0)
        assert decoded == msgs

    def test_result_roundtrip(self):
        result = {
            "entries": [(0, "p000001", 2.75), (1, "p000002", 3.0)],
            "events_processed": 123,
            "network_bytes": 4567,
        }
        assert wire.decode_result(wire.encode_result(result)) == result

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
