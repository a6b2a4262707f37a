"""The shared codec and stream framing under adversarial reassembly.

Live-wire correctness starts here: every packet kind (including nested
RP-tunnel packets) must round-trip through the frame codec with the TCP
stream split and merged at *arbitrary* chunk boundaries, and anything
corrupt — flipped payload bytes, bad magic, implausible lengths,
mid-frame truncation — must raise :class:`FrameError` loudly instead of
desynchronizing and delivering garbage.

The wire format itself is pinned here too: the codec's table-driven
encoder must produce, byte for byte, what the original ``isinstance``
ladder produced (kept below as :func:`reference_encode`), and every
malformed payload must surface as :class:`FrameError` and nothing else.
"""

import dataclasses
import enum
import struct
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from repro import names as names_module
from repro.names import Name
from repro.ndn.packets import Data, Interest
from repro.net import codec
from repro.net.codec import (
    FRAME_MAGIC,
    MAX_FRAME,
    FrameDecoder,
    FrameError,
    decode_datagram,
    encode_frame,
    pack_message,
    unpack_message,
)
from repro.packets import Packet


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
        Interest(name="/rp/core0", nonce=12_345, lifetime=250.0, uid=701),
        # The RP tunnel: a Multicast encapsulated in an Interest payload.
        Interest(name="/rp/core1", nonce=2**40 + 7, payload=tunnel_payload),
        Data(name="/obj/7", payload_size=120, content=("snapshot", 3, None)),
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


SAMPLES = sample_packets()

_names = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6),
    min_size=1,
    max_size=4,
).map(lambda segs: Name.parse("/" + "/".join(segs)))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=16),
    st.binary(max_size=16),
    _names,
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=12,
)


def reference_encode(buf, value):
    """The PR-6 ``isinstance`` ladder: the wire format's reference encoder."""
    if value is None:
        buf.append(0)
    elif value is True:
        buf.append(1)
    elif value is False:
        buf.append(2)
    elif isinstance(value, int):
        buf += b"\x03" + struct.pack("<q", value)
    elif isinstance(value, float):
        buf += b"\x04" + struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        buf += b"\x05" + struct.pack("<I", len(raw)) + raw
    elif isinstance(value, bytes):
        buf += b"\x06" + struct.pack("<I", len(value)) + value
    elif isinstance(value, Name):
        raw = str(value).encode("utf-8")
        buf += b"\x07" + struct.pack("<I", len(raw)) + raw
    elif isinstance(value, (tuple, list)):
        tag = b"\x08" if isinstance(value, tuple) else b"\x09"
        buf += tag + struct.pack("<I", len(value))
        for item in value:
            reference_encode(buf, item)
    elif isinstance(value, dict):
        buf += b"\x0a" + struct.pack("<I", len(value))
        for key, item in value.items():
            reference_encode(buf, key)
            reference_encode(buf, item)
    elif isinstance(value, Packet):
        buf += bytes([11, codec.PACKET_TYPES.index(type(value))])
        for field in dataclasses.fields(value):
            reference_encode(buf, getattr(value, field.name))
    else:
        raise TypeError(f"cannot wire-encode {type(value).__name__}")


def reference_pack(value) -> bytes:
    buf = bytearray()
    reference_encode(buf, value)
    return bytes(buf)


class Color(enum.IntEnum):
    RED = 1
    BLUE = -7


class Point(NamedTuple):
    x: int
    y: float


class TaggedName(Name):
    """A ``Name`` subclass: resolved through the ladder order, once."""


_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_multicasts = st.builds(
    MulticastPacket,
    size=st.integers(0, 2**31),
    created_at=st.floats(allow_nan=False),
    uid=_int64,
    cd=_names,
    payload_size=st.integers(0, 2**31),
    publisher=st.text(max_size=8),
    sequence=_int64,
    object_id=_int64,
    pub_seq=_int64,
)
_packets = st.one_of(
    st.sampled_from(SAMPLES),
    _multicasts,
    # The RP tunnel: an Interest whose payload is a whole Multicast.
    st.builds(Interest, name=_names, nonce=_int64, payload=_multicasts),
    st.builds(Data, name=_names, payload_size=st.integers(0, 2**31), content=_values),
)
_pinned_values = st.recursive(
    st.one_of(
        _scalars,
        _packets,
        st.sampled_from(Color),
        st.builds(Point, _int64, st.floats(allow_nan=False)),
        _names.map(lambda name: TaggedName(name.components)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), _int64), children, max_size=3),
    ),
    max_leaves=10,
)

#: ``pack_message`` of three packets as the PR-6 codec wrote them — the
#: last-resort pin should codec and reference encoder ever drift together.
PINNED_MULTICAST = MulticastPacket(
    cd="/region/1", payload_size=200, publisher="p000042", sequence=17,
    object_id=3, pub_seq=5, created_at=1004.25, uid=900,
)
PINNED_HEX = [
    (
        PINNED_MULTICAST,
        "0b0503e300000000000000040000000000628f40038403000000000000070900"
        "00002f726567696f6e2f3103c800000000000000050700000070303030303432"
        "031100000000000000030300000000000000030500000000000000",
    ),
    (
        Interest(name="/rp/core1", nonce=2**40 + 7, payload=PINNED_MULTICAST, uid=901),
        "0b01030501000000000000040000000000000000038503000000000000070900"
        "00002f72702f636f72653103070000000001000004000000000040af400b0503"
        "e300000000000000040000000000628f4003840300000000000007090000002f"
        "726567696f6e2f3103c800000000000000050700000070303030303432031100"
        "000000000000030300000000000000030500000000000000",
    ),
    (
        SubscribePacket(cds=("/region/1", "/world"), uid=902),
        "0b03032300000000000000040000000000000000038603000000000000080200"
        "000007090000002f726567696f6e2f3107060000002f776f726c64",
    ),
]


class TestWireFormatIsPinned:
    """The bytes on the wire are what the reference ladder writes."""

    @given(_pinned_values)
    def test_pack_message_equals_the_reference_encoder(self, value):
        assert pack_message(value) == reference_pack(value)

    @pytest.mark.parametrize("packet", SAMPLES, ids=lambda p: type(p).__name__)
    def test_every_registered_class_equals_the_reference(self, packet):
        envelope = {"op": "packet", "dst": "R1", "src": "R0", "pkt": packet}
        assert pack_message(packet) == reference_pack(packet)
        assert pack_message(envelope) == reference_pack(envelope)

    def test_subclasses_encode_as_their_base(self):
        value = [Color.BLUE, Point(3, 0.5), TaggedName(("a", "b")), True]
        assert pack_message(value) == reference_pack(value)
        assert unpack_message(pack_message(value)) == [
            -7, (3, 0.5), Name.parse("/a/b"), True,
        ]
        # Memoized after the first resolution — and still the same bytes.
        assert pack_message(value) == reference_pack(value)

    @pytest.mark.parametrize(
        "packet, expected", PINNED_HEX, ids=lambda v: type(v).__name__
    )
    def test_hex_pins(self, packet, expected):
        assert pack_message(packet).hex() == expected
        decoded = unpack_message(bytes.fromhex(expected))
        assert decoded == packet
        assert type(decoded) is type(packet)


class TestNameCaches:
    """Name <-> wire-bytes caches: bounded, and coherent with the intern table."""

    def test_decoded_name_is_the_interned_one_even_after_an_eviction(self, monkeypatch):
        monkeypatch.setattr(names_module, "_INTERNED", {})
        monkeypatch.setattr(names_module, "_INTERN_LIMIT", 4)
        try:
            payload = pack_message(Name.parse("/evict/me"))
            assert unpack_message(payload) is Name.parse("/evict/me")
            first = Name.parse("/evict/me")
            for i in range(4):  # overflows the table: the oldest half goes
                Name.parse(f"/filler/{i}")
            assert Name.parse("/evict/me") is not first
            assert unpack_message(payload) is Name.parse("/evict/me")
        finally:
            # Names interned in the scratch table must not outlive it.
            codec._WIRE_TO_NAME.clear()

    def test_encode_cache_is_bounded_and_byte_identical(self, monkeypatch):
        monkeypatch.setattr(codec, "_NAME_CACHE_LIMIT", 4)
        names = [Name(("bounded", str(i))) for i in range(10)]
        for _ in range(2):
            for name in names:
                assert pack_message(name) == reference_pack(name)
                assert len(codec._NAME_TO_WIRE) <= 4


class TestMalformedPayloads:
    """Every malformed payload is a FrameError naming where it broke."""

    MALFORMED = [
        (pack_message(7)[:-1], "truncated int at offset 1"),
        (pack_message(1.5)[:3], "truncated float at offset 1"),
        (b"", "payload ends where a value tag is expected at offset 0"),
        # A tuple header announcing 4 billion elements in 5 bytes.
        (b"\x08" + struct.pack("<I", 2**32 - 1), "tuple length 4294967295 exceeds"),
        (b"\x0a" + struct.pack("<I", 2**32 - 1), "dict length 4294967295 exceeds"),
        (b"\x05" + struct.pack("<I", 2) + b"\xff\xfe", "not UTF-8"),
        (b"\x07" + struct.pack("<I", 2) + b"\xff\xfe", "malformed name"),
        (b"\x07" + struct.pack("<I", 4) + b"a//b", "malformed name"),
        # A string cut short at the end of the message used to be
        # sliced short silently and reported as "-2 trailing bytes".
        (pack_message("hello")[:-2], "str length 5 exceeds the 3 bytes left"),
        (pack_message(b"hello")[:-2], "bytes length 5 exceeds the 3 bytes left"),
        (pack_message("hello")[:3], "truncated str length at offset 1"),
        (b"\x0c", "unknown value tag 12 at offset 0"),
        (b"\x0b\x63", "unknown packet type id 99 at offset 1"),
        # Cut inside a packet's inline int field (payload_size).
        (pack_message(SAMPLES[6])[:50], "truncated int at offset 44"),
        (pack_message({"k": [1, 2]})[:-1], "truncated int at offset"),
        # {[]: None} — a key no dict can hold.
        (b"\x0a" + struct.pack("<I", 1) + pack_message([]) + b"\x00", "unhashable"),
        # A Subscribe whose cds decoded to an empty tuple.
        (
            pack_message(SubscribePacket(cds=("/a",), uid=1))[:29]
            + b"\x08" + struct.pack("<I", 0),
            "SubscribePacket rejects its decoded fields",
        ),
        (b"\x09\x01\x00\x00\x00" * 5000 + b"\x00", "nested too deeply"),
    ]

    @pytest.mark.parametrize(
        "payload, match", MALFORMED, ids=[match for _, match in MALFORMED]
    )
    def test_raises_frame_error(self, payload, match):
        with pytest.raises(FrameError, match=match):
            unpack_message(payload)

    def test_every_truncation_of_every_sample_is_a_frame_error(self):
        for packet in SAMPLES:
            payload = pack_message({"op": "packet", "pkt": packet})
            for cut in range(len(payload)):
                with pytest.raises(FrameError, match="offset"):
                    unpack_message(payload[:cut])

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70])
    def test_int_outside_int64_is_a_type_error_naming_the_value(self, value):
        with pytest.raises(TypeError, match=f"{value}.*int64"):
            pack_message(value)
        with pytest.raises(TypeError, match=f"{value}.*int64"):
            pack_message(MulticastPacket(cd="/a", sequence=value))
        with pytest.raises(TypeError, match=f"{value}.*int64"):
            pack_message({"k": (value,)})

    def test_int64_bounds_still_encode(self):
        for value in (2**63 - 1, -(2**63)):
            assert unpack_message(pack_message(value)) == value


class TestDecoderFuzz:
    """Arbitrary bytes either decode or raise FrameError — nothing else."""

    @staticmethod
    def decodes_or_frame_error(payload):
        try:
            unpack_message(payload)
        except FrameError:
            pass

    @given(st.binary(max_size=96))
    def test_random_bytes(self, payload):
        self.decodes_or_frame_error(payload)

    @given(
        tag=st.integers(0, 11),
        length=st.integers(0, 2**32 - 1),
        tail=st.binary(max_size=32),
    )
    def test_random_bytes_behind_a_valid_tag_and_length(self, tag, length, tail):
        self.decodes_or_frame_error(bytes([tag]) + struct.pack("<I", length) + tail)

    @given(
        packet=st.sampled_from(SAMPLES),
        data=st.data(),
    )
    def test_single_byte_mutations_of_valid_payloads(self, packet, data):
        payload = bytearray(pack_message({"op": "packet", "dst": "R1", "pkt": packet}))
        index = data.draw(st.integers(0, len(payload) - 1), label="index")
        payload[index] = data.draw(st.integers(0, 255), label="byte")
        self.decodes_or_frame_error(bytes(payload))


class TestSharedCodec:
    """One codec serves both the live sockets and the cross-shard frames."""

    def test_every_registered_class_is_sampled(self):
        assert {type(p) for p in SAMPLES} == set(codec.PACKET_TYPES)

    @given(_values)
    def test_value_roundtrip(self, value):
        assert unpack_message(pack_message(value)) == value

    def test_unpack_rejects_trailing_bytes(self):
        with pytest.raises(FrameError, match="trailing"):
            unpack_message(pack_message(7) + b"\x00")


class TestFrameReassembly:
    @pytest.mark.parametrize("packet", SAMPLES, ids=lambda p: type(p).__name__)
    def test_packet_roundtrips_through_a_frame(self, packet):
        frame = encode_frame(pack_message({"op": "packet", "pkt": packet}))
        (payload,) = FrameDecoder().feed(frame)
        msg = unpack_message(payload)
        assert msg["pkt"] == packet
        assert msg["pkt"].uid == packet.uid

    def test_tunnel_packet_nests_through_a_frame(self):
        tunnel = next(
            p for p in SAMPLES if isinstance(p, Interest) and p.payload is not None
        )
        msg = unpack_message(decode_datagram(encode_frame(pack_message(tunnel))))
        assert isinstance(msg.payload, MulticastPacket)
        assert msg.payload == tunnel.payload

    @given(
        idxs=st.lists(
            st.integers(0, len(SAMPLES) - 1), min_size=1, max_size=5
        ),
        data=st.data(),
    )
    def test_arbitrary_tcp_chunk_boundaries(self, idxs, data):
        stream = b"".join(
            encode_frame(pack_message({"i": i, "pkt": SAMPLES[i]})) for i in idxs
        )
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(stream)), max_size=8), label="cuts"
            )
        )
        decoder = FrameDecoder()
        out = []
        prev = 0
        for cut in cuts + [len(stream)]:
            out.extend(decoder.feed(stream[prev:cut]))
            prev = cut
        assert decoder.buffered == 0
        decoder.check_eof()
        assert len(out) == len(idxs)
        for i, payload in zip(idxs, out):
            msg = unpack_message(payload)
            assert msg["i"] == i
            assert msg["pkt"] == SAMPLES[i]

    def test_byte_at_a_time_feed(self):
        frames = [encode_frame(pack_message(p)) for p in SAMPLES]
        decoder = FrameDecoder()
        out = []
        for frame in frames:
            for b in frame:
                out.extend(decoder.feed(bytes([b])))
        assert [unpack_message(p) for p in out] == SAMPLES


class TestCorruptionIsLoud:
    @given(data=st.data())
    def test_any_flipped_payload_byte_raises(self, data):
        frame = bytearray(encode_frame(pack_message({"pkt": SAMPLES[6]})))
        head = struct.calcsize("<4sII")
        index = data.draw(
            st.integers(head, len(frame) - 1), label="flipped byte index"
        )
        frame[index] ^= 0xFF
        with pytest.raises(FrameError, match="CRC"):
            FrameDecoder().feed(bytes(frame))

    def test_bad_magic_raises(self):
        frame = bytearray(encode_frame(b"x"))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError, match="magic"):
            FrameDecoder().feed(bytes(frame))

    def test_oversize_length_field_raises(self):
        header = struct.pack("<4sII", FRAME_MAGIC, MAX_FRAME + 1, 0)
        with pytest.raises(FrameError, match="exceeds cap"):
            FrameDecoder().feed(header)

    def test_truncated_frame_never_yields_and_eof_is_loud(self):
        frame = encode_frame(pack_message({"pkt": SAMPLES[0]}))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.buffered == len(frame) - 1
        with pytest.raises(FrameError, match="mid-frame"):
            decoder.check_eof()
        # The held-back bytes complete cleanly once the tail arrives —
        # a partial frame is pending, not corrupt.
        (payload,) = decoder.feed(frame[-1:])
        assert unpack_message(payload)["pkt"] == SAMPLES[0]

    def test_datagram_must_be_exactly_one_frame(self):
        one = encode_frame(pack_message(1))
        with pytest.raises(FrameError, match="exactly one frame"):
            decode_datagram(one + one)
        with pytest.raises(FrameError, match="exactly one frame"):
            decode_datagram(one + one[: len(one) // 2])

    def test_corrupt_stream_stays_poisoned_not_resynced(self):
        decoder = FrameDecoder()
        bad = bytearray(encode_frame(pack_message(1)))
        bad[0] ^= 0xFF
        with pytest.raises(FrameError):
            decoder.feed(bytes(bad))
        # Decoder does not silently skip to the next frame: the stream
        # position is untrustworthy, so even a good frame re-raises.
        with pytest.raises(FrameError):
            decoder.feed(encode_frame(pack_message(2)))
