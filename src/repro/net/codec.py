"""Shared packed binary codec: tagged values, packets and stream frames.

This module is the single source of truth for how a G-COPSS packet turns
into bytes.  The tagged-value and packet encoding started life in
``repro.parallel.wire`` (PR 6) serving the multiprocess executor's
cross-shard exchange; live-wire mode needs the identical encoding on real
sockets, so the codec lives here and :mod:`repro.parallel.wire` imports
it — the worker exchange format is bit-for-bit unchanged (the digest gates
in the parallel test suite prove it).

Two layers:

* **values/packets** — each value is a 1-byte tag plus a fixed or
  length-prefixed body; a packet is a 1-byte class id from
  :data:`PACKET_TYPES` (order is the wire format — append only) plus each
  dataclass field as a tagged value.  ``uid``, ``nonce``, ``size`` and
  ``created_at`` are carried explicitly so decoding neither draws from the
  process-local id counters nor re-derives sizes — trace identity and byte
  accounting survive the hop bit-exactly.  Unencodable values fail loudly
  with the offending type: silently falling back to pickle would un-fix
  the exact problem this codec exists to fix.  Both directions are table
  driven — encoders keyed by ``type(value)``, decoders indexed by tag —
  because on the live wire this module is what a hop costs; the bytes are
  those of the original ``isinstance`` ladder, which the test suite keeps
  as the reference encoder.  Decoding trusts nothing: every malformed
  payload raises :class:`FrameError` naming the offset.
* **frames** — TCP is a byte stream, so live-wire messages travel as
  ``MAGIC(4) | length u32 | crc32 u32 | payload``.  The magic bytes carry
  the format version (``GCW1``); a reader that sees anything else is
  desynchronized or talking to the wrong protocol and must fail loudly
  rather than resync heuristically, so :class:`FrameDecoder` raises
  :class:`FrameError` on bad magic, oversize lengths and CRC mismatches
  instead of skipping bytes.  The same frame wrapper is used for UDP
  datagrams (one frame per datagram) so corruption detection is uniform.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import fields as _dataclass_fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Tuple, Type

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
from repro.names import Name, register_intern_dependent
from repro.ndn.packets import Data, Interest
from repro.packets import Packet

__all__ = [
    "PACKET_TYPES",
    "encode_value",
    "decode_value",
    "encode_packet",
    "decode_packet",
    "pack_message",
    "unpack_message",
    "FRAME_MAGIC",
    "MAX_FRAME",
    "FrameError",
    "encode_frame",
    "decode_datagram",
    "FrameDecoder",
]

#: Every packet class that can cross a process boundary, in wire-id order.
#: Order is the wire format — append only.
PACKET_TYPES: Tuple[Type[Packet], ...] = (
    Packet,
    Interest,
    Data,
    SubscribePacket,
    UnsubscribePacket,
    MulticastPacket,
    FibAddPacket,
    FibRemovePacket,
    CdHandoffPacket,
    JoinPacket,
    ConfirmPacket,
    LeavePacket,
)


class FrameError(ValueError):
    """A malformed frame or payload.

    Framing: bad magic, oversize length or CRC mismatch.  Payload: a
    truncated, over-long or otherwise undecodable tagged value.  Raised
    instead of attempting to resynchronize — a desynced stream has no
    trustworthy bytes left, so the connection must be torn down.
    """


# Value tags.
_T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT, _T_STR = range(6)
_T_BYTES, _T_NAME, _T_TUPLE, _T_LIST, _T_DICT, _T_PACKET = range(6, 12)

_Q = struct.Struct("<q")
_D = struct.Struct("<d")
_I = struct.Struct("<I")
# Tag and fixed-size body in one pack: the same bytes as tag + "<q" etc.
_TAG_Q = struct.Struct("<Bq")
_TAG_D = struct.Struct("<Bd")
_TAG_I = struct.Struct("<BI")

#: ``Name`` -> its whole wire encoding (tag, length, UTF-8 text).  A game's
#: CD universe is small, so every hot name is a hit; the bound — the intern
#: table's — only guards unbounded name churn.
_NAME_TO_WIRE: Dict[Name, bytes] = {}
_NAME_CACHE_LIMIT = 1 << 16
#: UTF-8 text -> the interned ``Name``.  Cleared with the intern table, so
#: a decoded name is always the instance ``Name.parse`` returns.
_WIRE_TO_NAME: Dict[bytes, Name] = {}
register_intern_dependent(_WIRE_TO_NAME)


# ----------------------------------------------------------------------
# Tagged values: encoding
# ----------------------------------------------------------------------
def _encode_none(buf: bytearray, value: None) -> None:
    buf.append(_T_NONE)


def _encode_bool(buf: bytearray, value: bool) -> None:
    buf.append(_T_TRUE if value else _T_FALSE)


def _int64_error(value: int) -> TypeError:
    return TypeError(
        f"cannot wire-encode int {value!r}: outside the int64 range the "
        "wire format carries"
    )


def _encode_int(buf: bytearray, value: int) -> None:
    try:
        buf += _TAG_Q.pack(_T_INT, value)
    except struct.error:
        raise _int64_error(value) from None


def _encode_float(buf: bytearray, value: float) -> None:
    buf += _TAG_D.pack(_T_FLOAT, value)


def _encode_str(buf: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    buf += _TAG_I.pack(_T_STR, len(raw))
    buf += raw


def _encode_bytes(buf: bytearray, value: bytes) -> None:
    buf += _TAG_I.pack(_T_BYTES, len(value))
    buf += value


def _encode_name(buf: bytearray, value: Name) -> None:
    wire = _NAME_TO_WIRE.get(value)
    if wire is None:
        raw = str(value).encode("utf-8")
        wire = _TAG_I.pack(_T_NAME, len(raw)) + raw
        if len(_NAME_TO_WIRE) >= _NAME_CACHE_LIMIT:
            _NAME_TO_WIRE.clear()
        _NAME_TO_WIRE[value] = wire
    buf += wire


def _encode_tuple(buf: bytearray, value: tuple) -> None:
    buf += _TAG_I.pack(_T_TUPLE, len(value))
    for item in value:
        encode_value(buf, item)


def _encode_list(buf: bytearray, value: list) -> None:
    buf += _TAG_I.pack(_T_LIST, len(value))
    for item in value:
        encode_value(buf, item)


def _encode_dict(buf: bytearray, value: dict) -> None:
    buf += _TAG_I.pack(_T_DICT, len(value))
    for key, item in value.items():
        encode_value(buf, key)
        encode_value(buf, item)


def _encode_nested_packet(buf: bytearray, value: Packet) -> None:
    buf.append(_T_PACKET)
    encode_packet(buf, value)


_Encoder = Callable[[bytearray, Any], None]
#: ``type(value)`` -> encoder.  Exact types and every registered packet
#: class are pre-registered; subclasses are added by :func:`_resolve_encoder`.
_ENCODERS: Dict[type, _Encoder] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    Name: _encode_name,
    tuple: _encode_tuple,
    list: _encode_list,
    dict: _encode_dict,
    **{cls: _encode_nested_packet for cls in PACKET_TYPES},
}
#: Precedence for types not in the table (an ``IntEnum`` is an ``int``, a
#: ``NamedTuple`` a ``tuple``): first base that matches wins.
_SUBCLASS_ORDER: Tuple[type, ...] = (
    int, float, str, bytes, Name, tuple, list, dict, Packet,
)


def _resolve_encoder(value: Any) -> _Encoder:
    """Encoder for a type the table has not seen; memoized per type."""
    for base in _SUBCLASS_ORDER:
        if isinstance(value, base):
            encoder = _ENCODERS[type(value)] = _ENCODERS[base]
            return encoder
    raise TypeError(
        f"cannot wire-encode {type(value).__name__}: {value!r} — "
        "extend repro.net.codec rather than falling back to pickle"
    )


def encode_value(buf: bytearray, value: Any) -> None:
    """Append one tagged value to ``buf``."""
    try:
        encode = _ENCODERS[type(value)]
    except KeyError:
        encode = _resolve_encoder(value)
    encode(buf, value)


# ----------------------------------------------------------------------
# Tagged values: decoding
# ----------------------------------------------------------------------
def _corrupt(what: str, offset: int) -> FrameError:
    return FrameError(f"corrupt wire frame: {what} at offset {offset}")


def _bad_tag(buf, offset: int, kind: str) -> FrameError:
    if offset >= len(buf):
        return _corrupt(f"payload ends where a {kind} is expected", offset)
    return _corrupt(f"unknown {kind} {buf[offset]}", offset)


def _read_length(buf, offset: int, what: str) -> Tuple[int, int]:
    """Read a ``u32`` length or count; returns (length, offset after it).

    Every encoded element takes at least one byte, so a length or count
    beyond the bytes that are left is corrupt whatever it prefixes.
    """
    try:
        (length,) = _I.unpack_from(buf, offset)
    except struct.error:
        raise _corrupt(f"truncated {what} length", offset) from None
    offset += 4
    if length > len(buf) - offset:
        raise _corrupt(
            f"{what} length {length} exceeds the {len(buf) - offset} bytes left",
            offset - 4,
        )
    return length, offset


def _decode_none(buf, offset: int) -> Tuple[None, int]:
    return None, offset


def _decode_true(buf, offset: int) -> Tuple[bool, int]:
    return True, offset


def _decode_false(buf, offset: int) -> Tuple[bool, int]:
    return False, offset


def _decode_int(buf, offset: int) -> Tuple[int, int]:
    try:
        return _Q.unpack_from(buf, offset)[0], offset + 8
    except struct.error:
        raise _corrupt("truncated int", offset) from None


def _decode_float(buf, offset: int) -> Tuple[float, int]:
    try:
        return _D.unpack_from(buf, offset)[0], offset + 8
    except struct.error:
        raise _corrupt("truncated float", offset) from None


def _decode_str(buf, offset: int) -> Tuple[str, int]:
    length, offset = _read_length(buf, offset, "str")
    end = offset + length
    try:
        return str(buf[offset:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise _corrupt(f"str is not UTF-8 ({exc.reason})", offset) from None


def _decode_bytes(buf, offset: int) -> Tuple[bytes, int]:
    length, offset = _read_length(buf, offset, "bytes")
    end = offset + length
    return bytes(buf[offset:end]), end


def _decode_name(buf, offset: int) -> Tuple[Name, int]:
    length, offset = _read_length(buf, offset, "name")
    end = offset + length
    raw = bytes(buf[offset:end])
    name = _WIRE_TO_NAME.get(raw)
    if name is None:
        try:
            name = Name.parse(raw.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or not a canonical name
            raise _corrupt(f"malformed name ({exc})", offset) from None
        _WIRE_TO_NAME[raw] = name
    return name, end


def _decode_items(buf, offset: int, what: str) -> Tuple[List[Any], int]:
    count, offset = _read_length(buf, offset, what)
    items = []
    for _ in range(count):
        item, offset = decode_value(buf, offset)
        items.append(item)
    return items, offset


def _decode_tuple(buf, offset: int) -> Tuple[tuple, int]:
    items, offset = _decode_items(buf, offset, "tuple")
    return tuple(items), offset


def _decode_list(buf, offset: int) -> Tuple[list, int]:
    return _decode_items(buf, offset, "list")


def _decode_dict(buf, offset: int) -> Tuple[dict, int]:
    count, offset = _read_length(buf, offset, "dict")
    out: Dict[Any, Any] = {}
    for _ in range(count):
        key_offset = offset
        key, offset = decode_value(buf, offset)
        value, offset = decode_value(buf, offset)
        try:
            out[key] = value
        except TypeError:
            raise _corrupt(
                f"unhashable dict key of type {type(key).__name__}", key_offset
            ) from None
    return out, offset


def decode_value(buf, offset: int) -> Tuple[Any, int]:
    """Decode one tagged value at ``offset``; returns (value, new offset).

    Dispatches through ``_DECODERS`` (below :func:`decode_packet`, its
    last entry), indexed by the tag byte.

    Anything malformed — truncation, a length past the end of ``buf``, an
    unknown tag, bad UTF-8 — raises :class:`FrameError` naming the offset.
    """
    try:
        decode = _DECODERS[buf[offset]]
    except IndexError:
        raise _bad_tag(buf, offset, "value tag") from None
    return decode(buf, offset + 1)


# ----------------------------------------------------------------------
# Packets
# ----------------------------------------------------------------------
#: Per class: wire id and one getter returning every dataclass field, base
#: fields (size, created_at, uid) first — the per-class wire schema.
_PACKET_ENCODE: Dict[Type[Packet], Tuple[int, Callable[[Packet], Tuple[Any, ...]]]] = {
    cls: (type_id, attrgetter(*(f.name for f in _dataclass_fields(cls))))
    for type_id, cls in enumerate(PACKET_TYPES)
}
#: Per wire id: the class and how many positional fields it is built from.
_PACKET_DECODE: Tuple[Tuple[Type[Packet], int], ...] = tuple(
    (cls, len(_dataclass_fields(cls))) for cls in PACKET_TYPES
)


def encode_packet(buf: bytearray, packet: Packet) -> None:
    """Append ``packet`` as ``class_id + tagged field values``."""
    try:
        type_id, get_fields = _PACKET_ENCODE[type(packet)]
    except KeyError:
        raise TypeError(
            f"unregistered packet class {type(packet).__name__}; add it to "
            "repro.net.codec.PACKET_TYPES"
        ) from None
    buf.append(type_id)
    for value in get_fields(packet):
        kind = type(value)
        if kind is int:
            try:
                buf += _TAG_Q.pack(_T_INT, value)
            except struct.error:
                raise _int64_error(value) from None
        elif kind is float:
            buf += _TAG_D.pack(_T_FLOAT, value)
        else:
            encode_value(buf, value)


def decode_packet(buf, offset: int) -> Tuple[Packet, int]:
    """Decode one packet at ``offset``; returns (packet, new offset).

    The packet is built through its normal constructor, so every
    ``__post_init__`` validation runs on the decoded fields.
    """
    try:
        cls, field_count = _PACKET_DECODE[buf[offset]]
    except IndexError:
        raise _bad_tag(buf, offset, "packet type id") from None
    start = offset
    offset += 1
    values = []
    try:
        for _ in range(field_count):
            tag = buf[offset]
            if tag == _T_INT:
                values.append(_Q.unpack_from(buf, offset + 1)[0])
                offset += 9
            elif tag == _T_FLOAT:
                values.append(_D.unpack_from(buf, offset + 1)[0])
                offset += 9
            else:
                value, offset = _DECODERS[tag](buf, offset + 1)
                values.append(value)
    except (IndexError, struct.error):
        # The inline reads above skip the checks; the checked decoder
        # fails on the same field with the precise message.
        decode_value(buf, offset)
        raise
    try:
        return cls(*values), offset
    except (TypeError, ValueError) as exc:
        raise _corrupt(
            f"{cls.__name__} rejects its decoded fields ({exc})", start
        ) from None


#: Decoder per value tag; the index *is* the tag.
_DECODERS = (
    _decode_none, _decode_true, _decode_false, _decode_int, _decode_float,
    _decode_str, _decode_bytes, _decode_name, _decode_tuple, _decode_list,
    _decode_dict, decode_packet,
)


# ----------------------------------------------------------------------
# Whole-message helpers (one tagged value per payload)
# ----------------------------------------------------------------------
def pack_message(value: Any) -> bytes:
    """Encode one value (typically a dict; packets nest fine) as a payload."""
    buf = bytearray()
    encode_value(buf, value)
    return bytes(buf)


def unpack_message(payload) -> Any:
    """Decode a :func:`pack_message` payload, requiring full consumption.

    Every malformed payload raises :class:`FrameError`.
    """
    try:
        value, offset = decode_value(payload, 0)
    except RecursionError:
        raise FrameError("corrupt wire frame: values nested too deeply") from None
    if offset != len(payload):
        raise FrameError(
            f"corrupt wire frame: {len(payload) - offset} trailing bytes "
            f"after message at offset {offset}"
        )
    return value


# ----------------------------------------------------------------------
# Stream framing
# ----------------------------------------------------------------------
#: Versioned frame magic: "GCW" + format version.  Bump the trailing byte
#: on any incompatible layout change so mixed-version peers fail loudly.
FRAME_MAGIC = b"GCW1"
#: Upper bound on a single frame payload.  Anything larger is a corrupt
#: length field, not a real message — the biggest legitimate frame is a
#: collect report, well under a megabyte.
MAX_FRAME = 16 * 1024 * 1024

_FRAME_HEAD = struct.Struct("<4sII")


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` as ``magic | length | crc32 | payload``."""
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame payload {len(payload)} exceeds MAX_FRAME")
    return (
        _FRAME_HEAD.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload
    )


def decode_datagram(data: bytes) -> bytes:
    """Decode exactly one frame from a UDP datagram; loud on any excess."""
    decoder = FrameDecoder()
    payloads = decoder.feed(data)
    if len(payloads) != 1 or decoder.buffered:
        raise FrameError(
            f"datagram must contain exactly one frame, got {len(payloads)} "
            f"with {decoder.buffered} bytes left over"
        )
    return payloads[0]


class FrameDecoder:
    """Incremental frame reassembly over arbitrary TCP chunk boundaries.

    Feed it whatever the socket returns; it buffers partial frames and
    yields each complete payload exactly once.  Any sign of corruption
    (wrong magic, implausible length, CRC mismatch) raises
    :class:`FrameError` immediately — a stream protocol that skips bytes
    to "recover" silently delivers garbage packets instead.
    """

    __slots__ = ("_buf", "_max_frame")

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self._buf = bytearray()
        self._max_frame = max_frame

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buf)

    def feed(self, data) -> List[bytes]:
        """Absorb ``data``; return every payload it completed, in order."""
        self._buf += data
        buf = self._buf
        payloads: List[bytes] = []
        offset = 0
        while len(buf) - offset >= _FRAME_HEAD.size:
            magic, length, crc = _FRAME_HEAD.unpack_from(buf, offset)
            if magic != FRAME_MAGIC:
                raise FrameError(
                    f"bad frame magic {bytes(magic)!r} (want {FRAME_MAGIC!r}): "
                    "stream is desynchronized or speaking another protocol"
                )
            if length > self._max_frame:
                raise FrameError(
                    f"frame length {length} exceeds cap {self._max_frame}: "
                    "corrupt length field"
                )
            end = offset + _FRAME_HEAD.size + length
            if len(buf) < end:
                break  # partial frame — wait for more bytes
            payload = bytes(buf[offset + _FRAME_HEAD.size : end])
            if zlib.crc32(payload) != crc:
                raise FrameError(
                    f"frame CRC mismatch (len={length}): payload corrupted in flight"
                )
            payloads.append(payload)
            offset = end
        if offset:
            del buf[:offset]
        return payloads

    def check_eof(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buf:
            raise FrameError(
                f"connection closed mid-frame with {len(self._buf)} buffered bytes"
            )
