"""Packed binary wire format for cross-shard worker exchange.

The first multiprocess executor shipped every cross-shard packet as a
pickled ``(time, rank, order, dst, src, packet)`` tuple — one pickle
header, one class lookup and one object graph walk *per packet per
barrier*.  This module replaces that with a fixed-layout
``struct``-packed format: the coordinator and each worker exchange **one
``send_bytes`` frame per (shard, barrier)** containing the whole batch,
and nothing on the transit path ever touches :mod:`pickle` (the test
suite enforces this by making ``Connection.send`` explode).

Layout (all little-endian):

* **frame** = 1-byte op (``RUN``/``DONE``/``READY``/``FINISH``/``RESULT``/
  ``ERROR``) followed by op-specific fields;
* ``RUN`` = ``horizon f64, inclusive u8, count u32`` then ``count``
  transit messages — the coordinator piggybacks the barrier's injections
  on the next window command, halving the old two-RTT protocol;
* ``DONE``/``READY`` = ``peek (u8 flag + f64), count u32`` plus the
  worker's drained outbox (``READY`` carries no messages);
* ``RESULT`` = one tagged dict: the worker's counters plus ``log``, its
  :meth:`~repro.parallel.digest.DeliveryLog.columns` — ``keys`` (i64),
  ``receivers`` (u32 positions in ``names``) and ``latencies`` (f64) as
  ``array.tobytes()`` values in native byte order (both ends are forks of
  one process) plus ``names``, the receiver string table;
* ``ERROR`` = the failed worker's traceback as UTF-8 text;
* **transit message** = ``arrival f64, sender rank i32, send order u32``,
  two length-prefixed node names, then the packet;
* **packet** = a 1-byte class id from
  :data:`repro.net.codec.PACKET_TYPES` plus each dataclass field as a
  tagged value.  Field values cover everything the
  protocol stack puts in packets: scalars, names (canonical text),
  tuples/lists/dicts, bytes, and *nested packets* (RP-tunnel Interests
  carry a Multicast in ``payload``).  ``uid``, ``nonce``, ``size`` and
  ``created_at`` are carried explicitly, so decoding neither draws from
  the process-local id counters nor re-derives sizes — trace identity
  (``trace_id_of`` keys off uids) and byte accounting survive the hop
  bit-exactly.

The tagged-value/packet codec itself lives in :mod:`repro.net.codec`
(live-wire mode frames the identical encoding onto real sockets); this
module holds only the worker-protocol frame ops (``RUN``/``DONE``/...)
that the multiprocess executor speaks.

Unencodable values fail loudly with the offending type: silently falling
back to pickle would un-fix the exact problem this module exists to fix.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple

from repro.net.codec import decode_value, encode_value

__all__ = [
    "WireMsg",
    "OP_READY",
    "OP_RUN",
    "OP_DONE",
    "OP_FINISH",
    "OP_RESULT",
    "OP_ERROR",
    "encode_ready",
    "decode_ready",
    "encode_run",
    "decode_run",
    "encode_done",
    "decode_done",
    "encode_finish",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
]

#: (arrival_time, sender_rank, send_order, dst_node, src_node, packet)
WireMsg = Tuple[float, int, int, str, str, Any]

OP_READY, OP_RUN, OP_DONE, OP_FINISH, OP_RESULT, OP_ERROR = range(6)

_I = struct.Struct("<I")
_MSG_HEAD = struct.Struct("<diI")
_RUN_HEAD = struct.Struct("<dBI")
_DONE_HEAD = struct.Struct("<BdI")


# ----------------------------------------------------------------------
# Transit message batches
# ----------------------------------------------------------------------
def _encode_msg(buf: bytearray, msg: WireMsg) -> None:
    time, sender_rank, send_order, dst, src, packet = msg
    buf += _MSG_HEAD.pack(time, sender_rank, send_order)
    for name in (dst, src):
        raw = name.encode("utf-8")
        buf += _I.pack(len(raw))
        buf += raw
    encode_value(buf, packet)


def _decode_msg(buf, offset: int) -> Tuple[WireMsg, int]:
    time, sender_rank, send_order = _MSG_HEAD.unpack_from(buf, offset)
    offset += _MSG_HEAD.size
    names = []
    for _ in range(2):
        (length,) = _I.unpack_from(buf, offset)
        offset += 4
        names.append(bytes(buf[offset : offset + length]).decode("utf-8"))
        offset += length
    packet, offset = decode_value(buf, offset)
    return (time, sender_rank, send_order, names[0], names[1], packet), offset


def _decode_msgs(buf, offset: int, count: int) -> Tuple[List[WireMsg], int]:
    msgs: List[WireMsg] = []
    for _ in range(count):
        msg, offset = _decode_msg(buf, offset)
        msgs.append(msg)
    return msgs, offset


def _encode_status(op: int, peek: Optional[float], msgs: List[WireMsg]) -> bytes:
    buf = bytearray([op])
    buf += _DONE_HEAD.pack(peek is not None, peek or 0.0, len(msgs))
    for msg in msgs:
        _encode_msg(buf, msg)
    return bytes(buf)


def _decode_status(buf) -> Tuple[Optional[float], List[WireMsg]]:
    has_peek, peek, count = _DONE_HEAD.unpack_from(buf, 1)
    msgs, _ = _decode_msgs(buf, 1 + _DONE_HEAD.size, count)
    return (peek if has_peek else None), msgs


def _expect(buf, op: int) -> None:
    if not buf or buf[0] != op:
        raise ValueError(
            f"protocol error: expected op {op}, got "
            f"{buf[0] if buf else 'empty frame'}"
        )


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_ready(peek: Optional[float]) -> bytes:
    """Worker -> coordinator handshake: the slice is built; initial peek time."""
    return _encode_status(OP_READY, peek, [])


def decode_ready(buf) -> Optional[float]:
    """Decode a READY frame into the worker's ``peek``."""
    _expect(buf, OP_READY)
    return _decode_status(buf)[0]


def encode_run(horizon: float, inclusive: bool, msgs: List[WireMsg]) -> bytes:
    """Coordinator -> worker: window command plus piggybacked injections."""
    buf = bytearray([OP_RUN])
    buf += _RUN_HEAD.pack(horizon, inclusive, len(msgs))
    for msg in msgs:
        _encode_msg(buf, msg)
    return bytes(buf)


def decode_run(buf) -> Tuple[float, bool, List[WireMsg]]:
    """Decode a RUN frame into ``(horizon, inclusive, injections)``."""
    _expect(buf, OP_RUN)
    horizon, inclusive, count = _RUN_HEAD.unpack_from(buf, 1)
    msgs, _ = _decode_msgs(buf, 1 + _RUN_HEAD.size, count)
    return horizon, bool(inclusive), msgs


def encode_done(peek: Optional[float], msgs: List[WireMsg]) -> bytes:
    """Worker -> coordinator: post-window peek and egress batch."""
    return _encode_status(OP_DONE, peek, msgs)


def decode_done(buf) -> Tuple[Optional[float], List[WireMsg]]:
    """Decode a DONE frame into ``(peek, egress batch)``."""
    _expect(buf, OP_DONE)
    return _decode_status(buf)


def encode_finish() -> bytes:
    """Coordinator -> worker: stop and report results."""
    return bytes([OP_FINISH])


def encode_result(result: dict) -> bytes:
    """Worker -> coordinator: the final result dict as tagged values."""
    buf = bytearray([OP_RESULT])
    encode_value(buf, result)
    return bytes(buf)


def decode_result(buf) -> dict:
    """Decode a RESULT frame back into the worker's result dict."""
    _expect(buf, OP_RESULT)
    value, _ = decode_value(buf, 1)
    return value


def encode_error(text: str) -> bytes:
    """Worker -> coordinator: the worker failed; ``text`` is its traceback."""
    return bytes([OP_ERROR]) + text.encode("utf-8")


def decode_error(buf) -> str:
    """Decode an ERROR frame back into the worker's traceback text."""
    _expect(buf, OP_ERROR)
    return bytes(buf[1:]).decode("utf-8", "replace")
