"""Canonical delivery digests: the currency of executor equivalence.

A parallel executor is only trustworthy if it provably produces the same
simulation as the serial one.  "The same" is defined over *observables*:
who received which update, and with what latency.  This module gives
that definition one canonical byte encoding so serial, in-process
sharded and multi-process runs can be compared with a string equality.

The canonical form sorts the delivery tuples: the executors preserve
each receiver's delivery order exactly, but the *interleaving* of
simultaneous deliveries at different nodes is an artifact of heap layout
with no observable meaning — two runs are equivalent iff their delivery
multisets match.  Latencies are kept at full float precision (repr), so
a single ulp of drift anywhere fails the digest; equivalence here means
bit-identical arithmetic, not approximate agreement.

:func:`delivery_digest` is that definition, written as the sorted list it
hashes.  :meth:`DeliveryLog.digest` hashes the same bytes without building
the list or its JSON string: each row's place in the sort is one integer
made of three ranks (key by ``str``, receiver by name, latency by
``repr``), each distinct 64-bit latency pattern is ``repr``-ed once, and
the rows go to sha256 a chunk at a time.  The bit patterns are read
through a ``memoryview`` of the latency column, never a copy of it.

Across processes a log travels as :meth:`DeliveryLog.columns`: the
receiver table plus its three arrays, each sent from its own buffer, and
:meth:`DeliveryLog.from_columns` reads them back with ``frombytes``.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from itertools import count, repeat
from operator import add, floordiv, mod
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = ["DeliveryLog", "delivery_digest", "canonical_digest", "json_digest"]

Entry = Tuple[object, str, float]

#: Rows per sha256 update in :meth:`DeliveryLog.digest`.
_CHUNK_ROWS = 1 << 16


def json_digest(payload: object, separators: "Tuple[str, str] | None" = None) -> str:
    """sha256 over the sorted-keys JSON encoding of ``payload``.

    ``separators`` as in :func:`json.dumps`; every report digest uses its
    default, and the bytes of each pinned digest depend on that choice.
    """
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=separators).encode()
    ).hexdigest()


def canonical_digest(payload: object) -> str:
    """:func:`json_digest` in the compact encoding (no spaces)."""
    return json_digest(payload, (",", ":"))


def delivery_digest(entries: Iterable[Entry]) -> str:
    """Canonical digest of a delivery multiset.

    Each entry is ``(key, receiver, latency_ms)`` — ``key`` identifies
    the update (a sequence number, or any JSON-stable token).  Floats are
    encoded via ``repr`` so the digest distinguishes values down to the
    last bit.
    """
    canonical = sorted(
        (str(key), receiver, repr(latency)) for key, receiver, latency in entries
    )
    return canonical_digest(canonical)


class DeliveryLog:
    """Append-only record of deliveries, digestible and mergeable.

    Each worker (or the single serial run) appends in its own execution
    order; :meth:`digest` canonicalizes, so logs from different executors
    compare directly and per-shard logs :meth:`merge` into one without
    caring about interleaving.

    Rows are three packed columns — ``array('q')`` integer keys (sequence
    numbers at every call site), ``array('I')`` positions in the receiver
    table, ``array('d')`` latencies: 20 bytes a delivery, nothing for the
    cycle collector to walk, shipped across processes as :meth:`columns`.
    """

    __slots__ = ("_keys", "_receivers", "_latencies", "_table")

    def __init__(self) -> None:
        self._keys = array("q")
        self._receivers = array("I")
        self._latencies = array("d")
        #: receiver name -> position; insertion-ordered, so also the table.
        self._table: Dict[str, int] = {}

    def record(self, key: int, receiver: str, latency_ms: float) -> None:
        self._keys.append(key)
        self._latencies.append(latency_ms)
        self._receivers.append(self._table.setdefault(receiver, len(self._table)))

    def merge(self, other: "DeliveryLog") -> "DeliveryLog":
        """Append ``other``'s rows, re-pointed at this log's receiver table."""
        table = self._table
        remap = [table.setdefault(name, len(table)) for name in other._table]
        # An array, not a lazy map, so that ``log.merge(log)`` terminates.
        self._receivers.extend(array("I", map(remap.__getitem__, other._receivers)))
        self._keys.extend(other._keys)
        self._latencies.extend(other._latencies)
        return self

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def entries(self) -> Iterator[Entry]:
        """A fresh iterator over the ``(key, receiver, latency_ms)`` rows."""
        receivers = map(list(self._table).__getitem__, self._receivers)
        return zip(self._keys, receivers, self._latencies)

    def digest(self) -> str:
        """:func:`delivery_digest` of the rows, hashed as it is written out.

        Each row is one integer, ``(key_rank * len(names) + name_rank) *
        len(latencies) + latency_rank``, with keys ranked by ``str``,
        receivers by name and latencies by ``repr``: sorting the integers
        sorts the rows as the reference does, equal integers are equal
        rows, and each integer decodes to its row's three JSON fields.
        """
        # Bit patterns, not floats: -0.0 and 0.0 differ in repr but not in ==.
        # A view of the latency column, not a copy; while it is held the
        # column cannot grow, so it is released as soon as the codes exist.
        bits = memoryview(self._latencies).cast("B").cast("q")
        patterns = array("q", set(bits))
        text_of = dict(zip(patterns, map(repr, array("d", patterns.tobytes()))))
        latencies = sorted(text_of, key=text_of.__getitem__)
        latency_rank = dict(zip(latencies, count()))
        spread = len(latencies)
        names = sorted(self._table)
        name_rank = {name: rank for rank, name in enumerate(names)}
        receiver_base = [name_rank[name] * spread for name in self._table]
        width = spread * len(names)
        keys = sorted(set(self._keys), key=str)
        key_base = {key: rank * width for rank, key in enumerate(keys)}
        key_part = map(key_base.__getitem__, self._keys)
        receiver_part = map(receiver_base.__getitem__, self._receivers)
        latency_part = map(latency_rank.__getitem__, bits)
        codes = list(map(add, map(add, key_part, receiver_part), latency_part))
        bits.release()
        codes.sort()
        # Each row is ``,["<key>",<name>,"<repr>"]``, the first without its
        # comma.  Only a name can need JSON escaping; an int's str or a
        # float's repr never does.
        key_text = [f',["{key}",' for key in keys]
        name_text = [json.dumps(name) + "," for name in names]
        latency_text = [f'"{text_of[pattern]}"]' for pattern in latencies]
        sha = hashlib.sha256(b"[")
        for start in range(0, len(codes), _CHUNK_ROWS):
            chunk = codes[start : start + _CHUNK_ROWS]
            fields = [""] * (3 * len(chunk))
            fields[0::3] = map(key_text.__getitem__, map(floordiv, chunk, repeat(width)))
            in_key = map(mod, chunk, repeat(width))
            fields[1::3] = map(name_text.__getitem__, map(floordiv, in_key, repeat(spread)))
            fields[2::3] = map(latency_text.__getitem__, map(mod, chunk, repeat(spread)))
            text = "".join(fields)
            sha.update((text[1:] if start == 0 else text).encode())
        sha.update(b"]")
        return sha.hexdigest()

    def latencies(self) -> List[float]:
        return sorted(self._latencies)

    def columns(self) -> Tuple[List[str], Tuple[array, array, array]]:
        """Wire form: the receiver table and the three columns themselves.

        The arrays are returned, not copied: a sender hands their buffers
        to ``send_bytes`` as they are (native byte order; both ends are
        forks of one process).
        """
        return list(self._table), (self._keys, self._receivers, self._latencies)

    @classmethod
    def from_columns(
        cls, rows: int, names: Sequence[str], recv_column: Callable[[], bytes]
    ) -> "DeliveryLog":
        """Rebuild a ``rows``-row log from :meth:`columns`' three frames.

        ``recv_column`` returns the next column's bytes; each is read into
        its array with ``frombytes`` and dropped before the next is read.
        A ragged log (a column not ``rows`` items long) or a receiver
        index outside ``names`` is rejected.
        """
        log = cls()
        columns = (log._keys, log._receivers, log._latencies)
        sizes = []
        for column in columns:
            raw = recv_column()
            sizes.append(len(raw))
            if len(raw) == rows * column.itemsize:
                column.frombytes(raw)
            del raw
        if sizes != [rows * column.itemsize for column in columns]:
            raise ValueError(f"ragged delivery columns, bytes per column: {tuple(sizes)}")
        log._table = table = {name: position for position, name in enumerate(names)}
        top = max(log._receivers, default=-1)
        if len(table) != len(names) or top >= len(names):
            raise ValueError(f"index {top} outside {len(table)} distinct receivers")
        return log
