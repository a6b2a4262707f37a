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
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = ["DeliveryLog", "delivery_digest", "canonical_digest", "json_digest"]

Entry = Tuple[object, str, float]


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

    def _rows(self, keys: Iterable) -> Iterator[Entry]:
        receivers = map(list(self._table).__getitem__, self._receivers)
        return zip(keys, receivers, self._latencies)

    @property
    def entries(self) -> Iterator[Entry]:
        """A fresh iterator over the ``(key, receiver, latency_ms)`` rows."""
        return self._rows(self._keys)

    def digest(self) -> str:
        # One key string per update, shared by its rows (``str`` of a str is itself).
        text = {key: str(key) for key in set(self._keys)}
        return delivery_digest(self._rows(map(text.__getitem__, self._keys)))

    def latencies(self) -> List[float]:
        return sorted(self._latencies)

    def columns(self) -> dict:
        """Wire form: the columns as ``bytes`` (native order) plus the table."""
        return {
            "keys": self._keys.tobytes(),
            "receivers": self._receivers.tobytes(),
            "latencies": self._latencies.tobytes(),
            "names": list(self._table),
        }

    @classmethod
    def from_columns(
        cls, keys: bytes, receivers: bytes, latencies: bytes, names: Sequence[str]
    ) -> "DeliveryLog":
        """Rebuild a log from :meth:`columns`; a ragged one is rejected."""
        log = cls()
        columns = (log._keys, log._receivers, log._latencies)
        sizes = (len(keys), len(receivers), len(latencies))
        rows = sizes[0] // log._keys.itemsize
        if sizes != tuple(rows * column.itemsize for column in columns):
            raise ValueError(f"ragged delivery columns, bytes per column: {sizes}")
        for column, raw in zip(columns, (keys, receivers, latencies)):
            column.frombytes(raw)
        log._table = table = {name: position for position, name in enumerate(names)}
        top = max(log._receivers, default=-1)
        if len(table) != len(names) or top >= len(names):
            raise ValueError(f"index {top} outside {len(table)} distinct receivers")
        return log
