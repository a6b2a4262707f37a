"""Bloom filters for Subscription Tables.

The paper's ST is a ``<Face, BloomFilter<CD>>`` table: per outgoing face, a
Bloom filter describes the subscribed CD set, and a Multicast packet is
forwarded on a face when its CD (or a prefix of it) hits the filter.

Routers keep :class:`CountingBloomFilter`, which supports removal:
players unsubscribe constantly as they move between zones.  The data
plane reads only its bit view.

Hashing is deterministic (``blake2b`` with per-index salts) so simulation
runs are reproducible and false-positive behaviour is testable.

Fast-path layout: the filter keeps its set-bit view as a single Python
``int`` bitmask, so a membership test is one AND against a precombined
per-name mask instead of ``k`` per-index probes.  The bit positions and
the combined mask of each name text and geometry sit in one bounded
``lru_cache`` behind :func:`indexes_for` / :func:`mask_for`, so a CD is
hashed once per geometry for the lifetime of the run.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import lru_cache
from typing import Optional, Tuple

from repro.names import Name

__all__ = ["CountingBloomFilter", "indexes_for", "mask_for"]

#: Counter ceiling of the counting filter (16-bit, as on a real router).
COUNTER_MAX = 0xFFFF


@lru_cache(maxsize=1 << 15)
def _derive(text: str, num_bits: int, num_hashes: int) -> Tuple[Tuple[int, ...], int]:
    """(indexes, combined mask) of one name text for one filter geometry.

    Deterministic double hashing over a ``blake2b`` digest; the one
    memo of the mapping, so each CD is hashed once per geometry.
    """
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full period
    idxs = tuple((h1 + i * h2) % num_bits for i in range(num_hashes))
    mask = 0
    for idx in idxs:
        mask |= 1 << idx
    return idxs, mask


def indexes_for(cd: "Name | str", num_bits: int, num_hashes: int) -> Tuple[int, ...]:
    """Bloom bit positions of ``cd`` for the given filter geometry."""
    return _derive(str(Name.coerce(cd)), num_bits, num_hashes)[0]


def mask_for(cd: "Name | str", num_bits: int, num_hashes: int) -> int:
    """The OR of ``cd``'s bit positions as a single int bitmask."""
    return _derive(str(Name.coerce(cd)), num_bits, num_hashes)[1]


class CountingBloomFilter:
    """Bloom filter with 16-bit counters, supporting removal.

    Subscription tables must shrink when players unsubscribe; plain Bloom
    filters cannot delete, so routers keep the counting variant and the
    data plane reads its bit-vector view.

    Counters are sparse: ``_counts`` is a :class:`~collections.Counter`
    holding only the nonzero ones (a missing position reads 0, and a
    counter that falls to 0 is deleted), so a face costs what it
    subscribes to rather than ``num_bits`` counters.  Each counter is
    bounded at :data:`COUNTER_MAX` (16 bits): incrementing one there
    raises ``OverflowError`` before any counter changes.  A plain
    bit-vector view (:attr:`bit_view`) is maintained in lock-step by
    ``add``/``remove`` so data-plane membership is a single mask AND.
    """

    __slots__ = ("num_bits", "num_hashes", "_counts", "_bitview", "items")

    def __init__(self, num_bits: int = 1024, num_hashes: int = 4) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._counts: "Counter[int]" = Counter()
        self._bitview = 0
        self.items = 0

    def add(self, cd: "Name | str", indexes: Optional[Tuple[int, ...]] = None) -> None:
        """Insert one occurrence of ``cd``, bumping its ``k`` counters.

        Accepts precomputed ``indexes`` to skip hashing.  Raises
        ``OverflowError`` — before touching any counter — if an increment
        would exceed :data:`COUNTER_MAX`.
        """
        if indexes is None:
            indexes = indexes_for(cd, self.num_bits, self.num_hashes)
        counts = self._counts
        if any(counts.get(idx, 0) >= COUNTER_MAX for idx in indexes):
            raise OverflowError(
                f"16-bit Bloom counter overflow adding {cd} "
                f"(a counter already holds {COUNTER_MAX})"
            )
        for idx in indexes:
            count = counts.get(idx, 0)
            if count == 0:
                self._bitview |= 1 << idx
            counts[idx] = count + 1
        self.items += 1

    def remove(self, cd: "Name | str", indexes: Optional[Tuple[int, ...]] = None) -> None:
        """Remove one occurrence; raises if the item was never added.

        The guard cannot be perfect (Bloom filters have no membership
        ground truth) but catching an underflow means a protocol bug
        double-removed a subscription, which we want loudly.
        """
        if indexes is None:
            indexes = indexes_for(cd, self.num_bits, self.num_hashes)
        counts = self._counts
        if not all(idx in counts for idx in indexes):
            raise KeyError(f"removing {cd} which is not present")
        for idx in indexes:
            count = counts[idx] - 1
            if count:
                counts[idx] = count
            else:
                del counts[idx]
                self._bitview &= ~(1 << idx)
        self.items -= 1

    def __contains__(self, cd: object) -> bool:
        if not isinstance(cd, (Name, str)):
            return False
        mask = mask_for(cd, self.num_bits, self.num_hashes)
        return self._bitview & mask == mask

    @property
    def bit_view(self) -> int:
        """The nonzero-counter positions as one int bitmask."""
        return self._bitview
