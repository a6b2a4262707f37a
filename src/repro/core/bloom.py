"""Bloom filters for Subscription Tables.

The paper's ST is a ``<Face, BloomFilter<CD>>`` table: per outgoing face, a
Bloom filter describes the subscribed CD set, and a Multicast packet is
forwarded on a face when its CD (or a prefix of it) hits the filter.

Two variants:

* :class:`BloomFilter` — the plain data-plane structure (what's on the
  wire in the paper's hash-forwarding optimization);
* :class:`CountingBloomFilter` — supports removal, needed because players
  unsubscribe constantly as they move between zones.

Hashing is deterministic (``blake2b`` with per-index salts) so simulation
runs are reproducible and false-positive behaviour is testable.

Fast-path layout: both filters keep their set-bit view as a single Python
``int`` bitmask, so a membership test is one AND against a precombined
per-name mask instead of ``k`` per-index probes.  The bit positions (and
the combined mask) for each name/geometry pair are pinned on the
:class:`~repro.names.Name` instance via :func:`indexes_for` /
:func:`mask_for` — computed once per CD for the lifetime of the run.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from repro.names import Name

__all__ = [
    "BloomFilter",
    "CountingBloomFilter",
    "optimal_params",
    "indexes_for",
    "mask_for",
]

#: Counter ceiling of the counting filter (16-bit, as on a real router).
COUNTER_MAX = 0xFFFF

#: False-positive rate ``for_capacity`` sizes a filter for.
FP_RATE = 0.01


def optimal_params(expected_items: int, fp_rate: float) -> tuple[int, int]:
    """Classic (m, k) sizing: bits and hash count for a target FP rate."""
    if expected_items <= 0:
        raise ValueError("expected_items must be positive")
    if not 0 < fp_rate < 1:
        raise ValueError("fp_rate must be in (0, 1)")
    m = math.ceil(-expected_items * math.log(fp_rate) / (math.log(2) ** 2))
    k = max(1, round(m / expected_items * math.log(2)))
    return m, k


@lru_cache(maxsize=1 << 15)
def _indexes(key: str, num_bits: int, num_hashes: int) -> Tuple[int, ...]:
    """Deterministic double-hashing index derivation (string-keyed).

    The per-:class:`Name` caches in :func:`indexes_for` are the hot path;
    this remains the single source of truth for the hash mapping (and the
    fallback for raw-string callers).
    """
    digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full period
    return tuple((h1 + i * h2) % num_bits for i in range(num_hashes))


def _derive(name: Name, num_bits: int, num_hashes: int) -> Tuple[Tuple[int, ...], int]:
    """(indexes, combined mask) for one name/geometry pair, instance-cached."""
    cache = name.derived_cache()
    key = (num_bits, num_hashes)
    entry = cache.get(key)
    if entry is None:
        idxs = _indexes(str(name), num_bits, num_hashes)
        mask = 0
        for idx in idxs:
            mask |= 1 << idx
        entry = cache[key] = (idxs, mask)
    return entry


def indexes_for(cd: "Name | str", num_bits: int, num_hashes: int) -> Tuple[int, ...]:
    """Bloom bit positions of ``cd`` for the given filter geometry."""
    return _derive(Name.coerce(cd), num_bits, num_hashes)[0]


def mask_for(cd: "Name | str", num_bits: int, num_hashes: int) -> int:
    """The OR of ``cd``'s bit positions as a single int bitmask."""
    return _derive(Name.coerce(cd), num_bits, num_hashes)[1]


class BloomFilter:
    """Plain Bloom filter over Content Descriptors.

    Storage is a single int bitmask; membership is a mask AND.  ``add``
    accepts a precomputed index tuple so the data plane never re-hashes a
    name it has already seen.
    """

    def __init__(self, num_bits: int = 1024, num_hashes: int = 4) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._mask = 0
        self.items_added = 0

    @classmethod
    def for_capacity(cls, expected_items: int) -> "BloomFilter":
        return cls(*optimal_params(expected_items, FP_RATE))

    def add(self, cd: "Name | str", indexes: Optional[Iterable[int]] = None) -> None:
        """Insert ``cd``; pass its precomputed ``indexes`` to skip hashing."""
        if indexes is None:
            self._mask |= mask_for(cd, self.num_bits, self.num_hashes)
        else:
            mask = 0
            for idx in indexes:
                mask |= 1 << idx
            self._mask |= mask
        self.items_added += 1

    def __contains__(self, cd: object) -> bool:
        if not isinstance(cd, (Name, str)):
            return False
        mask = mask_for(cd, self.num_bits, self.num_hashes)
        return self._mask & mask == mask

    def contains_mask(self, mask: int) -> bool:
        """Membership test with a precombined bit mask (hot path)."""
        return self._mask & mask == mask

    @property
    def bit_view(self) -> int:
        """The set bits as one int bitmask (bit ``i`` = filter bit ``i``)."""
        return self._mask

    def matches_any_prefix(self, cd: "Name | str") -> bool:
        """Hierarchical test: the CD or any prefix of it is in the filter."""
        name = Name.coerce(cd)
        bits, hashes, view = self.num_bits, self.num_hashes, self._mask
        return any(
            view & (m := mask_for(prefix, bits, hashes)) == m
            for prefix in name.prefixes()
        )

    def update(self, cds: Iterable["Name | str"]) -> None:
        for cd in cds:
            self.add(cd)

    def clear(self) -> None:
        self._mask = 0
        self.items_added = 0

    @property
    def fill_ratio(self) -> float:
        return self._mask.bit_count() / self.num_bits

    @property
    def size_bytes(self) -> int:
        """Wire/occupancy footprint of the bit array."""
        return (self.num_bits + 7) // 8

    def to_bytes(self) -> bytes:
        """Little-endian packed bit array (bit ``i`` = byte ``i//8``, bit ``i%8``)."""
        return self._mask.to_bytes(self.size_bytes, "little")


class CountingBloomFilter:
    """Bloom filter with 16-bit counters, supporting removal.

    Subscription tables must shrink when players unsubscribe; plain Bloom
    filters cannot delete, so routers keep the counting variant and can
    derive the plain bit-vector view for the data plane.

    Counters are a real ``array("H")`` (16 bits each, as the docline has
    always promised): incrementing a counter at :data:`COUNTER_MAX` raises
    ``OverflowError`` rather than silently growing or wrapping.  A plain
    bit-vector view (:attr:`bit_view`) is maintained in lock-step by
    ``add``/``remove`` so data-plane membership is a single mask AND.
    """

    def __init__(self, num_bits: int = 1024, num_hashes: int = 4) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._counts = array("H", bytes(2 * num_bits))
        self._bitview = 0
        self.items = 0

    @classmethod
    def for_capacity(cls, expected_items: int) -> "CountingBloomFilter":
        return cls(*optimal_params(expected_items, FP_RATE))

    def add(self, cd: "Name | str", indexes: Optional[Tuple[int, ...]] = None) -> None:
        """Insert one occurrence of ``cd``, bumping its ``k`` counters.

        Accepts precomputed ``indexes`` to skip hashing.  Raises
        ``OverflowError`` — before touching any counter — if an increment
        would exceed :data:`COUNTER_MAX`.
        """
        if indexes is None:
            indexes = indexes_for(cd, self.num_bits, self.num_hashes)
        counts = self._counts
        if any(counts[idx] >= COUNTER_MAX for idx in indexes):
            raise OverflowError(
                f"16-bit Bloom counter overflow adding {cd} "
                f"(a counter already holds {COUNTER_MAX})"
            )
        for idx in indexes:
            if counts[idx] == 0:
                self._bitview |= 1 << idx
            counts[idx] += 1
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
        if any(counts[idx] == 0 for idx in indexes):
            raise KeyError(f"removing {cd} which is not present")
        for idx in indexes:
            counts[idx] -= 1
            if counts[idx] == 0:
                self._bitview &= ~(1 << idx)
        self.items -= 1

    def __contains__(self, cd: object) -> bool:
        if not isinstance(cd, (Name, str)):
            return False
        mask = mask_for(cd, self.num_bits, self.num_hashes)
        return self._bitview & mask == mask

    def contains_mask(self, mask: int) -> bool:
        """Membership test with a precombined bit mask (hot path)."""
        return self._bitview & mask == mask

    @property
    def bit_view(self) -> int:
        """The nonzero-counter positions as one int bitmask."""
        return self._bitview

    def matches_any_prefix(self, cd: "Name | str") -> bool:
        """Hierarchical test: the CD or any prefix of it is in the filter."""
        name = Name.coerce(cd)
        bits, hashes, view = self.num_bits, self.num_hashes, self._bitview
        return any(
            view & (m := mask_for(prefix, bits, hashes)) == m
            for prefix in name.prefixes()
        )

    def to_bloom(self) -> BloomFilter:
        """Snapshot as a plain (non-counting) filter."""
        bloom = BloomFilter(self.num_bits, self.num_hashes)
        bloom._mask = self._bitview
        bloom.items_added = self.items
        return bloom

    def clear(self) -> None:
        self._counts = array("H", bytes(2 * self.num_bits))
        self._bitview = 0
        self.items = 0

    @property
    def fill_ratio(self) -> float:
        return self._bitview.bit_count() / self.num_bits
