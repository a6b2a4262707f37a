"""Bounded insertion-ordered uid dedup shared by every suppression point.

Three places in the G-COPSS stack must answer "have I seen this packet
uid before?" under bounded memory: router-side multicast replication
(cycle/fork suppression), flood dedup for FIB control packets, and
host-side duplicate delivery suppression during RP migration.  They all
use this one structure.

Semantics: membership is exact while a uid is inside the window; when an
``add`` pushes the population past ``horizon``, the **oldest half** by
insertion is evicted in one batch (amortized O(1) per add, no per-add
bookkeeping).  A uid that fell out of the window is treated as new again
— bounded memory beats perfect dedup, and the protocols tolerate rare
re-delivery.

Layout: membership is one bit per uid.  A dict maps ``uid >> 6`` to a
64-bit int mask of the uids of that block, and a packed ``array("q")``
log keeps insertion order for eviction.  Uids in one process come from
one counter, so the uids a node sees are dense in their range: after a
Table I backbone pass the 894 windows average ≈13 B a uid (8 B of log,
the rest blocks), where one dict entry a uid cost ≈37 B of table.
Keying blocks by ``uid >> 6`` covers negative uids and the disjoint
``(i + 1) << 48`` uid ranges of shard and live processes alike.
"""

from __future__ import annotations

from array import array
from typing import Dict

__all__ = ["BoundedUidSet", "DEDUP_HORIZON"]

#: Uids remembered per window (replication, flood and host dedup).
DEDUP_HORIZON = 65536

#: ``uid >> _SHIFT`` keys a block of ``1 << _SHIFT`` uids.  Every width
#: from 32 to 256 costs the same ns per ``add``; on the Table I backbone
#: 32 costs 5 MB more peak RSS than 64, and 128 or 256 save 2 MB more but
#: charge a lone uid of a sparse window a 44–60 B mask instead of 36 B.
_SHIFT = 6
_LOW = (1 << _SHIFT) - 1
#: Single-bit masks, so ``add`` allocates no shift result.
_BITS = tuple(1 << i for i in range(1 << _SHIFT))


class BoundedUidSet:
    """Insertion-ordered uid set with oldest-half batch eviction.

    ``add``/``contains`` are one dict probe and one bit test each;
    eviction walks only the log entries it drops.  ``horizon`` is
    mutable: shrinking it simply makes the next ``add`` evict more.
    """

    __slots__ = ("_blocks", "_log", "horizon")

    def __init__(self, horizon: int = DEDUP_HORIZON) -> None:
        if horizon < 1:
            raise ValueError(f"dedup horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self._blocks: Dict[int, int] = {}
        self._log = array("q")

    def add(self, uid: int) -> bool:
        """Record ``uid``; True when it was not already in the window."""
        blocks = self._blocks
        key = uid >> _SHIFT
        bit = _BITS[uid & _LOW]
        mask = blocks.get(key, 0)
        if mask & bit:
            return False
        blocks[key] = mask | bit
        log = self._log
        log.append(uid)
        if len(log) > self.horizon:
            evicted = len(log) // 2
            for old in log[:evicted]:
                key = old >> _SHIFT
                mask = blocks[key] & ~_BITS[old & _LOW]
                if mask:
                    blocks[key] = mask
                else:
                    del blocks[key]
            del log[:evicted]
        return True

    def __contains__(self, uid: int) -> bool:
        return bool(self._blocks.get(uid >> _SHIFT, 0) & _BITS[uid & _LOW])

    def __len__(self) -> int:
        return len(self._log)

    def clear(self) -> None:
        self._blocks.clear()
        del self._log[:]

    def __repr__(self) -> str:
        return f"BoundedUidSet({len(self._log)}/{self.horizon})"
