"""Content Store: the router's opportunistic content cache.

Exact-name LRU cache with per-object freshness aging.  In the gaming
workload cached updates go stale almost immediately (the paper: "the cache
ages out quickly in a gaming scenario" — a snapshot packet reaches no more
than ~3 clients from cache), which is why the QR snapshot mode consumes far
more network traffic than cyclic multicast in Table III.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.names import Name
from repro.ndn.packets import Data

__all__ = ["ContentStore"]


class ContentStore:
    """LRU + freshness-bounded exact-match cache of Data packets."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._store: "OrderedDict[Name, tuple[Data, float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def insert(self, data: Data, now: float) -> None:
        """Cache ``data``; refreshes LRU position on re-insertion."""
        if self.capacity == 0:
            return
        name = data.name
        if name in self._store:
            self._store.pop(name)
        self._store[name] = (data, now + data.freshness)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def match(self, name: "Name | str", now: float) -> Optional[Data]:
        """Return fresh cached Data for ``name`` (exact match), else None."""
        name = Name.coerce(name)
        entry = self._store.get(name)
        if entry is None:
            self.misses += 1
            return None
        data, expires_at = entry
        if expires_at <= now:
            del self._store[name]
            self.misses += 1
            return None
        self._store.move_to_end(name)
        self.hits += 1
        return data

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, (Name, str)):
            return False
        return Name.coerce(name) in self._store

