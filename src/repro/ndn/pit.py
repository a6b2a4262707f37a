"""Pending Interest Table: reverse-path bread crumbs for Data delivery.

The PIT records, per content name, which faces asked for it.  A second
Interest for the same name is *aggregated* (not forwarded again) unless its
nonce was already seen (a loop — dropped).  When Data arrives it consumes
the entry and is sent down every recorded face.  Entries expire after the
Interest lifetime; the NDN gaming baseline's long-lived "next update"
Interests exercise the refresh path heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Dict, Generic, List, Set, TypeVar

from repro.names import Name

__all__ = ["Pit", "PitEntry", "InterestAction"]

F = TypeVar("F")


class InterestAction(Enum):
    """Outcome of inserting an Interest into the PIT."""

    FORWARD = auto()     # new entry: forward upstream
    AGGREGATE = auto()   # existing entry: face recorded, do not forward
    LOOP = auto()        # duplicate nonce: drop


@dataclass
class PitEntry(Generic[F]):
    name: Name
    faces: Set[F] = field(default_factory=set)
    nonces: Set[int] = field(default_factory=set)
    expires_at: float = 0.0


class Pit(Generic[F]):
    """Exact-name pending-interest table with lazy expiry."""

    def __init__(self) -> None:
        self._entries: Dict[Name, PitEntry[F]] = {}
        self.aggregated = 0
        self.loops_dropped = 0
        self.expired = 0

    def insert(
        self,
        name: "Name | str",
        face: F,
        nonce: int,
        now: float,
        lifetime: float,
    ) -> InterestAction:
        """Record an incoming Interest; classify forward/aggregate/loop."""
        name = Name.coerce(name)
        entry = self._entries.get(name)
        if entry is not None and entry.expires_at <= now:
            self._entries.pop(name)
            self.expired += 1
            entry = None
        if entry is None:
            entry = PitEntry(name=name)
            self._entries[name] = entry
            entry.faces.add(face)
            entry.nonces.add(nonce)
            entry.expires_at = now + lifetime
            return InterestAction.FORWARD
        if nonce in entry.nonces:
            self.loops_dropped += 1
            return InterestAction.LOOP
        entry.faces.add(face)
        entry.nonces.add(nonce)
        entry.expires_at = max(entry.expires_at, now + lifetime)
        self.aggregated += 1
        return InterestAction.AGGREGATE

    def satisfy(self, name: "Name | str", now: float) -> List[F]:
        """Consume the entry for ``name``; return the downstream faces.

        Returns an empty list for unsolicited Data (no live entry) — the
        engine drops such Data, per NDN semantics.
        """
        name = Name.coerce(name)
        entry = self._entries.pop(name, None)
        if entry is None:
            return []
        if entry.expires_at <= now:
            self.expired += 1
            return []
        return sorted(entry.faces, key=repr)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, (Name, str)):
            return False
        return Name.coerce(name) in self._entries
