"""Forwarding Information Base with longest-prefix matching.

The FIB maps name prefixes to sets of outgoing faces.  G-COPSS control
packets (``FIB add/remove``) manipulate these entries directly (paper
§III-C), so mutation is part of the public surface, not just route
installation at startup.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Set, Tuple, TypeVar

from repro.names import Name

__all__ = ["Fib"]

F = TypeVar("F")  # face handle type: Face objects in DES, node names in flow mode


class Fib(Generic[F]):
    """Prefix table with longest-prefix-match lookup.

    Stored as a flat dict keyed by prefix; LPM walks the query name's
    prefixes longest-first, bounded by the deepest installed prefix, so a
    lookup is O(min(len(name), max_depth)) dict probes.
    """

    def __init__(self) -> None:
        self._entries: Dict[Name, Set[F]] = {}
        self._max_depth = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, prefix: "Name | str", face: F) -> None:
        prefix = Name.coerce(prefix)
        self._entries.setdefault(prefix, set()).add(face)
        if prefix.depth > self._max_depth:
            self._max_depth = prefix.depth

    def remove(self, prefix: "Name | str", face: F) -> None:
        """Remove one face from a prefix entry; drop the entry when empty.

        Raises ``KeyError`` if the (prefix, face) pair is not present, so
        protocol bugs that double-remove are surfaced instead of ignored.
        """
        prefix = Name.coerce(prefix)
        faces = self._entries.get(prefix)
        if faces is None or face not in faces:
            raise KeyError(f"no FIB entry for ({prefix}, {face})")
        faces.discard(face)
        if not faces:
            del self._entries[prefix]

    def remove_prefix(self, prefix: "Name | str") -> None:
        """Drop an entire prefix entry (used during RP migration)."""
        prefix = Name.coerce(prefix)
        self._entries.pop(prefix, None)

    def clear(self) -> None:
        self._entries.clear()
        self._max_depth = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def longest_prefix_match(self, name: "Name | str") -> Optional[Tuple[Name, Set[F]]]:
        """The deepest installed prefix of ``name`` and its faces, if any."""
        name = Name.coerce(name)
        limit = min(name.depth, self._max_depth)
        for depth in range(limit, -1, -1):
            prefix = name.slice(depth)
            faces = self._entries.get(prefix)
            if faces:
                return prefix, faces
        return None

    def lookup(self, name: "Name | str") -> Set[F]:
        """Faces of the longest matching prefix (empty set when no match)."""
        match = self.longest_prefix_match(name)
        return set(match[1]) if match else set()

    def has_prefix(self, prefix: "Name | str") -> bool:
        return Name.coerce(prefix) in self._entries

    def entries_under(self, name: "Name | str") -> Dict[Name, Set[F]]:
        """All stored prefixes that lie strictly under ``name``.

        A COPSS subscription to an aggregate CD (say ``/1``) must reach
        every RP whose served prefix descends from it (``/1/1`` ... ``/1/5``
        when the RP set is finer than the subscription); this query finds
        those routes.
        """
        name = Name.coerce(name)
        return {
            prefix: set(faces)
            for prefix, faces in self._entries.items()
            if name.is_strict_prefix_of(prefix)
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Name, Set[F]]]:
        for prefix in sorted(self._entries):
            yield prefix, set(self._entries[prefix])

    def __repr__(self) -> str:
        return f"Fib({len(self._entries)} prefixes)"
