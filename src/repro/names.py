"""Hierarchical names shared by NDN ContentNames and COPSS Content Descriptors.

Both NDN names (``/snapshot/1/3``) and G-COPSS Content Descriptors
(``/1/2``) are slash-separated component hierarchies.  :class:`Name` is an
immutable value type providing the prefix algebra both layers need:
component access, parent/child navigation, prefix tests and enumeration of
all prefixes (used for hierarchical Bloom-filter matching and longest-prefix
FIB lookups).
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Sequence

__all__ = ["Name", "ROOT", "register_intern_dependent"]

#: Bounded intern table for parsed names (text form -> instance).  A game's
#: CD universe is small and static, so in practice every hot name is a hit;
#: the bound only guards pathological workloads with unbounded name churn.
_INTERNED: "dict[str, Name]" = {}
_INTERN_LIMIT = 1 << 16
#: Caches held elsewhere whose values are interned instances (the wire
#: codec's bytes -> Name table).  Cleared whenever the intern table evicts,
#: so they never hand out an instance :meth:`Name.parse` no longer returns —
#: and, holding only interned names, they inherit the table's bound.
_INTERN_DEPENDENTS: "list[dict]" = []


def register_intern_dependent(cache: dict) -> None:
    """Have ``cache`` cleared whenever the intern table evicts."""
    _INTERN_DEPENDENTS.append(cache)


@total_ordering
class Name:
    """An immutable hierarchical name: an ordered tuple of string components.

    The canonical text form is ``/`` for the root (empty) name and
    ``/a/b/c`` otherwise.  Components may not contain ``/`` and may not be
    empty.  Names are hashable and totally ordered (lexicographically on
    their component tuples), which makes them usable as dict keys and keeps
    data structures deterministic.
    """

    __slots__ = ("_components", "_hash", "_str", "_prefixes", "_derived")

    def __init__(self, components: Iterable[str] = ()) -> None:
        comps = tuple(str(c) for c in components)
        for comp in comps:
            if not comp:
                raise ValueError("name components must be non-empty")
            if "/" in comp:
                raise ValueError(f"name component may not contain '/': {comp!r}")
        self._components = comps
        self._hash = hash(comps)
        # Lazily computed caches: names are immutable and hot on the
        # forwarding path (every ST lookup walks the prefix chain), so the
        # canonical string and the prefix tuple are computed at most once.
        self._str: str | None = None
        self._prefixes: "tuple[Name, ...] | None" = None
        self._derived: "dict | None" = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Name":
        """Parse the canonical slash-separated text form.

        ``/`` and the empty string both denote the root name.  Redundant
        slashes are rejected rather than silently collapsed so that
        malformed packet fields are detected early.

        Parsed names are interned in a bounded cache: packet fields and
        trace events re-parse the same small CD universe constantly, and
        returning the same instance lets the per-instance caches
        (:meth:`prefixes`, :meth:`derived_cache`) pay off across packets.
        """
        if text in ("", "/"):
            return ROOT
        if cls is Name:
            cached = _INTERNED.get(text)
            if cached is not None:
                return cached
        if not text.startswith("/"):
            raise ValueError(f"name must start with '/': {text!r}")
        body = text[1:]
        if body.endswith("/"):
            raise ValueError(f"name may not end with '/': {text!r}")
        parts = body.split("/")
        if any(not part for part in parts):
            raise ValueError(f"name contains empty component: {text!r}")
        name = cls(parts)
        if cls is Name:
            if len(_INTERNED) >= _INTERN_LIMIT:
                # Evict the oldest half (dicts iterate in insertion order);
                # the live CD universe re-interns on next parse.
                for stale in list(_INTERNED)[: _INTERN_LIMIT // 2]:
                    del _INTERNED[stale]
                for cache in _INTERN_DEPENDENTS:
                    cache.clear()
            _INTERNED[text] = name
        return name

    @classmethod
    def coerce(cls, value: "Name | str | Sequence[str]") -> "Name":
        """Return ``value`` as a :class:`Name`, parsing strings."""
        if isinstance(value, Name):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def components(self) -> tuple[str, ...]:
        return self._components

    def __len__(self) -> int:
        return len(self._components)

    def __bool__(self) -> bool:
        # The root name is still a meaningful name; keep truthiness tied to
        # "has components" but warn implementers via the docstring that
        # ``if name`` tests for non-root.
        return bool(self._components)

    def __getitem__(self, index: int) -> str:
        return self._components[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._components)

    @property
    def is_root(self) -> bool:
        return not self._components

    @property
    def depth(self) -> int:
        """Number of components (the root has depth 0)."""
        return len(self._components)

    @property
    def leaf(self) -> str:
        """The final component."""
        if not self._components:
            raise ValueError("the root name has no leaf component")
        return self._components[-1]

    # ------------------------------------------------------------------
    # Hierarchy algebra
    # ------------------------------------------------------------------
    def child(self, component: str) -> "Name":
        """Return this name extended by one component."""
        return Name(self._components + (str(component),))

    def __truediv__(self, component: str) -> "Name":
        return self.child(component)

    def append(self, other: "Name | str | Sequence[str]") -> "Name":
        """Return this name extended by all components of ``other``."""
        other = Name.coerce(other)
        return Name(self._components + other._components)

    @property
    def parent(self) -> "Name":
        """The name with the final component removed."""
        if not self._components:
            raise ValueError("the root name has no parent")
        return Name(self._components[:-1])

    def is_prefix_of(self, other: "Name") -> bool:
        """True if ``self`` is a (non-strict) prefix of ``other``."""
        if len(self._components) > len(other._components):
            return False
        return other._components[: len(self._components)] == self._components

    def is_strict_prefix_of(self, other: "Name") -> bool:
        return len(self) < len(other) and self.is_prefix_of(other)

    def has_prefix(self, prefix: "Name") -> bool:
        return prefix.is_prefix_of(self)

    def prefixes(self, include_root: bool = True) -> "tuple[Name, ...]":
        """Every prefix of this name from the root down to itself.

        Hierarchical COPSS matching checks a packet's CD against the Bloom
        filter at every level; the result is cached on the (immutable)
        name because the forwarding fast path calls this per hop.
        """
        if self._prefixes is None:
            self._prefixes = tuple(
                Name(self._components[:length])
                for length in range(len(self._components))
            ) + (self,)
        return self._prefixes if include_root else self._prefixes[1:]

    def derived_cache(self) -> dict:
        """Per-instance memo for data derived from this (immutable) name.

        Used by :mod:`repro.core.bloom` to pin each name's Bloom bit
        positions per ``(num_bits, num_hashes)`` geometry: a CD's indexes
        are then computed once for the lifetime of the run rather than
        re-derived (or re-probed through a string-keyed cache) per hop.
        """
        cache = self._derived
        if cache is None:
            cache = self._derived = {}
        return cache

    def ancestors(self) -> Iterator["Name"]:
        """Yield strict prefixes, shortest first (root included)."""
        for length in range(len(self._components)):
            yield Name(self._components[:length])

    def slice(self, stop: int) -> "Name":
        """Return the prefix consisting of the first ``stop`` components."""
        if stop < 0 or stop > len(self._components):
            raise IndexError(f"prefix length {stop} out of range for {self}")
        return Name(self._components[:stop])

    def relative_to(self, prefix: "Name") -> "Name":
        """Return the suffix of this name under ``prefix``.

        Raises ``ValueError`` if ``prefix`` is not actually a prefix.
        """
        if not prefix.is_prefix_of(self):
            raise ValueError(f"{prefix} is not a prefix of {self}")
        return Name(self._components[len(prefix):])

    def common_prefix(self, other: "Name") -> "Name":
        """Longest shared prefix of the two names."""
        shared = []
        for mine, theirs in zip(self._components, other._components):
            if mine != theirs:
                break
            shared.append(mine)
        return Name(shared)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._components == other._components

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._components < other._components

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self._str is None:
            if not self._components:
                self._str = "/"
            else:
                self._str = "/" + "/".join(self._components)
        return self._str

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"


#: The root name ``/``.
ROOT = Name()
