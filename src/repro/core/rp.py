"""Prefix-free Rendezvous Point tables.

Paper §III-B: RPs are *prefix-free* — each CD prefix is served by exactly
one RP, and no served prefix is a prefix of another served prefix.  A
Multicast packet for CD ``c`` therefore has a unique responsible RP: the
one serving the (single) served prefix of ``c``.  A subscription to an
aggregate like ``/1`` may however fan out to several RPs (all those whose
served prefix lies under ``/1``).

:class:`RpTable` maintains the prefix -> RP-name mapping, enforces the
prefix-free invariant on every mutation, and implements the split
operation the load balancer uses (move a subset of prefixes, or refine a
prefix into its children before moving some of them).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.names import Name

__all__ = ["RpTable"]


class RpTable:
    """Mapping from prefix-free CD prefixes to RP node names."""

    def __init__(self) -> None:
        self._by_prefix: Dict[Name, str] = {}
        self.version = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, prefix: "Name | str", rp: str) -> None:
        """Assign ``prefix`` to RP ``rp``, enforcing prefix-freeness.

        Re-assigning an existing prefix to another RP is allowed (that is
        what a handoff does); adding a prefix that nests with a *different*
        existing prefix is a protocol error.
        """
        prefix = Name.coerce(prefix)
        for existing in self._by_prefix:
            if existing == prefix:
                continue
            if existing.is_prefix_of(prefix) or prefix.is_prefix_of(existing):
                raise ValueError(
                    f"{prefix} nests with already-served prefix {existing}"
                    " (RP set must be prefix-free)"
                )
        self._by_prefix[prefix] = rp
        self.version += 1

    def withdraw(self, prefix: "Name | str") -> str:
        """Remove a served prefix; returns the RP that served it."""
        prefix = Name.coerce(prefix)
        if prefix not in self._by_prefix:
            raise KeyError(f"{prefix} is not a served prefix")
        rp = self._by_prefix.pop(prefix)
        self.version += 1
        return rp

    def refine(self, prefix: "Name | str", children: Iterable["Name | str"]) -> None:
        """Replace ``prefix`` by a set of child prefixes under the same RP.

        The split operation needs finer granularity than the currently
        served prefixes (an RP serving only ``/`` must refine before it can
        shed half the map).  ``children`` must all lie strictly under
        ``prefix``, be mutually prefix-free, and (for no-loss coverage)
        should cover the CD space of ``prefix`` — coverage is the caller's
        responsibility because only the hierarchy knows the fan-out.
        """
        prefix = Name.coerce(prefix)
        rp = self._by_prefix.get(prefix)
        if rp is None:
            raise KeyError(f"{prefix} is not a served prefix")
        kids = [Name.coerce(c) for c in children]
        if not kids:
            raise ValueError("refine needs at least one child prefix")
        for kid in kids:
            if not prefix.is_strict_prefix_of(kid):
                raise ValueError(f"{kid} does not lie strictly under {prefix}")
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                if a.is_prefix_of(b) or b.is_prefix_of(a):
                    raise ValueError(f"child prefixes nest: {a} / {b}")
        del self._by_prefix[prefix]
        for kid in kids:
            self._by_prefix[kid] = rp
        self.version += 1

    def coalesce(self, children: Iterable["Name | str"], parent: "Name | str") -> None:
        """Replace child prefixes by their common ``parent`` (inverse of refine).

        All named children must be served, by the *same* RP (a merge first
        re-homes them with :meth:`move`), and lie strictly under ``parent``;
        the children must be the complete set of served prefixes under
        ``parent`` or the coalesced table would claim CD space someone else
        still serves.  Federation scale-in uses this to fold a drained
        member's shards back into one region-level entry.
        """
        parent = Name.coerce(parent)
        kids = [Name.coerce(c) for c in children]
        if not kids:
            raise ValueError("coalesce needs at least one child prefix")
        owners = set()
        for kid in kids:
            if not parent.is_strict_prefix_of(kid):
                raise ValueError(f"{kid} does not lie strictly under {parent}")
            if kid not in self._by_prefix:
                raise KeyError(f"{kid} is not a served prefix")
            owners.add(self._by_prefix[kid])
        if len(owners) != 1:
            raise ValueError(
                f"children of {parent} are served by {sorted(owners)};"
                " move them to one RP before coalescing"
            )
        remainder = [
            p for p in self._by_prefix
            if parent.is_strict_prefix_of(p) and p not in set(kids)
        ]
        if remainder:
            raise ValueError(
                f"served prefixes {sorted(remainder)} under {parent}"
                " are not part of the coalesce"
            )
        for kid in kids:
            del self._by_prefix[kid]
        self._by_prefix[parent] = owners.pop()
        self.version += 1

    def move(self, prefixes: Iterable["Name | str"], new_rp: str) -> None:
        """Re-home already-served prefixes to ``new_rp`` (handoff stage)."""
        names = [Name.coerce(p) for p in prefixes]
        for prefix in names:
            if prefix not in self._by_prefix:
                raise KeyError(f"{prefix} is not a served prefix")
        for prefix in names:
            self._by_prefix[prefix] = new_rp
        self.version += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def rp_for(self, cd: "Name | str") -> str:
        """The unique RP responsible for publishing to ``cd``.

        Prefix-freeness guarantees at most one served prefix of ``cd``;
        a missing match means the table does not cover the CD space.
        """
        cd = Name.coerce(cd)
        for prefix in cd.prefixes():
            rp = self._by_prefix.get(prefix)
            if rp is not None:
                return rp
        raise KeyError(f"no RP serves {cd}; table does not cover the CD space")

    def serving_prefix_of(self, cd: "Name | str") -> Name:
        cd = Name.coerce(cd)
        for prefix in cd.prefixes():
            if prefix in self._by_prefix:
                return prefix
        raise KeyError(f"no served prefix covers {cd}")

    def rps_under(self, cd: "Name | str") -> Dict[Name, str]:
        """Served prefixes relevant to a *subscription* to ``cd``.

        Either the one prefix covering ``cd`` from above, or every served
        prefix lying under ``cd`` (aggregated subscriptions span RPs).
        """
        cd = Name.coerce(cd)
        for prefix in cd.prefixes():
            if prefix in self._by_prefix:
                return {prefix: self._by_prefix[prefix]}
        return {
            prefix: rp
            for prefix, rp in self._by_prefix.items()
            if cd.is_strict_prefix_of(prefix)
        }

    def rps_for_subscription(self, cd: "Name | str") -> Set[str]:
        return set(self.rps_under(cd).values())

    def prefixes_of(self, rp: str) -> List[Name]:
        return sorted(p for p, r in self._by_prefix.items() if r == rp)

    def all_rps(self) -> Set[str]:
        return set(self._by_prefix.values())

    def covers(self, cd: "Name | str") -> bool:
        try:
            self.rp_for(cd)
            return True
        except KeyError:
            return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_prefix)

    def __iter__(self) -> Iterator[Tuple[Name, str]]:
        return iter(sorted(self._by_prefix.items()))

    def snapshot(self) -> Dict[Name, str]:
        return dict(self._by_prefix)

    def __repr__(self) -> str:
        return f"RpTable({len(self._by_prefix)} prefixes, {len(self.all_rps())} RPs)"
