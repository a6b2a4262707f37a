"""The initial prefix-free Rendezvous Point layout.

Paper §III-B: RPs are *prefix-free* — each CD prefix is served by exactly
one RP, and no served prefix is a prefix of another served prefix.  A
Multicast packet for CD ``c`` therefore has a unique responsible RP: the
one serving the (single) served prefix of ``c``.

:class:`RpTable` is the prefix -> RP-name layout a world is built from:
:class:`~repro.core.engine.GCopssNetworkBuilder` installs it into the
routers, and the flow and capacity models read it.  It enforces the
prefix-free invariant on every assignment.  Runtime ownership lives in
the routers themselves — :class:`~repro.core.roles.RpRole`,
:class:`~repro.core.roles.RelayRole` and each router's ``cd_routes`` —
and a split moves it by
:meth:`~repro.core.planes.ControlPlane.initiate_handoff`'s three-stage
handover, not through this table.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.names import Name

__all__ = ["RpTable"]


class RpTable:
    """Mapping from prefix-free CD prefixes to RP node names."""

    def __init__(self) -> None:
        self._by_prefix: Dict[Name, str] = {}

    def assign(self, prefix: "Name | str", rp: str) -> None:
        """Assign ``prefix`` to RP ``rp``, enforcing prefix-freeness.

        Re-assigning an existing prefix to another RP is allowed; adding a
        prefix that nests with a *different* existing prefix is a protocol
        error.
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

    def all_rps(self) -> Set[str]:
        return set(self._by_prefix.values())

    def __len__(self) -> int:
        return len(self._by_prefix)

    def __iter__(self) -> Iterator[Tuple[Name, str]]:
        return iter(sorted(self._by_prefix.items()))

    def __repr__(self) -> str:
        return f"RpTable({len(self._by_prefix)} prefixes, {len(self.all_rps())} RPs)"
