"""Hybrid G-COPSS: incremental deployment over an IP multicast core.

Paper §III-D: COPSS-enabled *edge* routers provide the content-centric
pub/sub interface while unmodified IP routers forward natively.  The
multitude of hierarchical CDs must be mapped onto a limited IP multicast
address space; G-COPSS hashes **high-level** CDs (rather than leaf CDs) so
the mapping tables aggregate and a message to ``/1/1/1`` automatically
reaches subscribers of ``/1/1`` and ``/1``.  Because several CDs share one
IP group, messages also reach edges with no matching subscriber; the
receiver-side edge router filters those out — wasted transmissions are the
price of deployability, measured in Table II.

:class:`HybridMapper` owns the CD -> group mapping, keeps each edge's
state (its exact subscriptions and the IP groups it joined) and
classifies deliveries.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, List, Set, Tuple

from repro.names import Name

__all__ = ["HybridMapper"]


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


class HybridMapper:
    """CD to IP-multicast-group mapping at COPSS edge routers.

    ``num_groups`` models the available IP multicast address space (the
    paper's Table II uses 6 groups for the full trace).  ``hash_depth``
    selects which prefix level is hashed: depth 1 hashes top-level CDs, so
    an entire region (and everything below it) shares one group —
    exactly the aggregation §III-D describes.

    Edges are identified by any hashable key.  Each edge's exact
    subscriptions are its COPSS ST (what locally attached clients asked
    for); its groups are the IP multicast groups it joined to cover them.
    The receiver-side filter (:meth:`edge_wants`) turns over-broad group
    deliveries back into exact pub/sub semantics.
    """

    def __init__(self, num_groups: int, hash_depth: int = 1) -> None:
        if num_groups < 1:
            raise ValueError("need at least one IP multicast group")
        if hash_depth < 0:
            raise ValueError("hash_depth must be >= 0")
        self.num_groups = num_groups
        self.hash_depth = hash_depth
        # Edge key -> its subscriptions / joined groups (same keys).
        self._subscriptions: Dict[Hashable, Set[Name]] = {}
        self._groups: Dict[Hashable, Set[int]] = {}
        self.filtered_deliveries = 0
        self.useful_deliveries = 0

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def group_of(self, cd: "Name | str") -> int:
        """IP multicast group for a CD: hash of its high-level prefix."""
        cd = Name.coerce(cd)
        depth = min(self.hash_depth, cd.depth)
        prefix = cd.slice(depth)
        return _stable_hash(str(prefix)) % self.num_groups

    def groups_for_subscription(self, cd: "Name | str") -> Set[int]:
        """Groups an edge must join to cover a subscription to ``cd``.

        A subscription above the hash depth (say ``/`` with depth-1
        hashing) can match publications whose high-level prefixes hash to
        *any* group, so the edge joins them all.
        """
        cd = Name.coerce(cd)
        if cd.depth >= self.hash_depth:
            return {self.group_of(cd)}
        return set(range(self.num_groups))

    # ------------------------------------------------------------------
    # Edge state
    # ------------------------------------------------------------------
    def subscribe(self, edge: Hashable, cds: Iterable["Name | str"]) -> None:
        """Record subscriptions at an edge and join the needed groups."""
        subscriptions = self._subscriptions.setdefault(edge, set())
        groups = self._groups.setdefault(edge, set())
        for cd in cds:
            cd = Name.coerce(cd)
            subscriptions.add(cd)
            groups.update(self.groups_for_subscription(cd))

    def unsubscribe(self, edge: Hashable, cds: Iterable["Name | str"]) -> None:
        """Drop subscriptions and leave groups no longer needed."""
        subscriptions = self._subscriptions.get(edge)
        if subscriptions is None:
            return
        for cd in cds:
            subscriptions.discard(Name.coerce(cd))
        self._rebuild_groups(edge)

    def _rebuild_groups(self, edge: Hashable) -> None:
        groups: Set[int] = set()
        for cd in self._subscriptions[edge]:
            groups.update(self.groups_for_subscription(cd))
        if groups:
            self._groups[edge] = groups
        else:
            del self._subscriptions[edge]
            self._groups.pop(edge, None)

    def set_subscriptions(self, edge: Hashable, cds: Iterable["Name | str"]) -> None:
        """Replace an edge's subscriptions wholesale (player moved areas)."""
        self._subscriptions[edge] = {Name.coerce(cd) for cd in cds}
        self._rebuild_groups(edge)

    # ------------------------------------------------------------------
    # Delivery classification
    # ------------------------------------------------------------------
    def group_members(self, group: int) -> List[Hashable]:
        """Edges joined to an IP multicast group (sorted, deterministic)."""
        return sorted(
            (e for e, groups in self._groups.items() if group in groups), key=repr
        )

    def edge_wants(self, edge: Hashable, cd: "Name | str") -> bool:
        """Receiver-side filter: does any local subscription match ``cd``?"""
        subscriptions = self._subscriptions.get(edge, ())
        return any(prefix in subscriptions for prefix in Name.coerce(cd).prefixes())

    def deliver(self, cd: "Name | str") -> Tuple[List[Hashable], List[Hashable]]:
        """Classify a publication's group members into (wanted, filtered).

        ``wanted`` edges have a matching subscriber; ``filtered`` edges
        received the packet only because of group sharing and drop it.
        The IP network carried the packet to *both* sets — that is the
        hybrid mode's extra network load.
        """
        cd = Name.coerce(cd)
        members = self.group_members(self.group_of(cd))
        wanted = [e for e in members if self.edge_wants(e, cd)]
        filtered = [e for e in members if not self.edge_wants(e, cd)]
        self.useful_deliveries += len(wanted)
        self.filtered_deliveries += len(filtered)
        return wanted, filtered

    @property
    def waste_ratio(self) -> float:
        total = self.useful_deliveries + self.filtered_deliveries
        return self.filtered_deliveries / total if total else 0.0
