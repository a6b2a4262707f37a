"""Topology partitioning for the sharded executor.

The paper's own structure gives the partition: every CD is anchored at a
rendezvous point, so the multicast trees are RP-rooted and traffic
clusters around RPs (§IV).  Cutting the topology into RP/region-anchored
shards therefore cuts few tree edges — the same shard-by-rendezvous idea
as Rendezvous Regions and the region-sharded game-event simulators.

A :class:`ShardPlan` is pure data — node name to shard index — produced
either from explicit anchors (:func:`partition_by_anchors`: every node
joins its delay-nearest anchor, ties to the lowest anchor index) or from
the installed RP layout (:func:`partition_by_rp`: the anchors are the
routers holding RP prefixes).  The plan is fixed for the lifetime of a
run: determinism requires that shard assignment never depends on runtime
load.

The two graph searches behind a plan — :func:`nearest_anchor` and
:func:`min_cut_delay` — read a plain ``(a, b, delay)`` link list, so a
built :class:`~repro.sim.network.Network`
(:func:`network_links`) and a topology known only as a table (the scale
scenario's spec, :mod:`repro.parallel.slicing`) run the same code.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Link, Network

__all__ = [
    "ShardPlan",
    "network_links",
    "nearest_anchor",
    "min_cut_delay",
    "partition_by_anchors",
    "partition_by_rp",
]

#: ``(a, b, delay)`` — one undirected link between two named nodes.
LinkRow = Tuple[str, str, float]

_INF = float("inf")


def network_links(network: "Network") -> List[LinkRow]:
    """A built network's links as ``(a, b, delay)`` rows, in creation order."""
    return [
        (link._ends[0][0].name, link._ends[1][0].name, link.delay)
        for link in network.links
    ]


def nearest_anchor(links: Iterable[LinkRow], anchors: Sequence[str]) -> Dict[str, int]:
    """Node name → index of its delay-nearest anchor, lowest index on ties.

    A multi-source Dijkstra over the delay-weighted links.  Heap entries
    are ``(distance, anchor_index, node)``, so heap order itself
    implements the tie-break — a node is claimed by the first (smallest)
    entry that reaches it — and the result is a pure function of (links,
    anchor order), never of dict iteration or runtime state.  Nodes no
    anchor reaches are absent from the result.
    """
    adjacency: Dict[str, List[Tuple[str, float]]] = {}
    for a, b, delay in links:
        adjacency.setdefault(a, []).append((b, delay))
        adjacency.setdefault(b, []).append((a, delay))
    best: Dict[str, Tuple[float, int]] = {}
    heap: List[Tuple[float, int, str]] = [
        (0.0, i, name) for i, name in enumerate(anchors)
    ]
    heapq.heapify(heap)
    while heap:
        dist, anchor, node = heapq.heappop(heap)
        seen = best.get(node)
        if seen is not None and seen <= (dist, anchor):
            continue
        best[node] = (dist, anchor)
        for neighbor, weight in adjacency.get(node, ()):
            candidate = (dist + weight, anchor)
            if neighbor not in best or candidate < best[neighbor]:
                heapq.heappush(heap, (dist + weight, anchor, neighbor))
    return {node: anchor for node, (_dist, anchor) in best.items()}


def min_cut_delay(links: Iterable[LinkRow], assignment: Dict[str, int]) -> float:
    """Conservative synchronization window: min cross-shard link delay.

    Any event in window ``[T, T+W)`` can influence another shard no
    earlier than ``T+W``, so shards run windows of width W independently
    and exchange transit packets at the barriers.  Returns ``inf`` when
    no link crosses a shard boundary (the shards are fully independent).
    A zero-delay boundary link would force zero lookahead — reject it.
    """
    lookahead = _INF
    for a, b, delay in links:
        if assignment[a] == assignment[b]:
            continue
        if delay <= 0.0:
            raise ValueError(
                f"boundary link {a}<->{b} has zero delay; conservative "
                "synchronization needs positive cross-shard latency "
                "(repartition so the link is shard-internal)"
            )
        if delay < lookahead:
            lookahead = delay
    return lookahead


@dataclass(frozen=True)
class ShardPlan:
    """Fixed node-name → shard-index assignment.

    ``anchors`` records how the plan was derived (anchor i seeds shard i)
    — informational, but also the hook for shard-aware role placement
    (:meth:`annotate_roles`).
    """

    assignment: Dict[str, int]
    num_shards: int
    anchors: Tuple[str, ...] = ()

    def shard_of(self, node_name: str) -> int:
        return self.assignment[node_name]

    def members(self, shard: int) -> List[str]:
        return sorted(n for n, s in self.assignment.items() if s == shard)

    def validate(self, network: "Network") -> None:
        """Every node assigned, every shard index in range and non-empty."""
        missing = set(network.nodes) - set(self.assignment)
        if missing:
            raise ValueError(f"plan misses nodes: {sorted(missing)[:5]}")
        extra = set(self.assignment) - set(network.nodes)
        if extra:
            raise ValueError(f"plan names unknown nodes: {sorted(extra)[:5]}")
        used = set(self.assignment.values())
        if not used <= set(range(self.num_shards)):
            raise ValueError(
                f"shard indices {sorted(used)} out of range 0..{self.num_shards - 1}"
            )

    def boundary_links(self, network: "Network") -> List["Link"]:
        """Links whose endpoints live in different shards."""
        cut = []
        for link in network.links:
            (a, _), (b, _) = link._ends
            if self.assignment[a.name] != self.assignment[b.name]:
                cut.append(link)
        return cut

    def lookahead_ms(self, network: "Network") -> float:
        """:func:`min_cut_delay` of this plan over ``network``'s links."""
        return min_cut_delay(network_links(network), self.assignment)

    def annotate_roles(self, network: "Network") -> None:
        """Stamp shard ownership onto every attached role.

        Purely informational — forwarding behavior never consults it —
        but it surfaces in each role's ``telemetry()`` block so operators
        can see when an RP serves subscribers predominantly outside its
        own shard (a repartitioning hint).
        """
        for node in network.nodes.values():
            shard = self.assignment[node.name]
            for role in node.roles.values():
                role.shard = shard


def partition_by_anchors(
    network: "Network", anchors: Sequence[str]
) -> ShardPlan:
    """Assign every node to its delay-nearest anchor (shard i = anchor i).

    See :func:`nearest_anchor` for the search and its tie-break.
    """
    if not anchors:
        raise ValueError("need at least one anchor")
    if len(set(anchors)) != len(anchors):
        raise ValueError(f"duplicate anchors: {list(anchors)}")
    for name in anchors:
        if name not in network.nodes:
            raise KeyError(f"anchor {name!r} is not in the network")
    assignment = nearest_anchor(network_links(network), anchors)
    unreachable = set(network.nodes) - set(assignment)
    if unreachable:
        raise ValueError(
            f"nodes unreachable from every anchor: {sorted(unreachable)[:5]}"
        )
    return ShardPlan(
        assignment=assignment, num_shards=len(anchors), anchors=tuple(anchors)
    )


def partition_by_rp(
    network: "Network", max_shards: Optional[int] = None
) -> ShardPlan:
    """Derive the partition from the installed RP layout.

    The anchors are the routers currently holding RP prefixes (the
    :class:`~repro.core.roles.RpRole` state the
    :class:`~repro.core.engine.GCopssNetworkBuilder` populated), in name
    order; ``max_shards`` caps how many become shard seeds (the rest of
    the topology folds into the nearest seed).  This is the "shard by
    rendezvous" rule: each RP's multicast trees are rooted at its anchor,
    so most tree edges stay shard-internal.
    """
    rp_sites = sorted(
        node.name
        for node in network.nodes.values()
        if getattr(node, "rp_prefixes", None)
    )
    if not rp_sites:
        raise ValueError(
            "no RP prefixes installed; run the network builder first or "
            "use partition_by_anchors with explicit anchors"
        )
    if max_shards is not None:
        rp_sites = rp_sites[:max_shards]
    return partition_by_anchors(network, rp_sites)
