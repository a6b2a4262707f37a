"""Unicast next hops: one function, run once at build time.

Every forwarding node keeps its own table — :attr:`Node.routes
<repro.sim.network.Node.routes>`, destination name → local face — and
every run-time lookup reads it.  The table comes from
:func:`next_hop_table` over an ``(a, b, delay)`` edge list: a built
network's own links (:func:`network_next_hops`), or a spec's whole edge
list when a process holds only a slice of the world.

The rule: from ``r`` toward ``dst``, the neighbour ``m`` minimising
``(dist_dst(m) + delay(r, m), rank(m))`` — never link order or heap
internals, so the table is a pure function of the edges and the ranks.
With positive delays every chain strictly decreases ``dist_dst``, so
routes are loop-free.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Network

__all__ = [
    "LinkRow",
    "adjacency_of",
    "network_links",
    "network_ranks",
    "next_hop_table",
    "network_next_hops",
]

#: ``(a, b, delay)`` — one undirected link between two named nodes.
LinkRow = Tuple[str, str, float]

Adjacency = Dict[str, List[Tuple[str, float]]]


def adjacency_of(links: Iterable[LinkRow]) -> Adjacency:
    """Undirected ``node -> [(neighbour, delay)]``, neighbours in link order."""
    adjacency: Adjacency = {}
    for a, b, delay in links:
        adjacency.setdefault(a, []).append((b, delay))
        adjacency.setdefault(b, []).append((a, delay))
    return adjacency


def network_links(network: "Network") -> List[LinkRow]:
    """A built network's links as ``(a, b, delay)`` rows, in creation order."""
    return [
        (link._ends[0][0].name, link._ends[1][0].name, link.delay)
        for link in network.links
    ]


def network_ranks(network: "Network") -> Dict[str, int]:
    """A built network's node ranks, the tie-break of :func:`next_hop_table`."""
    return {name: node.rank for name, node in network.nodes.items()}


def _distances(adjacency: Adjacency, source: str) -> Dict[str, float]:
    """Delay-weighted distance from ``source`` to every node it reaches."""
    dist: Dict[str, float] = {}
    heap: List[Tuple[float, str]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for neighbour, delay in adjacency[node]:
            if neighbour not in dist:
                heapq.heappush(heap, (d + delay, neighbour))
    return dist


def next_hop_table(
    links: Iterable[LinkRow], ranks: Dict[str, int], destinations: Iterable[str]
) -> Dict[str, Dict[str, str]]:
    """``{node: {dst: neighbour}}`` for every node of ``links``.

    One entry per ``dst`` in ``destinations`` the node reaches: none
    toward itself, nor toward anything unreachable or absent.
    """
    adjacency = adjacency_of(links)
    table: Dict[str, Dict[str, str]] = {node: {} for node in adjacency}
    for dst in destinations:
        if dst not in adjacency:
            continue
        dist = _distances(adjacency, dst)

        def key(neighbour: Tuple[str, float]) -> Tuple[float, int]:
            return dist[neighbour[0]] + neighbour[1], ranks[neighbour[0]]

        for node, nbrs in adjacency.items():
            if node != dst and node in dist:
                hop = nbrs[0][0] if len(nbrs) == 1 else min(nbrs, key=key)[0]
                table[node][dst] = hop
    return table


def network_next_hops(
    network: "Network", destinations: Iterable[str]
) -> Dict[str, Dict[str, str]]:
    """:func:`next_hop_table` over a built network's links and node ranks."""
    return next_hop_table(network_links(network), network_ranks(network), destinations)
