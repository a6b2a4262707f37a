"""Closed-form flow accounting for network-load columns.

Aggregate network load (Table I/II, Fig. 6b) is a pure function of the
routes packets take and their sizes — queueing does not change it.  For
paper-scale traces (1.7M updates) scheduling every hop as a DES event is
wasteful, so the experiment harness computes load with this module:
bytes x links-traversed along shortest paths (unicast) or along the union
of shortest paths from the multicast root to the receivers (core-based
multicast tree, exactly the tree COPSS builds from reverse FIB paths).

The DES network produces identical numbers on the same routes; a test
(`tests/test_flows_vs_des.py`) pins that agreement.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Set, Tuple

import networkx as nx

__all__ = ["FlowAccountant"]

EdgeSet = FrozenSet[Tuple[Hashable, Hashable]]


def _norm_edge(a: Hashable, b: Hashable) -> Tuple[Hashable, Hashable]:
    """Undirected edge key with a deterministic orientation."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


class FlowAccountant:
    """Computes per-message link traversal counts over a weighted graph.

    The graph's edge ``weight`` attribute is the propagation delay in ms
    (as in :class:`repro.sim.network.Network.graph`).  Paths and multicast
    trees are cached: game subscriber sets are stable between player moves,
    so the cache hit rate on real traces is high.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph
        self._paths: Dict[Hashable, Dict[Hashable, List[Hashable]]] = {}
        self._tree_cache: Dict[Tuple[Hashable, FrozenSet[Hashable]], EdgeSet] = {}

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------
    def _paths_from(self, src: Hashable) -> Dict[Hashable, List[Hashable]]:
        """All-destination shortest paths from ``src`` (cached per source)."""
        if src not in self._paths:
            self._paths[src] = nx.single_source_dijkstra_path(
                self.graph, src, weight="weight"
            )
        return self._paths[src]

    def path(self, src: Hashable, dst: Hashable) -> List[Hashable]:
        return self._paths_from(src)[dst]

    def path_delay(self, src: Hashable, dst: Hashable) -> float:
        path = self.path(src, dst)
        return sum(
            self.graph.edges[a, b]["weight"] for a, b in zip(path, path[1:])
        )

    def hop_count(self, src: Hashable, dst: Hashable) -> int:
        return len(self.path(src, dst)) - 1

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def unicast_bytes(self, src: Hashable, dst: Hashable, nbytes: int) -> int:
        """Bytes x links for one unicast message."""
        if src == dst:
            return 0
        return self.hop_count(src, dst) * nbytes

    def multicast_tree(self, root: Hashable, receivers: Iterable[Hashable]) -> EdgeSet:
        """Edge set of the shortest-path tree from ``root`` to ``receivers``.

        This is the core-based tree COPSS forms: every subscriber's
        Subscribe walks the FIB shortest path toward the RP, and the union
        of reverse paths is the dissemination tree.
        """
        key = (root, frozenset(receivers))
        cached = self._tree_cache.get(key)
        if cached is not None:
            return cached
        edges: Set[Tuple[Hashable, Hashable]] = set()
        paths = self._paths_from(root)
        for receiver in key[1]:
            if receiver == root:
                continue
            path = paths[receiver]
            for a, b in zip(path, path[1:]):
                edges.add(_norm_edge(a, b))
        frozen: EdgeSet = frozenset(edges)
        self._tree_cache[key] = frozen
        return frozen

    def multicast_bytes(
        self, root: Hashable, receivers: Iterable[Hashable], nbytes: int
    ) -> int:
        """Bytes x links for one multicast message over the core-based tree."""
        return len(self.multicast_tree(root, receivers)) * nbytes

    def multicast_delay(
        self, root: Hashable, receivers: Iterable[Hashable]
    ) -> Dict[Hashable, float]:
        """Propagation delay from the root to each receiver over the tree."""
        return {r: self.path_delay(root, r) for r in receivers if r != root}
