"""Closed-form flow accounting for network-load columns.

Aggregate network load (Table I/II, Fig. 6b) is a pure function of the
routes packets take and their sizes — queueing does not change it.  For
paper-scale traces (1.7M updates) scheduling every hop as a DES event is
wasteful, so the experiment harness computes load with this module:
bytes x links along the unicast route, or along the union of every
receiver's route toward the multicast root (core-based multicast tree,
exactly the tree COPSS builds from reverse FIB paths).

Routes are the ones the DES forwarders take: each is a walk of the
:func:`repro.sim.routing.next_hop_table` column for its destination.
``tests/test_flowrun.py::TestDesAgreement`` compares flow and DES runs on
the same backbone: IP server load is equal, G-COPSS load agrees within
1 % (flow mode leaves out the copy the DES echoes to the publisher).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

from repro.sim.routing import LinkRow, next_hop_table

__all__ = ["FlowAccountant"]

EdgeSet = FrozenSet[Tuple[str, str]]


def _norm_edge(a: str, b: str) -> Tuple[str, str]:
    """Undirected edge key with a deterministic orientation."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


class FlowAccountant:
    """Hop counts, path delays and multicast trees over a link list.

    ``links`` are ``(a, b, delay_ms)`` rows and ``ranks`` the node ranks,
    as :func:`~repro.sim.routing.network_links` and
    :func:`~repro.sim.routing.network_ranks` give them for a built
    network.  One next-hop column is computed per destination when first
    asked for; walks and multicast trees are cached too, since game
    subscriber sets are stable between player moves.
    """

    def __init__(self, links: Sequence[LinkRow], ranks: Dict[str, int]) -> None:
        self._links = list(links)
        self._ranks = ranks
        # A route's hop uses the first link toward the neighbour, as
        # Node.face_toward does.
        self._delay: Dict[Tuple[str, str], float] = {}
        for a, b, delay in self._links:
            self._delay.setdefault((a, b), delay)
            self._delay.setdefault((b, a), delay)
        self._columns: Dict[str, Dict[str, str]] = {}
        self._paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._tree_cache: Dict[Tuple[str, FrozenSet[str]], EdgeSet] = {}

    def path(self, src: str, dst: str) -> Tuple[str, ...]:
        """Nodes from ``src`` to ``dst`` along the next-hop column of ``dst``."""
        path = self._paths.get((src, dst))
        if path is not None:
            return path
        column = self._columns.get(dst)
        if column is None:
            table = next_hop_table(self._links, self._ranks, [dst])
            column = {node: hops[dst] for node, hops in table.items() if hops}
            self._columns[dst] = column
        walk = [src]
        while walk[-1] != dst:
            walk.append(column[walk[-1]])
        path = self._paths[src, dst] = tuple(walk)
        return path

    def path_delay(self, src: str, dst: str) -> float:
        """Link delays summed in ``src`` → ``dst`` order."""
        path = self.path(src, dst)
        return sum(self._delay[a, b] for a, b in zip(path, path[1:]))

    def hop_count(self, src: str, dst: str) -> int:
        return len(self.path(src, dst)) - 1

    def multicast_tree(self, root: str, receivers: Iterable[str]) -> EdgeSet:
        """Edge set of the tree from ``root`` to ``receivers``.

        This is the core-based tree COPSS forms: every subscriber's
        Subscribe walks its route toward the RP, and the union of those
        paths is the dissemination tree.
        """
        key = (root, frozenset(receivers))
        cached = self._tree_cache.get(key)
        if cached is not None:
            return cached
        edges: Set[Tuple[str, str]] = set()
        for receiver in key[1]:
            path = self.path(receiver, root)
            for a, b in zip(path, path[1:]):
                edges.add(_norm_edge(a, b))
        frozen: EdgeSet = frozenset(edges)
        self._tree_cache[key] = frozen
        return frozen
