"""Synthetic Rocketfuel-style backbone for the large-scale experiments.

The paper uses the Rocketfuel AS3967 (Exodus) backbone — 79 core routers
with inferred link weights interpreted as milliseconds — attaches 1-3
edge routers per core router, and hangs the 414 players uniformly off the
edges (5 ms edge-core, 1 ms host-edge).  The measured topology file is
not shipped here, so :func:`build_backbone` synthesizes a seeded stand-in
with the same regime: a connected geometric graph over 79 cores whose
link weights are distance-derived (1-15 ms), plus the paper's attachment
rules.  DESIGN.md documents this substitution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.sim.network import Network, Node

__all__ = ["BuiltBackbone", "build_backbone"]

#: The paper's backbone: 79 Rocketfuel core routers, sparse (Rocketfuel
#: backbones average about 3.2 links per core), link weights read as
#: 1-15 ms delays; 1-3 edge routers per core at 5 ms.
NUM_CORE = 79
CORE_DEGREE_TARGET = 3.2
CORE_DELAY_RANGE_MS: Tuple[float, float] = (1.0, 15.0)
EDGES_PER_CORE: Tuple[int, int] = (1, 3)
EDGE_CORE_DELAY_MS = 5.0
#: Seeds of the core layout and of the host placement.
BACKBONE_SEED = 23
HOST_SEED = 29


@dataclass
class BuiltBackbone:
    """A built backbone: node handles plus the host attachment map."""

    network: Network
    core_routers: List[Node]
    edge_routers: List[Node]
    hosts: List[Node] = field(default_factory=list)
    host_edge: Dict[str, str] = field(default_factory=dict)

    def attach_hosts(
        self,
        host_factory: Callable[[Network, str], Node],
        names: Sequence[str],
        delay_ms: float,
    ) -> List[Node]:
        """Uniformly distribute hosts over the edge routers (seeded)."""
        rng = random.Random(HOST_SEED)
        edges = sorted(self.edge_routers, key=lambda n: n.name)
        for name in names:
            edge = rng.choice(edges)
            host = host_factory(self.network, name)
            self.network.connect(host, edge, delay_ms)
            self.hosts.append(host)
            self.host_edge[name] = edge.name
        return self.hosts


def build_backbone(router_factory: Callable[[Network, str], Node]) -> BuiltBackbone:
    """Build the core + edge topology with pluggable router types.

    Core graph construction: routers get random plane coordinates; each
    connects to its nearest neighbours until the average degree reaches
    :data:`CORE_DEGREE_TARGET`, then a spanning pass guarantees
    connectivity.  Link delay grows with distance, spanning
    :data:`CORE_DELAY_RANGE_MS` — matching the "link weights interpreted
    as delay" treatment of the measured topology.
    """
    net = Network()
    layout = random.Random(BACKBONE_SEED)
    positions = [(layout.random(), layout.random()) for _ in range(NUM_CORE)]
    rng = random.Random(BACKBONE_SEED + 1)

    cores = [router_factory(net, f"core{i}") for i in range(NUM_CORE)]

    def delay_between(i: int, j: int) -> float:
        (xa, ya), (xb, yb) = positions[i], positions[j]
        dist = math.hypot(xa - xb, ya - yb) / math.sqrt(2)  # normalized 0..1
        lo, hi = CORE_DELAY_RANGE_MS
        return round(lo + dist * (hi - lo), 3)

    # Nearest-neighbour edges up to the target average degree.
    connected_pairs: set[Tuple[int, int]] = set()

    def add_edge(i: int, j: int) -> None:
        key = (min(i, j), max(i, j))
        if key in connected_pairs or i == j:
            return
        connected_pairs.add(key)
        net.connect(cores[i], cores[j], delay_between(i, j))

    target_edges = int(CORE_DEGREE_TARGET * NUM_CORE / 2)
    by_distance: List[Tuple[float, int, int]] = []
    for i in range(NUM_CORE):
        for j in range(i + 1, NUM_CORE):
            by_distance.append((delay_between(i, j), i, j))
    by_distance.sort()
    for _, i, j in by_distance:
        if len(connected_pairs) >= target_edges:
            break
        add_edge(i, j)

    # Connectivity pass: union-find over components, then stitch.
    parent = list(range(NUM_CORE))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in connected_pairs:
        parent[find(i)] = find(j)
    roots = sorted({find(i) for i in range(NUM_CORE)})
    while len(roots) > 1:
        a = roots[0]
        b = roots[1]
        add_edge(a, b)
        parent[find(a)] = find(b)
        roots = sorted({find(i) for i in range(NUM_CORE)})

    # Edge routers: 1-3 per core router.
    edge_routers: List[Node] = []
    lo, hi = EDGES_PER_CORE
    index = 0
    for i, core in enumerate(cores):
        for _ in range(rng.randint(lo, hi)):
            edge = router_factory(net, f"edge{index}")
            net.connect(edge, core, EDGE_CORE_DELAY_MS)
            edge_routers.append(edge)
            index += 1

    return BuiltBackbone(network=net, core_routers=cores, edge_routers=edge_routers)
