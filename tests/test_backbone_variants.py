"""The backbone's shape against the constants it is built from."""

import networkx as nx

from repro.core.engine import GCopssRouter
from repro.topology.backbone import (
    CORE_DEGREE_TARGET,
    CORE_DELAY_RANGE_MS,
    EDGES_PER_CORE,
    NUM_CORE,
    build_backbone,
)
from tests.conftest import nx_graph


def factory(net, name):
    return GCopssRouter(net, name)


class TestSpecVariants:
    def test_degree_target_shapes_density(self):
        built = build_backbone(factory)
        names = {n.name for n in built.core_routers}
        core_edges = nx_graph(built.network).subgraph(names).number_of_edges()
        # Nearest-neighbour links up to the target, plus any stitching.
        assert core_edges >= int(CORE_DEGREE_TARGET * NUM_CORE / 2)
        assert 2 * core_edges / NUM_CORE < CORE_DEGREE_TARGET + 1

    def test_fixed_edges_per_core(self):
        built = build_backbone(factory)
        per_core = {n.name: 0 for n in built.core_routers}
        for edge in built.edge_routers:
            (core,) = [f.peer.name for f in edge.faces.values()]
            per_core[core] += 1
        lo, hi = EDGES_PER_CORE
        assert all(lo <= count <= hi for count in per_core.values())

    def test_delay_range_respected(self):
        built = build_backbone(factory)
        lo, hi = CORE_DELAY_RANGE_MS
        cores = {n.name for n in built.core_routers}
        for link in built.network.links:
            a, b = (end[0].name for end in link._ends)
            if a in cores and b in cores:
                assert lo <= link.delay <= hi

    def test_diameter_in_backbone_regime(self):
        """Path delays must land in the tens-of-ms regime the paper's
        latency results assume (Rocketfuel link weights as ms)."""
        built = build_backbone(factory)
        graph = nx_graph(built.network)
        cores = sorted(n.name for n in built.core_routers)
        sample = [
            nx.shortest_path_length(graph, cores[0], c, weight="weight")
            for c in cores[1::10]
        ]
        assert max(sample) < 120.0
        assert min(s for s in sample if s > 0) >= 1.0

    def test_two_builds_share_no_state(self):
        a = build_backbone(factory)
        b = build_backbone(factory)
        assert a.network is not b.network
        a.network.reset_counters()  # must not raise or affect b
        assert b.network.total_bytes == 0
