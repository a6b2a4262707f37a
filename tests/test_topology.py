"""Tests for the two evaluation topologies."""

import networkx as nx

from repro.core.engine import GCopssHost, GCopssRouter
from repro.sim.network import Network
from repro.topology import build_backbone, build_benchmark_topology
from repro.topology.backbone import CORE_DELAY_RANGE_MS, EDGE_CORE_DELAY_MS
from tests.conftest import nx_graph


def router_factory(net, name):
    return GCopssRouter(net, name)


def players(n):
    return [f"player{i}" for i in range(n)]


class TestBenchmarkTopology:
    def test_fig3b_layout(self):
        topo = build_benchmark_topology(router_factory, GCopssHost, players(62))
        assert set(topo.routers) == {f"R{i}" for i in range(1, 7)}
        graph = nx_graph(topo.network)
        # R1 is the hub of the two branches.
        assert graph.has_edge("R1", "R2")
        assert graph.has_edge("R1", "R3")
        assert graph.has_edge("R2", "R4")
        assert graph.has_edge("R2", "R5")
        assert graph.has_edge("R3", "R6")

    def test_62_players_uniformly_spread(self):
        topo = build_benchmark_topology(router_factory, GCopssHost, players(62))
        assert len(topo.hosts) == 62
        per_router = {}
        for router_name in topo.host_router.values():
            per_router[router_name] = per_router.get(router_name, 0) + 1
        assert max(per_router.values()) - min(per_router.values()) <= 1

    def test_custom_host_names(self):
        topo = build_benchmark_topology(
            router_factory, GCopssHost, host_names=["alice", "bob"]
        )
        assert [h.name for h in topo.hosts] == ["alice", "bob"]

    def test_connected(self):
        topo = build_benchmark_topology(router_factory, GCopssHost, players(6))
        assert nx.is_connected(nx_graph(topo.network))


class TestBackbone:
    def test_paper_scale_defaults(self):
        built = build_backbone(router_factory)
        assert len(built.core_routers) == 79
        # 1-3 edge routers per core.
        assert 79 <= len(built.edge_routers) <= 79 * 3

    def test_connected_and_sparse(self):
        built = build_backbone(router_factory)
        graph = nx_graph(built.network)
        assert nx.is_connected(graph)
        core_names = {n.name for n in built.core_routers}
        core_graph = graph.subgraph(core_names)
        avg_degree = 2 * core_graph.number_of_edges() / len(core_names)
        assert 2.0 <= avg_degree <= 5.0

    def test_link_delay_regime(self):
        built = build_backbone(router_factory)
        core_names = {n.name for n in built.core_routers}
        for link in built.network.links:
            a, b = (end[0].name for end in link._ends)
            if a in core_names and b in core_names:
                lo, hi = CORE_DELAY_RANGE_MS
                assert lo <= link.delay <= hi
            else:
                assert link.delay == EDGE_CORE_DELAY_MS

    def test_deterministic_for_seed(self):
        edges_a = {l.name for l in build_backbone(router_factory).network.links}
        edges_b = {l.name for l in build_backbone(router_factory).network.links}
        assert edges_a == edges_b

    def test_attach_hosts_uniform(self):
        built = build_backbone(router_factory)
        names = [f"p{i}" for i in range(200)]
        built.attach_hosts(GCopssHost, names, delay_ms=1.0)
        assert len(built.hosts) == 200
        assert set(built.host_edge) == set(names)
        used_edges = set(built.host_edge.values())
        assert len(used_edges) > len(built.edge_routers) // 2
