"""Tests for the flow-level evaluators, including DES agreement."""

import random

import pytest

from repro.core.engine import GCopssRouter
from repro.core.hybrid import HybridMapper
from repro.experiments.common import (
    default_rp_assignment,
    pick_rp_sites,
    run_gcopss_backbone,
    run_ip_server_backbone,
)
from repro.experiments.flowrun import FlowScenario
from repro.experiments.table1_rp_count import make_peak_workload
from repro.topology.backbone import build_backbone


@pytest.fixture(scope="module")
def scenario():
    game_map, generator, events = make_peak_workload(400, seed=7)
    built = build_backbone(lambda net, name: GCopssRouter(net, name))
    rng = random.Random(29)
    edges = sorted(built.edge_routers, key=lambda n: n.name)
    host_edge = {p: rng.choice(edges).name for p in sorted(generator.placement)}
    flow = FlowScenario(built.network, host_edge, game_map, generator.placement)
    sites = pick_rp_sites(built, 3)
    table = default_rp_assignment(game_map.hierarchy, sites)
    return game_map, generator, events, flow, table


class TestFlowRunners:
    def test_gcopss_flow_counts_deliveries_correctly(self, scenario):
        game_map, generator, events, flow, table = scenario
        result = flow.run_gcopss(events, table)
        from repro.experiments.common import subscribers_by_leaf_cd

        subs = subscribers_by_leaf_cd(game_map, generator.placement)
        expected = sum(len(set(subs[e.cd]) - {e.player}) for e in events)
        assert result.deliveries == expected

    def test_all_three_designs_same_deliveries(self, scenario):
        game_map, generator, events, flow, table = scenario
        gcopss = flow.run_gcopss(events, table)
        ip = flow.run_ip_server(events, table)
        hybrid = flow.run_hybrid(events, HybridMapper(num_groups=6))
        assert gcopss.deliveries == ip.deliveries == hybrid.deliveries

    def test_paper_orderings(self, scenario):
        game_map, generator, events, flow, table = scenario
        gcopss = flow.run_gcopss(events, table)
        ip = flow.run_ip_server(events, table)
        hybrid = flow.run_hybrid(events, HybridMapper(num_groups=6))
        # Latency: hybrid < gcopss < ip; load: gcopss < hybrid < ip.
        assert hybrid.mean_latency_ms < gcopss.mean_latency_ms < ip.mean_latency_ms
        assert gcopss.network_bytes < hybrid.network_bytes < ip.network_bytes

    def test_load_scale(self, scenario):
        game_map, generator, events, flow, table = scenario
        base = flow.run_gcopss(events, table)
        scaled = flow.run_gcopss(events, table, load_scale=10.0)
        assert scaled.network_bytes == pytest.approx(10 * base.network_bytes, rel=1e-6)
        assert scaled.deliveries == base.deliveries


class TestDesAgreement:
    @pytest.mark.parametrize("players, seed", [(300, 11), (200, 3), (414, 5)])
    def test_flow_gcopss_load_tracks_des(self, players, seed):
        """Flow accounting and DES agree exactly on G-COPSS network load."""
        game_map, generator, events = make_peak_workload(players, seed=seed)
        des = run_gcopss_backbone(events, game_map, generator.placement, num_rps=3)

        built = build_backbone(lambda net, name: GCopssRouter(net, name))
        rng = random.Random(29)
        edges = sorted(built.edge_routers, key=lambda n: n.name)
        host_edge = {p: rng.choice(edges).name for p in sorted(generator.placement)}
        # Use the DES run's actual attachment for a like-for-like route set.
        flow = FlowScenario(built.network, host_edge, game_map, generator.placement)
        sites = pick_rp_sites(built, 3)
        table = default_rp_assignment(game_map.hierarchy, sites)
        flow_result = flow.run_gcopss(events, table)
        # Same backbone spec and same seed for host attachment => same
        # routes; both price every packet by its class's size rule and
        # count the copy a subscribed publisher's host receives and drops.
        assert flow_result.network_bytes == des.network_bytes
        assert flow_result.deliveries == des.deliveries

    def test_flow_ip_load_tracks_des(self):
        game_map, generator, events = make_peak_workload(300, seed=11)
        des = run_ip_server_backbone(
            events, game_map, generator.placement, num_servers=3
        )
        built = build_backbone(lambda net, name: GCopssRouter(net, name))
        rng = random.Random(29)
        edges = sorted(built.edge_routers, key=lambda n: n.name)
        host_edge = {p: rng.choice(edges).name for p in sorted(generator.placement)}
        flow = FlowScenario(built.network, host_edge, game_map, generator.placement)
        sites = pick_rp_sites(built, 3)
        table = default_rp_assignment(game_map.hierarchy, sites)
        flow_result = flow.run_ip_server(events, table)
        # The IP baseline sends no control packets: every byte is a
        # routed update, so the two counts are equal.
        assert flow_result.network_bytes == des.network_bytes
