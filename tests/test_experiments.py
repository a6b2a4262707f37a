"""Integration tests for the experiment harness (small scales)."""

import pytest

from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.common import (
    default_rp_assignment,
    pick_rp_sites,
    run_gcopss_backbone,
    run_ip_server_backbone,
    subscribers_by_leaf_cd,
)
from repro.experiments.table1_rp_count import make_peak_workload
from repro.game.map import GameMap
from repro.names import Name, ROOT
from repro.topology.backbone import build_backbone
from repro.core.engine import GCopssRouter


@pytest.fixture(scope="module")
def small_workload():
    return make_peak_workload(400, seed=7)


class TestCalibration:
    def test_paper_constants(self):
        cal = DEFAULT_CALIBRATION
        assert cal.rp_service_ms == 3.3
        assert cal.ndn_pipeline_window == 3
        assert cal.broker_count == 3
        assert cal.object_size_decay == 0.95
        # Server service at the 414-player operating point lands near the
        # paper's ~6 ms: base + per_recipient * ~170 recipients.
        assert 5.0 <= cal.server_base_ms + cal.server_per_recipient_ms * 170 <= 7.0
        # Cyclic pacing must exceed RP decapsulation service.
        assert cal.broker_cyclic_pacing_ms > cal.rp_service_ms

    def test_with_overrides(self):
        cal = DEFAULT_CALIBRATION.with_overrides(rp_service_ms=1.0)
        assert cal.rp_service_ms == 1.0
        assert DEFAULT_CALIBRATION.rp_service_ms == 3.3


class TestLayoutHelpers:
    def test_rp_assignment_single(self):
        table = default_rp_assignment(GameMap().hierarchy, ["rp0"])
        assert table.rp_for("/3/3") == "rp0"
        assert len(table) == 1

    def test_rp_assignment_covers_everything(self):
        hierarchy = GameMap().hierarchy
        for k in (2, 3, 6):
            table = default_rp_assignment(hierarchy, [f"rp{i}" for i in range(k)])
            for cd in hierarchy.leaf_cds():
                assert table.rp_for(cd) in table.all_rps()  # raises if uncovered
            assert len(table.all_rps()) == min(k, 6)

    def test_rp_assignment_is_contiguous_with_airspace_last(self):
        table = default_rp_assignment(GameMap().hierarchy, ["rpA", "rpB"])
        # Load-blind contiguous chunks: regions 1-3 on the first RP,
        # regions 4-5 plus the (hot) satellite airspace on the second.
        assert table.rp_for("/1/1") == "rpA"
        assert table.rp_for("/3/3") == "rpA"
        assert table.rp_for("/4/1") == "rpB"
        assert table.rp_for("/0") == "rpB"

    def test_pick_rp_sites_spread_and_deterministic(self):
        built = build_backbone(lambda net, name: GCopssRouter(net, name))
        sites = pick_rp_sites(built, 3)
        assert len(set(sites)) == 3
        assert sites == pick_rp_sites(built, 3)

    def test_pick_too_many_sites(self):
        built = build_backbone(lambda net, name: GCopssRouter(net, name))
        with pytest.raises(ValueError):
            pick_rp_sites(built, 99)

    def test_subscribers_by_leaf_cd(self):
        game_map = GameMap()
        placement = {"a": Name.parse("/1/1"), "b": Name.parse("/1"), "c": ROOT}
        subs = subscribers_by_leaf_cd(game_map, placement)
        assert subs[Name.parse("/1/1")] == ["a", "b", "c"]
        assert subs[Name.parse("/1/0")] == ["a", "b", "c"]
        assert subs[Name.parse("/2/2")] == ["c"]
        assert subs[Name.parse("/0")] == ["a", "b", "c"]


class TestScenarioRunners:
    def test_gcopss_and_ip_deliver_identically(self, small_workload):
        game_map, generator, events = small_workload
        gcopss = run_gcopss_backbone(events, game_map, generator.placement, num_rps=3)
        ip = run_ip_server_backbone(events, game_map, generator.placement, num_servers=3)
        assert gcopss.deliveries == ip.deliveries
        assert gcopss.updates_published == len(events)

    def test_deliveries_match_visibility_ground_truth(self, small_workload):
        game_map, generator, events = small_workload
        result = run_gcopss_backbone(events, game_map, generator.placement, num_rps=3)
        subs = subscribers_by_leaf_cd(game_map, generator.placement)
        expected = sum(len(set(subs[e.cd]) - {e.player}) for e in events)
        assert result.deliveries == expected

    def test_gcopss_run_is_deterministic(self, small_workload):
        game_map, generator, events = small_workload
        a = run_gcopss_backbone(events, game_map, generator.placement, num_rps=2)
        b = run_gcopss_backbone(events, game_map, generator.placement, num_rps=2)
        assert a.latency.mean == b.latency.mean
        assert a.network_bytes == b.network_bytes

    def test_multicast_beats_unicast_on_load(self, small_workload):
        game_map, generator, events = small_workload
        gcopss = run_gcopss_backbone(events, game_map, generator.placement, num_rps=3)
        ip = run_ip_server_backbone(events, game_map, generator.placement, num_servers=3)
        assert gcopss.network_bytes < ip.network_bytes

    def test_decapsulation_count_equals_updates(self, small_workload):
        game_map, generator, events = small_workload
        result = run_gcopss_backbone(events, game_map, generator.placement, num_rps=3)
        assert result.extras["decapsulations"] == len(events)

    def test_series_recorder_filled(self, small_workload):
        game_map, generator, events = small_workload
        result = run_gcopss_backbone(
            events, game_map, generator.placement, num_rps=3, series_bucket=100
        )
        assert result.series.count == result.deliveries

    def test_exact_st_mode(self, small_workload):
        game_map, generator, events = small_workload
        bloom = run_gcopss_backbone(events, game_map, generator.placement, num_rps=3)
        exact = run_gcopss_backbone(
            events, game_map, generator.placement, num_rps=3, use_exact_st=True
        )
        assert bloom.deliveries == exact.deliveries
        assert exact.network_bytes <= bloom.network_bytes
