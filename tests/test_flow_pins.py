"""Exact pins of the flow-level numbers: Table II and the Vivaldi selector.

Both read routes through :class:`repro.sim.flows.FlowAccountant`, so any
change to how it picks a path, sums a delay or forms a tree shows here
as a changed byte count, float repr or RP choice.  The values are the
ones every EXPERIMENTS.md Table II row and the RP-selection ablation
were produced with.
"""

import hashlib
from types import SimpleNamespace

import repro.core.coordinates as coordinates
from repro.core.engine import GCopssHost, GCopssRouter
from repro.experiments.common import _make_coordinate_selector, pick_rp_sites
from repro.experiments.table1_rp_count import make_peak_workload
from repro.experiments.table2_hybrid import run_table2
from repro.names import Name
from repro.topology.backbone import build_backbone


def test_table2_sample_is_pinned():
    result = run_table2(sample=0.0005)
    rows = [
        (r.label, r.network_bytes, r.deliveries, repr(r.latency_sum_ms),
         repr(r.latency_max_ms), r.extras)
        for r in (result.ip_server, result.gcopss, result.hybrid)
    ]
    assert rows == [
        ("IP server (6 servers)", 949_969_344_000, 177_704,
         "16356725.124000013", "147.498", {}),
        ("G-COPSS (6 RPs)", 142_996_744_000, 177_704,
         "15213807.434", "144.844", {}),
        ("hybrid-G-COPSS (6 groups)", 148_567_494_000, 177_704,
         "6801486.000999999", "77.71799999999999",
         {"filtered_edge_deliveries": 16_869, "waste_ratio": 0.2691012812120079}),
    ]


def test_vivaldi_selector_is_pinned(monkeypatch):
    """Training delays and new-RP picks on the default backbone (no DES run)."""
    game_map, generator, _ = make_peak_workload(400, seed=7)
    placement = generator.placement
    built = build_backbone(lambda net, name: GCopssRouter(net, name))
    built.attach_hosts(GCopssHost, sorted(placement), 1.0)
    cores = sorted(n.name for n in built.core_routers)

    truth = {}
    train = coordinates.seed_coordinates_from_delays

    def recording_train(system, delays, **kwargs):
        truth.update(delays)
        return train(system, delays, **kwargs)

    monkeypatch.setattr(coordinates, "seed_coordinates_from_delays", recording_train)
    choose = _make_coordinate_selector(built, game_map, placement, cores)

    assert len(truth) == 474
    assert sorted(truth.items())[:3] == [
        (("core0", "core1"), 43.157),
        (("core0", "core16"), 12.107),
        (("core0", "core22"), 55.346999999999994),
    ]
    digest = hashlib.sha256(repr(sorted(truth.items())).encode()).hexdigest()
    assert digest == "9458a819d07bb489201f8f85aab10e7ebbd180513e9be00a6c4ffb4abb9eb021"

    old_rp = pick_rp_sites(built, 1)[0]
    balancer = SimpleNamespace(candidates=cores, router=built.network.nodes[old_rp])
    picks = {p: choose(balancer, [Name.parse(p)]) for p in ("/1", "/2", "/1/1", "/3/2")}
    assert old_rp == "core0"
    assert picks == {"/1": "core63", "/2": "core65", "/1/1": "core65", "/3/2": "core78"}
