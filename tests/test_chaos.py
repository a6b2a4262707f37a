"""Tier-1 smoke and property tests for the chaos harness.

The full sweep (all plans x many seeds x loss rates) lives behind the
``chaos`` CLI; here we pin the headline robustness claim — zero permanent
delivery loss through an RP split at 5% control loss — plus seeded
reproducibility, on a small workload so the whole module stays fast.
"""

import json

import pytest

from repro.core import GCopssHost
from repro.core.packets import MulticastPacket
from repro.experiments.chaos import (
    PLAN_NAMES,
    build_plan,
    run_chaos,
)
from repro.experiments.common import subscribers_by_leaf_cd
from repro.experiments.fig4_microbench import microbenchmark_placement
from repro.game.map import GameMap
from repro.sim.engine import SerialExecutor
from repro.sim.invariants import SubscriptionLedger, expected_deliveries

SCALE = 0.02  # ~250 events, ~0.5 s per run


def test_plan_names_cover_all_builders():
    assert set(PLAN_NAMES) == {
        "none",
        "link-flap",
        "rp-crash",
        "rp-split-burst",
        "rp-split-lossy",
    }
    with pytest.raises(ValueError, match="unknown plan"):
        build_plan("bogus", seed=1, loss=0.05)


@pytest.mark.parametrize("name", PLAN_NAMES)
def test_plan_description_is_json_plain(name):
    # ``chaos --out`` writes the report, plan block included, with json.dump.
    described = build_plan(name, 1, 0.05).describe()
    assert json.loads(json.dumps(described)) is not None
    if name == "rp-split-burst":
        assert described["default"]["burst"] == {
            "p_good_to_bad": 0.05,
            "p_bad_to_good": 0.5,
            "loss_good": 0.0,
            "loss_bad": 1.0,
        }


def test_rp_split_lossless_without_faults():
    report = run_chaos("none", seed=1, scale=SCALE, loss=0.0)
    assert report.split is not None
    assert report.invariant_ok, report.missed_sample
    assert report.deliveries_got == report.deliveries_expected > 0
    assert report.fault_stats["dropped"] == 0


def test_rp_split_survives_five_percent_control_loss():
    """The acceptance bar: a forced RP split under 5% control-plane loss
    must deliver every multicast to every live subscriber of its CD."""
    report = run_chaos("rp-split-lossy", seed=1, scale=SCALE, loss=0.05)
    assert report.split is not None
    assert report.fault_stats["dropped"] > 0  # faults actually fired
    assert report.permanent_misses == 0
    assert report.invariant_ok


@pytest.mark.parametrize("loss", [0.02, 0.12])
def test_rp_split_lossy_property_sweep(loss):
    report = run_chaos("rp-split-lossy", seed=3, scale=SCALE, loss=loss)
    assert report.invariant_ok, report.missed_sample


def test_rp_split_survives_burst_loss():
    report = run_chaos("rp-split-burst", seed=2, scale=SCALE, loss=0.05)
    assert report.invariant_ok, report.missed_sample


def test_recovery_after_link_flap():
    report = run_chaos("link-flap", seed=1, scale=SCALE, loss=0.03)
    # The invariant is only checked after the flap window plus the
    # recovery margin; inside the blackout losses are expected.
    assert report.check_after_ms > 0
    assert report.events_checked < report.events_total
    assert report.invariant_ok, report.missed_sample


def test_recovery_after_rp_crash():
    report = run_chaos("rp-crash", seed=1, scale=SCALE, loss=0.03)
    assert report.node_counters["subscription_refreshes"] > 0
    assert report.invariant_ok, report.missed_sample


def test_report_digest_is_reproducible():
    a = run_chaos("rp-split-lossy", seed=7, scale=SCALE, loss=0.05)
    b = run_chaos("rp-split-lossy", seed=7, scale=SCALE, loss=0.05)
    c = run_chaos("rp-split-lossy", seed=8, scale=SCALE, loss=0.05)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    d = a.as_dict()
    assert d["digest"] == a.digest()
    assert d["invariant_ok"] is True


def test_phantom_delivery_fails_the_invariant():
    """The verdict sees safety: a stray update is not hidden by zero misses."""

    def factory(network):
        executor = SerialExecutor(network)
        host = network.nodes[
            min(n for n, node in network.nodes.items() if isinstance(node, GCopssHost))
        ]
        router = host.access_face.peer
        stray = MulticastPacket(cd="/99/99", publisher="nobody")  # no one holds /99
        executor.schedule_external(
            router.name, 1000.0, router.send, router.face_toward(host), stray
        )
        return executor

    report = run_chaos("none", seed=1, scale=SCALE, loss=0.0, executor_factory=factory)
    assert report.permanent_misses == 0
    assert report.verdict["violation_kinds"] == {"phantom_delivery": 1}
    assert not report.verdict["safety_ok"]
    assert not report.invariant_ok
    assert not report.as_dict()["invariant_ok"]


def test_ledger_expectation_equals_the_visibility_map():
    """Over the t = 0 ledger, ``covered()`` and ``visible_leaf_cds`` agree.

    ``run_chaos`` judges the fig-4 trace by the ledger; the expectation
    it derives must be every visible subscriber of a leaf CD but the
    publisher, for every leaf CD and both a subscribed and an unsubscribed
    publisher.
    """
    game_map = GameMap(seed=1)
    placement = microbenchmark_placement(game_map)
    ledger = SubscriptionLedger()
    for player, area in placement.items():
        ledger.note(player, 0.0, game_map.hierarchy.subscriptions_for(area))
    subscribers = subscribers_by_leaf_cd(game_map, placement)
    players = sorted(placement)
    cds = sorted(subscribers)
    publishes = [
        (i, 0.0, cd, players[i % len(players)]) for i, cd in enumerate(cds)
    ]
    got = {i: set() for i in range(len(cds))}
    for sequence, _t, receiver in expected_deliveries(ledger, publishes, 0.0, 0.0):
        got[sequence].add(receiver)
    for sequence, _t, cd, publisher in publishes:
        assert got[sequence] == set(subscribers[cd]) - {publisher}, cd
    held = [publisher in subscribers[cd] for _s, _t, cd, publisher in publishes]
    assert any(held) and not all(held)
