"""Scenario fleet tests: determinism, churn sanity, matrix smoke,
serial/sharded digest equality, and the pinned 25-cell matrix."""

import json
from pathlib import Path

import pytest

from repro.experiments.scenarios import (
    BUILTIN_SCENARIOS,
    SCENARIO_NAMES,
    Scenario,
    ScenarioEvent,
    ScenarioScript,
    get_scenario,
    register_scenario,
    run_matrix,
    run_scenario,
)
from repro.parallel import ShardedExecutor, partition_by_anchors

SMOKE_SCALE = 0.2


class TestRegistry:
    def test_builtins_registered(self):
        assert SCENARIO_NAMES == (
            "autoscale-storm",
            "churn",
            "day-night",
            "flash-crowd",
            "mobility",
        )
        for name in SCENARIO_NAMES:
            assert get_scenario(name).name == name

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        clone = Scenario(
            name="churn", description="dup", build=get_scenario("churn").build
        )
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(clone)


class TestDeterminism:
    @pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS, ids=lambda s: s.name)
    def test_same_seed_byte_identical(self, scenario):
        a = scenario(seed=3, scale=SMOKE_SCALE)
        b = scenario(seed=3, scale=SMOKE_SCALE)
        assert [e.as_row() for e in a.events] == [e.as_row() for e in b.events]
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS, ids=lambda s: s.name)
    def test_different_seed_differs(self, scenario):
        assert (
            scenario(seed=1, scale=SMOKE_SCALE).digest()
            != scenario(seed=2, scale=SMOKE_SCALE).digest()
        )

    @pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS, ids=lambda s: s.name)
    def test_scale_controls_publish_count(self, scenario):
        small = scenario(seed=1, scale=0.1).counts()["publish"]
        large = scenario(seed=1, scale=1.0).counts()["publish"]
        assert 0 < small < large

    def test_every_scenario_scripts_a_split(self):
        for scenario in BUILTIN_SCENARIOS:
            counts = scenario(seed=1, scale=SMOKE_SCALE).counts()
            assert counts["split"] >= 1, scenario.name


class TestScriptModel:
    def test_event_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioEvent(at_ms=0.0, kind="teleport")

    def test_script_rejects_out_of_order_events(self):
        events = (
            ScenarioEvent(at_ms=100.0, kind="publish", player="p", cd="/1", size=1),
            ScenarioEvent(at_ms=50.0, kind="publish", player="p", cd="/1", size=1),
        )
        with pytest.raises(ValueError, match="time-ordered"):
            ScenarioScript(
                name="x", seed=1, scale=1.0, events=events, duration_ms=200.0
            )

    def test_publish_sequences_are_dense(self):
        script = get_scenario("day-night")(1, SMOKE_SCALE)
        sequences = [seq for seq, _ in script.publishes()]
        assert sequences == list(range(len(sequences)))


class TestChurnSanity:
    def test_never_double_books_a_host_online(self):
        # offline/reconnect events must strictly alternate per player:
        # a second offline while already offline (or reconnect while
        # online) would double-book the host's connectivity state.
        for seed in range(1, 6):
            script = get_scenario("churn")(seed, 1.0)
            state = {}
            for event in script.events:
                if event.kind == "offline":
                    assert state.get(event.player, "on") == "on", (seed, event)
                    state[event.player] = "off"
                elif event.kind == "reconnect":
                    assert state.get(event.player) == "off", (seed, event)
                    state[event.player] = "on"
            # Nobody may end the script stranded offline.
            assert all(value == "on" for value in state.values()), seed

    def test_publishers_are_online(self):
        script = get_scenario("churn")(1, 1.0)
        offline = set()
        for event in script.events:
            if event.kind == "offline":
                offline.add(event.player)
            elif event.kind == "reconnect":
                offline.discard(event.player)
            elif event.kind == "publish":
                assert event.player not in offline, event


class TestMatrixCell:
    def test_cell_smoke_and_monitor_parity(self):
        monitored = run_scenario(
            "day-night", "rp-crash", seed=1, scale=SMOKE_SCALE, monitor=True
        )
        assert monitored.invariant_ok, monitored.verdict
        assert monitored.verdict["safety_ok"] and monitored.verdict["liveness_ok"]
        assert monitored.deliveries_got > 0
        # expected and got_checked count one window (rp-crash starts it late).
        assert (
            monitored.deliveries_got_checked + monitored.permanent_misses
            == monitored.deliveries_expected
        )
        assert 0 < monitored.deliveries_got_checked < monitored.deliveries_got
        assert monitored.verdict["deliveries_got_checked"] == monitored.deliveries_got_checked
        bare = run_scenario(
            "day-night", "rp-crash", seed=1, scale=SMOKE_SCALE, monitor=False
        )
        # The monitor observes, never steers: digests must be identical.
        assert bare.digest() == monitored.digest()
        assert bare.node_counters == monitored.node_counters

    def test_broker_scenario_serves_snapshots(self):
        report = run_scenario("churn", "none", seed=1, scale=SMOKE_SCALE)
        assert report.invariant_ok, report.verdict
        assert report.scenario["uses_broker"]
        assert report.snapshot.get("completed", 0) > 0

    def test_sharded_executor_matches_serial(self):
        def factory(network):
            return ShardedExecutor(
                network, partition_by_anchors(network, ["R1", "R2"])
            )

        serial = run_scenario("flash-crowd", "none", seed=1, scale=SMOKE_SCALE)
        sharded = run_scenario(
            "flash-crowd", "none", seed=1, scale=SMOKE_SCALE,
            executor_factory=factory,
        )
        assert serial.invariant_ok and sharded.invariant_ok
        for report in (serial, sharded):
            assert (
                report.deliveries_got_checked + report.permanent_misses
                == report.deliveries_expected
            )
        assert serial.digest() == sharded.digest()
        assert serial.node_counters == sharded.node_counters


def test_matrix_reproduces_the_pinned_cells():
    """All 5 scenarios x 5 plans at seed 1 equal the committed fixture.

    Regenerate after a declared behaviour change with
    ``python -m repro.experiments scenarios --out tests/data/scenario_matrix.json``.
    """
    pinned = json.loads(
        (Path(__file__).parent / "data" / "scenario_matrix.json").read_text()
    )
    got = run_matrix(seeds=(1,), scale=1.0)
    for key, cell in pinned["cells"].items():
        assert got["cells"][key] == cell, key
    assert got == pinned
