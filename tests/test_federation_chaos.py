"""Autoscale-storm × fault-plan matrix: every handoff kind under fire.

The ``autoscale-storm`` scenario replays the federation autoscaler's
full action vocabulary — a two-stage split cascade, a placement
migration to a fresh router and a merge-back — as scripted events, so
each leg runs under every :class:`~repro.sim.faults.FaultPlan`.  The
gates are the ISSUE's: zero permanent loss once the recovery window
closes, bounded recovery time, every scripted handoff resolved, and the
ownership invariants (single owner, full coverage) clean at the end.
"""

import pytest

from repro.experiments.chaos import PLAN_NAMES
from repro.experiments.scenarios import get_scenario, run_scenario
from repro.sim.engine import SerialExecutor
from repro.sim.invariants import InvariantMonitor

SMOKE_SCALE = 0.25


class TestStormScript:
    def test_storm_scripts_every_handoff_kind(self):
        counts = get_scenario("autoscale-storm")(seed=1, scale=SMOKE_SCALE).counts()
        assert counts["split"] == 2
        assert counts["migrate"] == 1
        assert counts["merge"] == 1

    def test_storm_is_deterministic(self):
        build = get_scenario("autoscale-storm")
        assert build(3, SMOKE_SCALE).digest() == build(3, SMOKE_SCALE).digest()
        assert build(3, SMOKE_SCALE).digest() != build(4, SMOKE_SCALE).digest()


class TestStormUnderEveryPlan:
    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    def test_zero_permanent_loss_and_bounded_recovery(self, plan_name):
        report = run_scenario(
            "autoscale-storm", plan_name, seed=1, scale=SMOKE_SCALE
        )
        # Liveness: nothing is lost forever, and the losses that did
        # happen were repaired inside the plan's declared window.
        assert report.permanent_misses == 0, report.missed_sample[:5]
        assert report.invariant_ok, report.verdict["violation_kinds"]
        recovery = report.slo["recovery_time_ms"]
        assert recovery is None or recovery <= report.check_after_ms

        # Every scripted handoff leg resolved: the two splits, the
        # migration to R6 and the merge back into R4.
        assert sorted(report.splits) == [
            ("R1", "R4"),
            ("R4", "R5"),
            ("R4", "R6"),
            ("R5", "R4"),
        ]

        # Ownership stayed sane through the whole storm: the harness
        # runs check_ownership at verdict time, so a dual owner or a
        # black-holed prefix would surface here.
        kinds = report.verdict["violation_kinds"]
        assert "dual_owner" not in kinds
        assert "coverage_gap" not in kinds

    def test_monitor_parity_on_storm(self):
        """The monitor's delivery record agrees with the hosts' counters."""
        networks = []

        def factory(network):
            networks.append(network)
            return SerialExecutor(network)

        report = run_scenario(
            "autoscale-storm", "rp-crash", seed=1, scale=SMOKE_SCALE,
            executor_factory=factory,
        )
        assert "monitor_divergence" not in report.verdict["violation_kinds"]
        # Counters are zeroed where the workload (and the record) starts,
        # and every workload update is sequenced, so each accepted
        # delivery is one latency sample.
        hosts = [n for n in networks[0].nodes.values() if hasattr(n, "on_update")]
        received = sum(host.stats.updates_received for host in hosts)
        assert report.latency["count"] == received > 0
        # Uninstalled at the end: no host still feeds a monitor.
        assert not [
            cb for host in hosts for cb in host.on_update
            if isinstance(getattr(cb, "__self__", None), InvariantMonitor)
        ]
