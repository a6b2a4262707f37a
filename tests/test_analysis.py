"""Tests for capacity planning and queueing references."""

import math

import pytest

from repro.analysis import (
    cd_load_shares,
    md1_mean_wait,
    minimum_stable_rps,
    rp_utilizations,
    utilization,
)
from repro.analysis.capacity import peak_arrival_rate
from repro.analysis.queueing import md1_mean_sojourn
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.common import default_rp_assignment
from repro.experiments.table1_rp_count import make_peak_workload
from repro.names import Name


@pytest.fixture(scope="module")
def workload():
    return make_peak_workload(20_000, seed=42)


class TestQueueingFormulas:
    def test_utilization(self):
        assert utilization(0.5, 1.0) == 0.5
        with pytest.raises(ValueError):
            utilization(-1, 1)

    def test_md1_wait_shape(self):
        # rho=0.5, s=1: W = 0.5/(2*0.5) = 0.5.
        assert md1_mean_wait(0.5, 1.0) == pytest.approx(0.5)
        assert md1_mean_wait(0.99, 1.0) > md1_mean_wait(0.5, 1.0)

    def test_unstable_is_infinite(self):
        assert md1_mean_wait(1.0, 1.0) == float("inf")
        assert md1_mean_sojourn(2.0, 1.0) == float("inf")

    def test_sojourn_adds_service(self):
        assert md1_mean_sojourn(0.5, 2.0) == pytest.approx(
            md1_mean_wait(0.5, 2.0) + 2.0
        )

    def test_simulator_matches_md1(self):
        """The DES ServiceQueue agrees with the closed form (the bridge
        between the calibration story and the measured latencies)."""
        import random

        from repro.sim.engine import Simulator
        from repro.sim.queues import ServiceQueue

        rng = random.Random(7)
        sim = Simulator()
        queue = ServiceQueue(sim)
        service, rho, n = 1.0, 0.6, 12_000
        t = 0.0
        for _ in range(n):
            t += rng.expovariate(rho / service)
            sim.schedule_at(t, queue.submit, None, service, lambda _: None)
        sim.run()
        assert queue.mean_wait == pytest.approx(md1_mean_wait(rho, service), rel=0.2)


class TestCdLoadShares:
    def test_shares_sum_to_one(self, workload):
        _, _, events = workload
        shares = cd_load_shares(events)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_satellite_layer_is_hottest_piece(self, workload):
        _, _, events = workload
        shares = cd_load_shares(events)
        airspace = shares[Name.parse("/0")]
        assert all(airspace >= s for p, s in shares.items() if p != Name.parse("/0"))
        assert airspace > 0.3  # the object-heat model's signature

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            cd_load_shares([])


class TestRpUtilizations:
    def test_single_rp_unstable(self, workload):
        game_map, _, events = workload
        assignment = default_rp_assignment(game_map.hierarchy, ["rp0"])
        rhos = rp_utilizations(events, assignment)
        assert rhos["rp0"] > 1.0  # the Table I 1-RP congestion, predicted

    def test_two_rps_marginal_three_stable(self, workload):
        game_map, _, events = workload
        two = rp_utilizations(
            events, default_rp_assignment(game_map.hierarchy, ["a", "b"])
        )
        three = rp_utilizations(
            events, default_rp_assignment(game_map.hierarchy, ["a", "b", "c"])
        )
        assert max(two.values()) > 0.95   # Fig. 5b: congests at the peak
        assert max(three.values()) < 0.95  # Fig. 5a: healthy

    def test_peak_rate_exceeds_mean_rate(self, workload):
        _, _, events = workload
        mean_rate = (len(events) - 1) / (events[-1].time_ms - events[0].time_ms)
        assert peak_arrival_rate(events) > mean_rate


class TestProvisioning:
    def test_paper_workload_needs_three_rps(self, workload):
        game_map, _, events = workload
        plan = minimum_stable_rps(events, game_map.hierarchy)
        assert plan is not None
        assert plan["rp_count"] == 3
        assert plan["worst_utilization"] < 0.85
        assert plan["predicted_worst_sojourn_ms"] < 20.0
