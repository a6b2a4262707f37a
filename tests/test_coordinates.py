"""Tests for Vivaldi coordinates and coordinate-based RP selection."""

import itertools
import math
import random

import pytest

from repro.core.coordinates import (
    VivaldiSystem,
    coordinate_rp_selector,
    seed_coordinates_from_delays,
)


def grid_delays():
    """Ground truth: nodes on a line, delay = 10ms per unit distance."""
    positions = {f"n{i}": i for i in range(6)}
    return {
        (a, b): 10.0 * abs(positions[a] - positions[b])
        for a, b in itertools.combinations(positions, 2)
    }


def estimate(system, a, b):
    """Predicted latency (ms): the distance between two embedded nodes."""
    return math.dist(system.coordinate(a), system.coordinate(b))


def relative_error(system, ground_truth):
    """Median |predicted - actual| / actual over the given pairs."""
    errors = sorted(
        abs(estimate(system, a, b) - actual) / actual for (a, b), actual in ground_truth.items()
    )
    return errors[len(errors) // 2]


class TestVivaldi:
    def test_embedding_learns_a_line(self):
        system = VivaldiSystem(dimensions=2, seed=5)
        truth = grid_delays()
        seed_coordinates_from_delays(system, truth, rounds=60)
        assert relative_error(system, truth) < 0.15

    def test_estimates_improve_with_training(self):
        truth = grid_delays()
        early = VivaldiSystem(seed=5)
        seed_coordinates_from_delays(early, truth, rounds=2)
        late = VivaldiSystem(seed=5)
        seed_coordinates_from_delays(late, truth, rounds=60)
        assert relative_error(late, truth) < relative_error(early, truth)

    def test_unseen_pair_predicted(self):
        # Train only on pairs involving n0; n1-n5 distances emerge.
        system = VivaldiSystem(seed=7)
        truth = grid_delays()
        star = {pair: rtt for pair, rtt in truth.items() if "n0" in pair}
        seed_coordinates_from_delays(system, star, rounds=80)
        # Triangle inequality bound: estimate within the metric's scale.
        assert estimate(system, "n1", "n5") <= 110.0

    def test_error_decreases(self):
        system = VivaldiSystem(seed=3)
        truth = grid_delays()
        seed_coordinates_from_delays(system, truth, rounds=40)
        assert all(system._errors[n] < 1.0 for n in system.nodes())

    def test_self_observation_ignored(self):
        system = VivaldiSystem()
        system.observe("a", "a", 10.0)
        assert system.samples_applied == 0

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            VivaldiSystem().observe("a", "b", -1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            VivaldiSystem(dimensions=0)
        with pytest.raises(ValueError):
            VivaldiSystem(ce=0)

    def test_centroid(self):
        system = VivaldiSystem()
        system._coords["a"] = (0.0, 0.0)
        system._coords["b"] = (2.0, 4.0)
        system._errors["a"] = system._errors["b"] = 1.0
        assert system.centroid(["a", "b"]) == (1.0, 2.0)

    def test_centroid_empty_rejected(self):
        with pytest.raises(ValueError):
            VivaldiSystem().centroid([])

    def test_deterministic_for_seed(self):
        truth = grid_delays()
        a = VivaldiSystem(seed=9)
        b = VivaldiSystem(seed=9)
        seed_coordinates_from_delays(a, truth, rounds=10, seed=4)
        seed_coordinates_from_delays(b, truth, rounds=10, seed=4)
        assert a.coordinate("n3") == b.coordinate("n3")


class TestCoordinateRpSelection:
    def test_selector_picks_router_near_subscribers(self):
        """End to end: balancer + Vivaldi selector choose the candidate
        closest to the subscriber centroid."""
        from repro.core import (
            GCopssHost,
            GCopssNetworkBuilder,
            GCopssRouter,
            RpLoadBalancer,
            RpTable,
        )
        from repro.sim.network import Network

        net = Network()
        # A line: R0 .. R5; subscribers hang off R4/R5, old RP at R0.
        routers = [GCopssRouter(net, f"R{i}") for i in range(6)]
        for a, b in zip(routers, routers[1:]):
            net.connect(a, b, 10.0)
        subscriber = GCopssHost(net, "sub")
        net.connect(subscriber, routers[5], 1.0)
        table = RpTable()
        for p in ("/1", "/2", "/0"):
            table.assign(p, "R0")
        GCopssNetworkBuilder(net, table).install()
        subscriber.subscribe(["/1", "/2"])
        net.sim.run()

        system = VivaldiSystem(seed=2)
        truth = {
            (f"R{i}", f"R{j}"): 10.0 * abs(i - j)
            for i in range(6)
            for j in range(i + 1, 6)
        }
        seed_coordinates_from_delays(system, truth, rounds=60)

        selector = coordinate_rp_selector(
            system, subscriber_router_of=lambda prefixes: ["R5"]
        )
        balancer = RpLoadBalancer(
            routers[0],
            candidates=[f"R{i}" for i in range(6)],
            queue_threshold=1000,
            rp_selector=selector,
        )
        chosen = balancer.rp_selector(balancer, [])
        # Closest idle router to R5's coordinate is R5 itself, then R4.
        assert chosen in ("R5", "R4")

    def test_selector_falls_back_without_subscribers(self):
        from repro.core import GCopssRouter, RpLoadBalancer, RpTable, GCopssNetworkBuilder
        from repro.sim.network import Network

        net = Network()
        routers = [GCopssRouter(net, f"R{i}") for i in range(3)]
        for a, b in zip(routers, routers[1:]):
            net.connect(a, b, 1.0)
        table = RpTable()
        table.assign("/1", "R0")
        GCopssNetworkBuilder(net, table).install()
        system = VivaldiSystem(seed=2)
        selector = coordinate_rp_selector(system, lambda prefixes: [])
        balancer = RpLoadBalancer(
            routers[0], candidates=["R1", "R2"], queue_threshold=1000,
            rp_selector=selector,
        )
        assert balancer.rp_selector(balancer, []) == "R1"
