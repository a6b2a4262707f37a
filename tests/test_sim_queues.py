"""Tests for the FIFO service station (router/RP/server processing)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.queues import ServiceQueue


def drain(sim):
    sim.run()


class TestBasicService:
    def test_single_item_served_after_service_time(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        done = []
        queue.submit("a", 3.0, lambda item: done.append((item, sim.now)))
        drain(sim)
        assert done == [("a", 3.0)]

    def test_fifo_order(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        done = []
        for tag in "abc":
            queue.submit(tag, 1.0, lambda item: done.append(item))
        drain(sim)
        assert done == ["a", "b", "c"]

    def test_serialized_completion_times(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        times = []
        for _ in range(3):
            queue.submit(None, 2.0, lambda _: times.append(sim.now))
        drain(sim)
        assert times == [2.0, 4.0, 6.0]

    def test_negative_service_time_rejected(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        with pytest.raises(ValueError):
            queue.submit("x", -1.0, lambda _: None)

    def test_zero_service_time(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        done = []
        queue.submit("x", 0.0, done.append)
        drain(sim)
        assert done == ["x"]


class TestQueueState:
    def test_backlog_and_queue_length(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        for _ in range(4):
            queue.submit(None, 1.0, lambda _: None)
        # One in service, three waiting.
        assert queue.queue_length == 3
        assert queue.backlog == 4
        drain(sim)
        assert queue.backlog == 0

    def test_peak_queue_length(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        for _ in range(5):
            queue.submit(None, 1.0, lambda _: None)
        drain(sim)
        assert queue.peak_queue_length == 4  # head went straight to service

    def test_wait_time_accounting(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        # Two items at t=0, 2ms service: waits are 0 and 2.
        queue.submit(None, 2.0, lambda _: None)
        queue.submit(None, 2.0, lambda _: None)
        drain(sim)
        assert queue.served == 2
        assert queue.total_wait_time == pytest.approx(2.0)
        assert queue.mean_wait == pytest.approx(1.0)

    def test_utilization_time(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        queue.submit(None, 1.5, lambda _: None)
        queue.submit(None, 2.5, lambda _: None)
        drain(sim)
        assert queue.total_service_time == pytest.approx(4.0)

    def test_unstable_queue_grows(self):
        """Arrivals faster than service accumulate backlog (the Table I
        1-RP congestion mechanism)."""
        sim = Simulator()
        queue = ServiceQueue(sim)
        for i in range(100):
            sim.schedule(i * 1.0, queue.submit, None, 2.0, lambda _: None)
        sim.run(until=100.0)
        assert queue.backlog >= 45

    def test_on_enqueue_observer(self):
        sim = Simulator()
        queue = ServiceQueue(sim)
        lengths = []
        queue.on_enqueue.append(lambda q: lengths.append(q.queue_length))
        for _ in range(3):
            queue.submit(None, 1.0, lambda _: None)
        assert lengths == [0, 1, 2]


class TestMd1Sanity:
    def test_mean_wait_matches_md1_within_tolerance(self):
        """Poisson arrivals into a deterministic server: mean wait should
        land near the M/D/1 formula rho*s/(2(1-rho))."""
        import random

        rng = random.Random(1)
        sim = Simulator()
        queue = ServiceQueue(sim)
        service = 1.0
        rho = 0.7
        t = 0.0
        n = 8000
        for _ in range(n):
            t += rng.expovariate(rho / service)
            sim.schedule_at(t, queue.submit, None, service, lambda _: None)
        sim.run()
        expected = rho * service / (2 * (1 - rho))
        assert queue.mean_wait == pytest.approx(expected, rel=0.25)
