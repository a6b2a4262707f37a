"""Tests for the metrics registry and exporters (`repro.obs`)."""

import json
import struct

import pytest

from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    TimeSeries,
    WindowedHistogram,
)
from repro.obs.tracer import TraceEvent
from repro.sim.engine import Simulator
from repro.sim.faults import FaultStats
from repro.sim.stats import NodeStats


class TestTimeSeries:
    def test_append_and_latest(self):
        series = TimeSeries("x", capacity=8)
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.points() == [(1.0, 10.0), (2.0, 20.0)]
        assert series.latest() == (2.0, 20.0)
        assert len(series) == 2

    def test_ring_buffer_evicts_oldest(self):
        series = TimeSeries("x", capacity=3)
        for i in range(10):
            series.append(float(i), float(i))
        assert [t for t, _ in series.points()] == [7.0, 8.0, 9.0]

    def test_empty_latest_is_none(self):
        assert TimeSeries("x").latest() is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=0)


class TestCounterAndHistogram:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_rolls_and_resets(self):
        hist = WindowedHistogram("h")
        hist.observe(1.0)
        hist.observe(3.0)
        assert hist.roll() == {"count": 2, "mean": 2.0, "max": 3.0}
        # Window reset: the next roll sees nothing.
        assert hist.roll() == {"count": 0, "mean": 0.0, "max": 0.0}


class TestRegistry:
    def test_gauge_sampled_into_series(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.gauge("g", lambda: state["v"])
        reg.sample(0.0)
        state["v"] = 5.0
        reg.sample(1.0)
        assert reg.series["g"].points() == [(0.0, 1.0), (1.0, 5.0)]

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("g", lambda: 0)
        with pytest.raises(ValueError):
            reg.gauge("g", lambda: 1)
        with pytest.raises(ValueError):
            reg.counter("g")

    def test_histogram_series_per_stat(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        hist.observe(2.0)
        reg.sample(0.0)
        assert reg.series["lat.count"].latest() == (0.0, 1)
        assert reg.series["lat.mean"].latest() == (0.0, 2.0)
        assert reg.series["lat.max"].latest() == (0.0, 2.0)

    def test_register_stats_auto_registers_numeric_fields(self):
        reg = MetricsRegistry()
        stats = NodeStats()
        n = reg.register_stats("node.r1", stats)
        assert n > 10
        stats.packets_received = 7
        reg.sample(0.0)
        assert reg.series["node.r1.packets_received"].latest() == (0.0, 7)

    def test_register_fault_stats_skips_mapping_fields(self):
        reg = MetricsRegistry()
        stats = FaultStats()
        stats.count_drop("a", "b", "random")
        reg.register_stats("faults", stats)
        reg.sample(0.0)
        assert reg.series["faults.dropped"].latest() == (0.0, 1)
        # drops_by_link is a dict, last_drop_reason a str: not series.
        assert "faults.drops_by_link" not in reg.series
        assert "faults.last_drop_reason" not in reg.series

    def test_register_stats_requires_dataclass(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register_stats("x", object())

    def test_schedule_ticks_bounded_and_cancellable(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("now", lambda: sim.now)
        count = reg.schedule_ticks(sim, interval_ms=10.0, until=55.0)
        assert count == 5
        sim.run()  # bounded ticks: full drain terminates
        assert [t for t, _ in reg.series["now"].points()] == [
            10.0, 20.0, 30.0, 40.0, 50.0,
        ]
        reg.schedule_ticks(sim, interval_ms=10.0, until=sim.now + 30.0)
        reg.cancel_ticks()
        before = len(reg.series["now"])
        sim.run()
        assert len(reg.series["now"]) == before

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().schedule_ticks(Simulator(), 0.0, 10.0)


def _ev(t, tid, node, kind, peer="", detail="", uid=None):
    return TraceEvent(
        t=t, trace_id=tid, uid=uid if uid is not None else tid, node=node,
        kind=kind, ptype="MulticastPacket", cd="/cs", peer=peer, detail=detail,
    )


class TestExporters:
    EVENTS = [
        _ev(0.0, 1, "h1", "publish"),
        _ev(0.0, 1, "h1", "forward", peer="r1"),
        _ev(0.5, 1, "r1", "enqueue"),
        _ev(1.5, 1, "r1", "service"),
        _ev(2.0, 1, "r1", "drop", detail="no_rp"),
    ]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        n = write_events_jsonl(path, self.EVENTS)
        assert n == len(self.EVENTS)
        assert read_events_jsonl(path) == self.EVENTS

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self.EVENTS)
        rows = doc["traceEvents"]
        # Metadata names every node, enqueue+service pair into one span.
        metas = [r for r in rows if r["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"h1", "r1"}
        (span,) = [r for r in rows if r["ph"] == "X"]
        assert span["ts"] == pytest.approx(500.0)  # ms -> us
        assert span["dur"] == pytest.approx(1000.0)
        instants = [r for r in rows if r["ph"] == "i"]
        assert {r["cat"] for r in instants} == {"publish", "forward", "drop"}
        json.dumps(doc)  # must be JSON-serialisable as-is

    def test_chrome_trace_unserved_enqueue_still_visible(self, tmp_path):
        events = [_ev(1.0, 2, "r1", "enqueue")]
        doc = chrome_trace(events)
        (span,) = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert "unserved" in span["name"]
        path = tmp_path / "c.json"
        write_chrome_trace(path, events)
        assert json.loads(path.read_text())["traceEvents"]

    def test_prometheus_text_latest_sample_per_series(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.gauge("node.r1.queue length", lambda: state["v"])
        reg.sample(0.0)
        state["v"] = 9.0
        reg.sample(250.0)
        text = prometheus_text(reg)
        # Sanitized name, TYPE header, latest value with its timestamp.
        assert "# TYPE repro_node_r1_queue_length gauge" in text
        assert "repro_node_r1_queue_length 9.0 250" in text
        assert "1.0 0" not in text


def _stats_blocks(count, width):
    """``count`` counter dataclasses of ``width`` integer fields each."""
    from dataclasses import make_dataclass

    Stats = make_dataclass(
        "Stats", [(f"f{i}", int, 0) for i in range(width)]
    )
    return [Stats() for _ in range(count)]


class TestBlocks:
    """Sources registered together share one float64 table; a series is a view."""

    def test_ring_keeps_last_capacity_rows_across_trims(self):
        capacity = 8
        reg = MetricsRegistry(capacity=capacity)
        (stats,) = _stats_blocks(1, 2)
        reg.register_stats("s", stats)
        taken = []
        # Far enough to cross the amortised trim point several times.
        for tick in range(6 * capacity + 40):
            stats.f0, stats.f1 = tick, -tick
            reg.sample(float(tick))
            taken.append(tick)
            kept = taken[-capacity:]
            f0, f1 = reg.series["s.f0"], reg.series["s.f1"]
            assert len(f0) == len(f1) == len(kept)
            assert f0.points() == [(float(t), float(t)) for t in kept]
            assert f1.points() == [(float(t), float(-t)) for t in kept]
            assert f1.latest() == (float(tick), float(-tick))

    def test_storage_is_bounded_by_the_ring(self):
        reg = MetricsRegistry(capacity=100)
        reg.gauge("g", lambda: 1)
        for tick in range(10_000):
            reg.sample(float(tick))
        (block,) = reg._blocks
        assert len(block.times) <= 2 * 100

    def test_late_source_starts_at_its_first_sample(self):
        reg = MetricsRegistry()
        reg.gauge("early", lambda: 1)
        reg.sample(0.0)
        reg.sample(1.0)
        assert "late" not in reg.as_dict()
        reg.gauge("late", lambda: 2)
        assert reg.series["late"].latest() is None
        assert "late" not in reg.as_dict()  # registered, not yet sampled
        reg.sample(2.0)
        assert reg.series["late"].points() == [(2.0, 2.0)]  # no back-fill
        assert len(reg.series["early"]) == 3

    def test_histogram_series_roll_per_tick(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        assert reg.names() == ["lat.count", "lat.max", "lat.mean"]
        hist.observe(1.0)
        hist.observe(3.0)
        reg.sample(0.0)
        reg.sample(1.0)  # empty window
        assert reg.series["lat.count"].points() == [(0.0, 2), (1.0, 0)]
        assert reg.series["lat.mean"].points() == [(0.0, 2.0), (1.0, 0.0)]
        assert reg.series["lat.max"].points() == [(0.0, 3.0), (1.0, 0.0)]
        with pytest.raises(ValueError):
            reg.gauge("lat", lambda: 0)
        with pytest.raises(ValueError):
            reg.histogram("lat")

    def test_counter_and_network_aggregates_are_blocks(self):
        class Net:
            total_bytes = 10
            total_packets = 2

        reg = MetricsRegistry()
        hits = reg.counter("hits")
        assert reg.register_network(Net(), per_node=False) == 2
        hits.inc(3)
        reg.sample(5.0)
        assert reg.series["hits"].latest() == (5.0, 3)
        assert reg.series["net.total_bytes"].latest() == (5.0, 10)
        assert reg.series["net.total_packets"].latest() == (5.0, 2)

    def test_node_roles_with_one_key_and_with_none(self):
        class Role:
            def __init__(self, **values):
                self.values = values
                self.calls = 0

            def telemetry(self):
                self.calls += 1
                return dict(self.values)

        class FakeNode:
            name = "n"
            stats = NodeStats()
            roles = {"one": Role(x=4), "none": Role(), "two": Role(a=1, b=2)}

        reg = MetricsRegistry()
        fields = reg.register_stats("other", NodeStats())
        assert reg.register_node(FakeNode()) == fields + 3
        before = {name: role.calls for name, role in FakeNode.roles.items()}
        reg.sample(0.0)
        # One telemetry() call per role per tick, not one per key.
        assert FakeNode.roles["two"].calls == before["two"] + 1
        assert FakeNode.roles["none"].calls == before["none"]
        assert reg.series["node.n.one.x"].latest() == (0.0, 4)
        assert reg.series["node.n.two.b"].latest() == (0.0, 2)

    def test_simulator_block_reads_telemetry_once_per_tick(self):
        class Sim:
            calls = 0

            def telemetry(self):
                Sim.calls += 1
                return {"now_ms": 1.5, "events_processed": 9}

        reg = MetricsRegistry()
        assert reg.register_simulator(Sim()) == 2
        assert Sim.calls == 1  # registration asks for the keys once
        reg.sample(0.0)
        assert Sim.calls == 2
        assert reg.series["sim.events_processed"].latest() == (0.0, 9)

    def test_view_rejects_append_and_keeps_repr(self):
        reg = MetricsRegistry()
        reg.register_stats("s", _stats_blocks(1, 3)[0])
        reg.sample(0.0)
        series = reg.series["s.f1"]
        assert repr(series) == "TimeSeries('s.f1', 1 points)"
        with pytest.raises(struct.error):  # a view is not a one-column series
            series.append(1.0, 1.0)
        assert len(series) == 1
        assert reg.names() == ["s.f0", "s.f1", "s.f2"]

    def test_duplicate_in_a_block_registers_nothing(self):
        reg = MetricsRegistry()
        reg.gauge("s.f1", lambda: 0)
        with pytest.raises(ValueError):
            reg.register_stats("s", _stats_blocks(1, 3)[0])
        assert reg.names() == ["s.f1"]


class TestStorageBudget:
    """What a sample costs, as counts that repeat exactly (no timings)."""

    BLOCKS, WIDTH, TICKS = 10, 20, 5_000

    def _registry(self):
        reg = MetricsRegistry(capacity=self.TICKS)
        for i, stats in enumerate(_stats_blocks(self.BLOCKS, self.WIDTH)):
            reg.register_stats(f"b{i}", stats)
        assert len(reg._blocks) == self.BLOCKS
        return reg

    def test_at_most_12_bytes_retained_per_sample(self):
        import tracemalloc

        reg = self._registry()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for tick in range(self.TICKS):
                reg.sample(float(tick))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        samples = self.BLOCKS * self.WIDTH * self.TICKS
        assert len(reg.series["b0.f0"]) == self.TICKS
        assert (after - before) / samples <= 12

    def test_no_gc_tracked_object_per_sample(self):
        import gc

        reg = self._registry()
        for tick in range(100):  # steady state
            reg.sample(float(tick))
        gc.collect()
        before = len(gc.get_objects())
        for tick in range(100, 1100):
            reg.sample(float(tick))
        assert len(gc.get_objects()) - before <= 8
