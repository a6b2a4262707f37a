"""Tests for the metrics registry and exporters (`repro.obs`)."""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import TraceEvent
from repro.sim.engine import Simulator
from repro.sim.faults import FaultStats
from repro.sim.stats import NodeStats


def gauge(reg, name, fn):
    """Register one read-on-tick source as a one-column block."""
    reg._add_block((name,), lambda: (fn(),))


def one_gauge(capacity=1024):
    """A registry with one gauge ``x`` that reads whatever ``state`` holds."""
    reg = MetricsRegistry(capacity=capacity)
    state = {"v": 0.0}
    gauge(reg, "x", lambda: state["v"])
    return reg, state, reg.series["x"]


class TestTimeSeries:
    def test_append_and_latest(self):
        reg, state, series = one_gauge(capacity=8)
        state["v"] = 10.0
        reg.sample(1.0)
        state["v"] = 20.0
        reg.sample(2.0)
        assert series.points() == [(1.0, 10.0), (2.0, 20.0)]
        assert series.latest() == (2.0, 20.0)
        assert len(series) == 2

    def test_ring_buffer_evicts_oldest(self):
        reg, state, series = one_gauge(capacity=3)
        for i in range(10):
            state["v"] = float(i)
            reg.sample(float(i))
        assert [t for t, _ in series.points()] == [7.0, 8.0, 9.0]

    def test_empty_latest_is_none(self):
        assert one_gauge()[2].latest() is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(capacity=0)


class TestRegistry:
    def test_gauge_sampled_into_series(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        gauge(reg, "g", lambda: state["v"])
        reg.sample(0.0)
        state["v"] = 5.0
        reg.sample(1.0)
        assert reg.series["g"].points() == [(0.0, 1.0), (1.0, 5.0)]

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        gauge(reg, "g", lambda: 0)
        with pytest.raises(ValueError):
            gauge(reg, "g", lambda: 1)

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
        gauge(reg, "now", lambda: sim.now)
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
        gauge(reg, "node.r1.queue length", lambda: state["v"])
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
        gauge(reg, "g", lambda: 1)
        for tick in range(10_000):
            reg.sample(float(tick))
        assert len(reg.times) <= 2 * 100

    def test_late_source_starts_at_its_first_sample(self):
        reg = MetricsRegistry()
        gauge(reg, "early", lambda: 1)
        reg.sample(0.0)
        reg.sample(1.0)
        assert "late" not in reg.as_dict()
        gauge(reg, "late", lambda: 2)
        assert reg.series["late"].latest() is None
        assert "late" not in reg.as_dict()  # registered, not yet sampled
        reg.sample(2.0)
        assert reg.series["late"].points() == [(2.0, 2.0)]  # no back-fill
        assert len(reg.series["early"]) == 3

    def test_counter_and_network_aggregates_are_blocks(self):
        class Net:
            total_bytes = 10
            total_packets = 2
            nodes = {}

        reg = MetricsRegistry()
        hits = {"v": 0}
        gauge(reg, "hits", lambda: hits["v"])
        assert reg.register_network(Net()) == 2
        hits["v"] += 3
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
        assert not hasattr(series, "append")  # only sample() writes
        assert len(series) == 1
        assert reg.names() == ["s.f0", "s.f1", "s.f2"]

    def test_duplicate_in_a_block_registers_nothing(self):
        reg = MetricsRegistry()
        gauge(reg, "s.f1", lambda: 0)
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

    def test_only_moving_columns_take_storage(self):
        """One field in ten moves: 12 B a sample of it at most, 0 B for the rest."""
        import tracemalloc

        blocks, width, ticks = 10, 40, 2_000
        reg = MetricsRegistry(capacity=ticks)
        stats = _stats_blocks(blocks, width)
        for i, block in enumerate(stats):
            reg.register_stats(f"m{i}", block)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for tick in range(ticks):
                for block in stats:
                    block.f0 = block.f10 = block.f20 = block.f30 = tick + 1
                reg.sample(float(tick))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        moving = blocks * (width // 10) * ticks
        dormant = blocks * width * ticks - moving
        assert reg.series["m9.f30"].latest() == (ticks - 1.0, ticks)
        assert reg.series["m9.f31"].points() == [(float(t), 0.0) for t in range(ticks)]
        assert after - before <= 12 * moving + 0 * dormant

    def test_one_tick_time_column_for_all_blocks(self):
        """N one-field blocks sampled T ticks keep 8*T bytes of times, not 8*N*T."""
        import tracemalloc

        blocks, ticks = 50, 2_000
        reg = MetricsRegistry(capacity=ticks)
        for i in range(blocks):
            gauge(reg, f"g{i}", lambda: 0)  # dormant: the values cost nothing
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for tick in range(ticks):
                reg.sample(float(tick))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reg.series["g49"]) == ticks
        # array growth over-allocates by at most an eighth, plus slack.
        assert after - before <= 8 * ticks * 1.25 + 4096

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


def _bits(value):
    """A sample as its float64 bytes: -0.0 and NaN compare exactly."""
    return struct.pack("d", value)


@st.composite
def _block_runs(draw):
    """A block's width, capacity and row stream: columns wake at random rows."""
    width = draw(st.integers(1, 5))
    capacity = draw(st.integers(1, 12))
    ticks = draw(st.integers(0, 3 * capacity + 40))  # past the trim point
    moved = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, 7, -2.5, math.nan, math.inf])
    wakes = [draw(st.none() | st.integers(0, ticks)) for _ in range(width)]
    rows = [
        tuple(
            0.0 if wake is None or tick < wake else draw(moved) for wake in wakes
        )
        for tick in range(ticks)
    ]
    return width, capacity, rows


class TestAgainstListOfRows:
    """Every read of the stored block agrees with a naive list-of-rows model."""

    @settings(max_examples=150)
    @given(run=_block_runs())
    def test_points_latest_and_len_match_the_model(self, run):
        width, capacity, rows = run
        reg = MetricsRegistry(capacity=capacity)
        names = [f"c{c}" for c in range(width)]
        current = []
        reg._add_block(names, lambda: current[-1])
        for name in names:
            assert reg.series[name].latest() is None
        for tick, row in enumerate(rows):
            current.append(row)
            reg.sample(float(tick))
            kept = list(enumerate(current))[-capacity:]
            for c, name in enumerate(names):
                series = reg.series[name]
                want = [(float(t), _bits(r[c])) for t, r in kept]
                assert [(t, _bits(v)) for t, v in series.points()] == want
                t, value = series.latest()
                assert (t, _bits(value)) == want[-1]
                assert len(series) == len(kept)
        assert sorted(reg.as_dict()) == (names if rows else [])
