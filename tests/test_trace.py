"""Tests for trace generation, filtering, IO and statistics."""

import subprocess
import sys

import pytest

from repro.game import GameMap
from repro.trace import (
    CounterStrikeTraceGenerator,
    RawPacket,
    TraceStatistics,
    filter_raw_trace,
    full_trace_spec,
    microbenchmark_spec,
    peak_trace_spec,
)
from repro.trace.filters import synthesize_raw_capture
from repro.trace.generator import TraceSpec
from repro.trace.io import iter_events, read_events, write_events
from repro.trace.model import Trace, UpdateEvent


class TestSpecs:
    def test_peak_spec_matches_paper(self):
        spec = peak_trace_spec()
        assert spec.num_players == 414
        assert spec.num_updates == 100_000
        assert spec.mean_interarrival_ms == pytest.approx(2.4)

    def test_full_spec_matches_paper(self):
        spec = full_trace_spec()
        assert spec.num_players == 414
        assert spec.num_updates == 1_686_905
        # 1.69M updates over 7h05m25s -> ~15.1 ms.
        assert spec.mean_interarrival_ms == pytest.approx(15.13, rel=0.01)

    def test_microbenchmark_spec_matches_paper(self):
        spec = microbenchmark_spec()
        assert spec.num_players == 62
        assert spec.num_updates == 12_440
        assert spec.duration_ms == pytest.approx(600_000.0)

    def test_scaling(self):
        assert full_trace_spec(scale=0.01).num_updates == round(1_686_905 * 0.01)
        assert microbenchmark_spec(scale=0.5).num_updates == 6220

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TraceSpec(num_players=0, num_updates=1, mean_interarrival_ms=1)
        with pytest.raises(ValueError):
            TraceSpec(num_players=1, num_updates=1, mean_interarrival_ms=0)
        with pytest.raises(ValueError):
            TraceSpec(num_players=1, num_updates=1, mean_interarrival_ms=1, size_range=(5, 1))


class TestGenerator:
    def make(self, updates=5000):
        game_map = GameMap(seed=1)
        generator = CounterStrikeTraceGenerator(
            game_map, peak_trace_spec(num_updates=updates, seed=1)
        )
        return game_map, generator, generator.generate()

    def test_event_count_and_order(self):
        _, generator, events = self.make()
        assert len(events) == 5000
        times = [e.time_ms for e in events]
        assert times == sorted(times)

    def test_deterministic(self):
        _, _, events_a = self.make()
        _, _, events_b = self.make()
        assert events_a == events_b

    def test_sizes_in_range(self):
        _, _, events = self.make()
        assert all(50 <= e.size <= 350 for e in events)

    def test_mean_interarrival(self):
        _, _, events = self.make()
        mean = events[-1].time_ms / len(events)
        assert mean == pytest.approx(2.4, rel=0.1)

    def test_updates_target_visible_objects_only(self):
        game_map, generator, events = self.make(2000)
        for event in events[:500]:
            area = generator.placement[event.player]
            assert event.cd in game_map.hierarchy.visible_leaf_cds(area)
            assert game_map.area_of_object(event.object_id) == event.cd

    def test_activity_skew(self):
        game_map, generator, events = self.make()
        counts = dict.fromkeys(generator.placement, 0)
        for event in events:
            counts[event.player] += 1
        values = sorted(counts.values())
        assert values[-1] > 5 * (sum(values) / len(values))  # long tail

    def test_rescale_players_scales_rate(self):
        game_map, generator, _ = self.make(1000)
        bigger = generator.rescale_players(828)
        assert bigger.spec.mean_interarrival_ms == pytest.approx(
            generator.spec.mean_interarrival_ms / 2
        )
        assert len(bigger.placement) == 828

    def test_rescale_players_constant_rate_mode(self):
        game_map, generator, _ = self.make(1000)
        bigger = generator.rescale_players(828, scale_rate=False)
        assert bigger.spec.mean_interarrival_ms == generator.spec.mean_interarrival_ms


class TestStatistics:
    def test_collect_matches_paper_envelopes(self):
        game_map = GameMap(seed=1)
        generator = CounterStrikeTraceGenerator(
            game_map, peak_trace_spec(num_updates=20_000, seed=1)
        )
        events = generator.generate()
        stats = TraceStatistics.collect(events, game_map, generator.placement)
        env = stats.area_envelopes()
        lo, hi = env["players_per_area"]
        assert 4 <= lo and hi <= 20
        lo, hi = env["objects_per_area"]
        assert 80 <= lo and hi <= 120
        assert stats.skew_ratio() > 2

    def test_layer_update_stratification(self):
        """Top-layer objects are visible to everyone and thus hottest
        (paper §V-B)."""
        game_map = GameMap(seed=1)
        generator = CounterStrikeTraceGenerator(
            game_map, peak_trace_spec(num_updates=30_000, seed=1)
        )
        stats = TraceStatistics.collect(
            generator.generate(), game_map, generator.placement
        )
        top_min, top_max = stats.updates_per_layer[0]
        bottom_min, bottom_max = stats.updates_per_layer[2]
        assert top_min > bottom_max

    def test_player_cdf_shape(self):
        game_map = GameMap(seed=1)
        generator = CounterStrikeTraceGenerator(
            game_map, peak_trace_spec(num_updates=5000, seed=1)
        )
        stats = TraceStatistics.collect(
            generator.generate(), game_map, generator.placement
        )
        cdf = stats.player_update_cdf()
        assert len(cdf) == 414
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        game_map = GameMap(seed=1)
        with pytest.raises(ValueError):
            TraceStatistics.collect([], game_map, {})


class TestRawFilter:
    def test_paper_pipeline(self):
        capture = synthesize_raw_capture(num_players=40, num_probes=25, seed=9)
        report = filter_raw_trace(capture, server_addr="10.0.0.1")
        # Step 1 halves the capture (every client packet was mirrored).
        assert report.server_packets_dropped == report.total_packets // 2
        # Step 2 removed the probes, step 3 collapsed ports to addresses.
        assert len(report.players) == 40
        assert report.probe_packets_dropped > 0
        assert all(p.src_addr != "10.0.0.1" for p in report.events)

    def test_flow_threshold(self):
        packets = [
            RawPacket(float(i), "1.1.1.1", 1000, "10.0.0.1", 27015, 100)
            for i in range(10)
        ]
        report = filter_raw_trace(packets[:9], server_addr="10.0.0.1")
        assert report.players == []
        report = filter_raw_trace(packets, server_addr="10.0.0.1")
        assert report.players == ["1.1.1.1"]

    def test_events_sorted(self):
        capture = synthesize_raw_capture(seed=2)
        report = filter_raw_trace(capture, server_addr="10.0.0.1")
        assert report.events == sorted(report.events)


class TestIo:
    def test_round_trip(self, tmp_path):
        game_map = GameMap(seed=1)
        generator = CounterStrikeTraceGenerator(
            game_map, peak_trace_spec(num_updates=500, seed=1)
        )
        events = generator.generate()
        path = tmp_path / "trace.jsonl"
        assert write_events(path, events) == 500
        loaded = read_events(path)
        assert isinstance(loaded, Trace) and loaded == events
        again = tmp_path / "again.jsonl"
        write_events(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_streaming(self, tmp_path):
        events = [UpdateEvent(1.0, "p", "/1/1", 3, 100)]
        path = tmp_path / "t.jsonl"
        write_events(path, events)
        assert list(iter_events(path)) == events

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "player": "p"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_events(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t":1.0,"player":"p","cd":"/1/1","obj":3,"size":100}\n\n'
        )
        assert len(read_events(path)) == 1


class TestEventModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateEvent(-1.0, "p", "/1", 0, 10)
        with pytest.raises(ValueError):
            UpdateEvent(0.0, "p", "/1", 0, 0)

    def test_ordering_by_time(self):
        a = UpdateEvent(1.0, "p", "/1", 0, 10)
        b = UpdateEvent(2.0, "a", "/1", 0, 10)
        assert a < b


class TestPackage:
    def test_live_runners_load_only_the_trace_model(self):
        """``repro.trace``'s other submodules load on first use, not with it."""
        probe = (
            "import sys, repro.net.runner, repro.net.testbed; "
            "print(*sorted(m for m in sys.modules if m.startswith('repro.trace.')))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout.split()
        assert "repro.trace.model" in loaded
        for module in ("generator", "filters", "stats"):
            assert f"repro.trace.{module}" not in loaded

    def test_package_names_resolve_on_access(self):
        import repro.trace

        assert repro.trace.TraceSpec is TraceSpec
        with pytest.raises(AttributeError):
            repro.trace.no_such_name  # noqa: B018
