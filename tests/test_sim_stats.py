"""Tests for metric recorders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import (
    CDF_POINTS,
    LatencyRecorder,
    SeriesRecorder,
    summarize,
)


class TestLatencyRecorder:
    def test_basic_stats(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0, 3.0, 4.0])
        assert rec.mean == pytest.approx(2.5)
        assert rec.minimum == 1.0
        assert rec.maximum == 4.0
        assert rec.count == 4

    def test_percentile_interpolation(self):
        rec = LatencyRecorder()
        rec.extend([0.0, 10.0])
        assert rec.percentile(50) == pytest.approx(5.0)
        assert rec.percentile(0) == 0.0
        assert rec.percentile(100) == 10.0

    def test_percentile_out_of_range(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = LatencyRecorder().mean

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_fraction_below(self):
        rec = LatencyRecorder()
        rec.extend([1, 2, 3, 4, 5])
        assert rec.fraction_below(3) == pytest.approx(0.4)
        assert rec.fraction_below(100) == 1.0
        assert rec.fraction_below(0.5) == 0.0

    def test_cdf_points_monotone(self):
        rec = LatencyRecorder()
        rec.extend([5, 1, 3, 2, 4])
        points = rec.cdf_points()
        values = [v for v, _ in points]
        fracs = [f for _, f in points]
        assert values == sorted(values)
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)

    def test_cdf_points_downsampled(self):
        rec = LatencyRecorder()
        rec.extend(float(i) for i in range(1000))
        points = rec.cdf_points()
        assert len(points) == CDF_POINTS
        assert points[-1][1] == pytest.approx(1.0)

    def test_confidence_interval_shrinks_with_samples(self):
        import random

        rng = random.Random(0)
        small = LatencyRecorder()
        big = LatencyRecorder()
        small.extend(rng.gauss(10, 2) + 10 for _ in range(10))
        big.extend(rng.gauss(10, 2) + 10 for _ in range(1000))
        assert big.confidence_interval_95() < small.confidence_interval_95()

    def test_summarize_keys(self):
        rec = LatencyRecorder("x")
        rec.extend([1.0, 2.0])
        info = summarize(rec)
        assert info["count"] == 2
        assert set(info) >= {"mean", "min", "max", "p50", "p95", "p99", "ci95"}

    def test_summarize_empty(self):
        # Full schema even when empty: None statistics keep table columns
        # aligned with non-empty rows (rendered as "—" by report._fmt).
        assert summarize(LatencyRecorder("x")) == {
            "name": "x",
            "count": 0,
            "mean": None,
            "min": None,
            "max": None,
            "p50": None,
            "p95": None,
            "p99": None,
            "ci95": None,
        }

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_bounded_by_extremes(self, samples):
        rec = LatencyRecorder()
        rec.extend(samples)
        for q in (0, 25, 50, 75, 100):
            assert rec.minimum <= rec.percentile(q) <= rec.maximum

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=200))
    def test_percentile_monotone_in_q(self, samples):
        rec = LatencyRecorder()
        rec.extend(samples)
        values = [rec.percentile(q) for q in (10, 30, 50, 70, 90)]
        assert values == sorted(values)


class TestSeriesRecorder:
    def test_bucketing(self):
        series = SeriesRecorder(bucket_width=10)
        series.record(0, 1.0)
        series.record(5, 3.0)
        series.record(10, 7.0)
        rows = series.envelope()
        assert rows == [(0, 1.0, 2.0, 3.0), (10, 7.0, 7.0, 7.0)]

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValueError):
            SeriesRecorder().record(-1, 1.0)

    def test_zero_bucket_width_rejected(self):
        with pytest.raises(ValueError):
            SeriesRecorder(bucket_width=0)

    def test_count(self):
        series = SeriesRecorder(bucket_width=2)
        for i in range(7):
            series.record(i, float(i))
        assert series.count == 7

    def test_rows_sorted_by_bucket(self):
        series = SeriesRecorder(bucket_width=10)
        series.record(25, 1.0)
        series.record(3, 1.0)
        starts = [row[0] for row in series.envelope()]
        assert starts == sorted(starts)

    def test_empty_envelope(self):
        assert SeriesRecorder().envelope() == []
        assert SeriesRecorder().count == 0

    def test_boundary_sequence_starts_new_bucket(self):
        # Sequence == bucket_width belongs to the second bucket, not the
        # first: buckets are [0, w), [w, 2w), ...
        series = SeriesRecorder(bucket_width=10)
        series.record(9, 1.0)
        series.record(10, 2.0)
        assert [row[0] for row in series.envelope()] == [0, 10]

    def test_single_sample_bucket_collapses_min_mean_max(self):
        series = SeriesRecorder(bucket_width=10)
        series.record(4, 2.5)
        assert series.envelope() == [(0, 2.5, 2.5, 2.5)]
