"""Tests for the ASCII reporting helpers."""

from repro.experiments.report import (
    _value_at_fraction,
    render_cdf,
    render_series,
    render_table,
)


class TestRenderTable:
    def test_basic_layout(self):
        out = render_table("Title", ("a", "b"), [(1, 2.5), ("xy", 10000.0)])
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "| a" in lines[2]
        assert any("10,000.0" in line for line in lines)
        # All rows share the same width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_empty_rows(self):
        out = render_table("T", ("x",), [])
        assert "x" in out

    def test_float_formatting(self):
        out = render_table("T", ("v",), [(0.1234,), (42.5678,), (1234.5,)])
        assert "0.123" in out
        assert "42.57" in out
        assert "1,234.5" in out


class TestRenderSeries:
    def test_envelope_rows(self):
        envelope = [(0, 1.0, 2.0, 3.0), (1000, 2.0, 4.0, 6.0)]
        out = render_series("Fig", envelope)
        assert "Fig" in out
        assert "pkt        0" in out
        assert "avg      4.00" in out

    def test_empty(self):
        assert "(no samples)" in render_series("Fig", [])

    def test_downsampling(self):
        envelope = [(i * 10, 1.0, 2.0, 3.0) for i in range(100)]
        out = render_series("Fig", envelope, max_rows=10)
        assert len(out.splitlines()) <= 30


class TestRenderCdf:
    def test_multi_curve(self):
        curves = {
            "A": [(1.0, 0.5), (2.0, 1.0)],
            "B": [(10.0, 0.5), (20.0, 1.0)],
        }
        out = render_cdf("CDF", curves)
        assert "A" in out and "B" in out
        assert "20.00 ms" in out

    def test_value_at_fraction_clamps(self):
        curves = {"A": [(5.0, 0.9)]}
        last = render_cdf("CDF", curves).splitlines()[-1]
        assert last.split()[:2] == ["1.00", "5.00"]

    def test_none_cells_render_as_dash(self):
        out = render_table("T", ("a", "b"), [(None, 1.0)])
        assert "—" in out


class TestValueAtFraction:
    """Percentile-boundary behavior of the CDF lookup."""

    POINTS = [(1.0, 0.25), (2.0, 0.50), (3.0, 0.75), (4.0, 1.00)]

    def test_empty_points_is_none(self):
        assert _value_at_fraction([], 0.5) is None

    def test_fraction_zero_picks_first_point(self):
        assert _value_at_fraction(self.POINTS, 0.0) == 1.0

    def test_exact_fraction_boundary_inclusive(self):
        # frac >= fraction: an exact match returns that point, not the next.
        assert _value_at_fraction(self.POINTS, 0.50) == 2.0

    def test_between_points_rounds_up(self):
        assert _value_at_fraction(self.POINTS, 0.51) == 3.0

    def test_fraction_one_picks_last_point(self):
        assert _value_at_fraction(self.POINTS, 1.0) == 4.0

    def test_beyond_max_clamps_to_last(self):
        truncated = [(5.0, 0.9)]
        assert _value_at_fraction(truncated, 1.0) == 5.0

    def test_single_point(self):
        assert _value_at_fraction([(7.0, 1.0)], 0.5) == 7.0
