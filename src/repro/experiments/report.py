"""Plain-text rendering of experiment results (paper-style tables/series).

Benchmarks print through these helpers so a ``pytest benchmarks/`` run
leaves a readable record of every regenerated table and figure.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

__all__ = ["render_table", "render_series", "render_cdf"]

#: Cumulative fractions a CDF table prints, one row each.
CDF_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """A boxed ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out = [title, sep]
    out.append("| " + " | ".join(c.ljust(w) for c, w in zip(columns, widths)) + " |")
    out.append(sep)
    for row in str_rows:
        out.append("| " + " | ".join(c.rjust(w) for c, w in zip(row, widths)) + " |")
    out.append(sep)
    return "\n".join(out)


def render_series(
    title: str,
    envelope: Sequence[Tuple[int, float, float, float]],
    max_rows: int = 25,
) -> str:
    """A (sequence -> min/avg/max) latency series, like Fig. 5's panels."""
    if not envelope:
        return f"{title}\n  (no samples)"
    step = max(1, len(envelope) // max_rows)
    shown = envelope[::step]
    peak = max(row[3] for row in envelope)
    out = [title]
    for seq, lo, avg, hi in shown:
        bar = "#" * max(1, int(40 * avg / peak)) if peak else ""
        out.append(
            f"  pkt {seq:>8}: min {lo:9.2f}  avg {avg:9.2f}  max {hi:9.2f} ms {bar}"
        )
    return "\n".join(out)


def render_cdf(
    title: str,
    curves: Dict[str, Sequence[Tuple[float, float]]],
) -> str:
    """Tabulated CDF comparison, like Fig. 4 (one column per system)."""
    names = list(curves)
    out = [title]
    header = "  fraction " + "".join(f"{n:>18}" for n in names)
    out.append(header)
    for q in CDF_QUANTILES:
        cells = []
        for name in names:
            points = curves[name]
            value = _value_at_fraction(points, q)
            cells.append(f"{value:>14.2f} ms" if value is not None else " " * 17)
        out.append(f"  {q:>8.2f} " + "".join(f"{c:>18}" for c in cells))
    return "\n".join(out)


def _value_at_fraction(
    points: Sequence[Tuple[float, float]], fraction: float
) -> "float | None":
    for value, frac in points:
        if frac >= fraction:
            return value
    return points[-1][0] if points else None


def _fmt(cell: object) -> str:
    if cell is None:
        return "—"
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.1f}"
        return f"{cell:.3f}" if cell < 10 else f"{cell:.2f}"
    return str(cell)
