"""Perf-regression gates for the forwarding fast path.

These assert the speedups recorded in ``BENCH_fastpath.json`` keep
holding: the memoized ST match must stay well ahead of the uncached
reference scan, and the end-to-end Fig. 6-style run must stay faster
with the memo on — with bit-identical accounting either way.

Marked ``perf``: excluded from default runs (wall-clock assertions are
flaky on loaded machines); run with ``REPRO_PERF=1 pytest benchmarks/``
or ``pytest benchmarks/ -m perf``.
"""

import json

import pytest

from repro.experiments.perfbench import (
    bench_bloom_ops,
    bench_end_to_end,
    bench_fault_overhead,
    bench_st_match,
    bench_trace_overhead,
    default_output_path,
)

pytestmark = pytest.mark.perf


def test_st_match_warm_speedup_at_least_3x():
    result = bench_st_match(probe_rounds=20)
    assert result["warm_speedup"] >= 3.0, result


def test_packed_mask_beats_index_probes():
    result = bench_bloom_ops(rounds=10_000)
    assert result["mask_vs_index_speedup"] >= 1.5, result


def test_end_to_end_cached_speedup_and_identical_counters():
    result = bench_end_to_end(players=124, updates=400)
    assert result["counters_identical"], result
    assert result["speedup"] >= 1.5, result


def test_fault_hook_disabled_path_within_recorded_gate():
    """The nil fast path (no plan installed) must not regress.

    With no injector armed the per-egress cost is one attribute load
    plus a None check on top of the plain send; hold it to the figure
    recorded in ``BENCH_fastpath.json`` with generous machine slack.
    """
    result = bench_fault_overhead(sends=40_000)
    recorded = json.loads(default_output_path().read_text())
    baseline = recorded["fault_overhead"]["disabled"]["us_per_op"]
    assert result["disabled"]["us_per_op"] <= baseline * 1.8, (result, baseline)


def test_fault_hook_armed_overhead_bounded():
    """Even armed-but-out-of-scope, the hook stays a small constant cost."""
    result = bench_fault_overhead(sends=40_000)
    assert result["armed_overhead_ratio"] <= 2.5, result


def test_trace_hook_disabled_path_within_recorded_gate():
    """The telemetry nil fast path must not regress.

    Same contract as the fault hook: with no tracer installed, every
    egress pays one attribute load plus a None check.  Held to the
    figure recorded in ``BENCH_fastpath.json`` with machine slack.
    """
    result = bench_trace_overhead(sends=40_000, e2e_scale=0.01)
    recorded = json.loads(default_output_path().read_text())
    baseline = recorded["trace_overhead"]["disabled"]["us_per_op"]
    assert result["disabled"]["us_per_op"] <= baseline * 1.8, (result, baseline)


def test_trace_e2e_transparent_and_overhead_bounded():
    """Full telemetry (tracing + metric ticks) on the Fig. 4 schedule.

    Recording everything costs wall clock (full sampling, every hop of
    every packet — loosely bounded here at 5x so runaway regressions
    still trip) but must change nothing observable: deliveries,
    per-sample latencies and all accounting counters identical with
    telemetry on vs off.
    """
    result = bench_trace_overhead(sends=10_000, e2e_scale=0.02)
    assert result["e2e"]["counters_identical"], result
    assert result["e2e"]["overhead_ratio"] <= 5.0, result
