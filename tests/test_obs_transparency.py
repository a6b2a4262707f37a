"""Telemetry must be observationally free: on vs off changes nothing.

The trace hooks sit on every egress and every router dispatch path; the
metric ticks share the scheduler with protocol events.  These tests pin
the contract that none of that perturbs the simulation: the same
workload run with full telemetry (tracing + metric ticks) and with none
produces bit-identical deliveries, per-sample latencies, byte/packet
accounting and counters — and the chaos digest, which hashes the miss
set and counters, is unchanged.
"""

from repro.experiments.chaos import run_chaos
from repro.experiments.tracerun import run_fig4_traced
from repro.obs.session import TelemetryConfig, TelemetrySession

SCALE = 0.01
_KEYS = (
    "updates_published",
    "deliveries",
    "latency_samples",
    "network_bytes",
    "network_packets",
    "counters",
)


class TestFig4Transparency:
    def test_traced_run_bit_identical_to_untraced(self):
        off = run_fig4_traced(scale=SCALE, seed=7)
        session = TelemetrySession(TelemetryConfig(metrics_interval_ms=100.0))
        on = run_fig4_traced(scale=SCALE, seed=7, telemetry=session)
        for key in _KEYS:
            assert off[key] == on[key], key
        assert len(session.tracer.events) > 0
        assert len(session.metrics.series) > 0

    def test_sampled_tracing_also_transparent(self):
        off = run_fig4_traced(scale=SCALE, seed=7)
        session = TelemetrySession(TelemetryConfig(sample_every=4))
        on = run_fig4_traced(scale=SCALE, seed=7, telemetry=session)
        for key in _KEYS:
            assert off[key] == on[key], key
        # Sampling records a strict subset: only ids divisible by k.
        # (Trace ids are process-global uids, so only the predicate —
        # not the id values — is comparable across runs.)
        full = TelemetrySession()
        run_fig4_traced(scale=SCALE, seed=7, telemetry=full)
        assert 0 < len(session.tracer.events) < len(full.tracer.events)
        assert all(tid % 4 == 0 for tid in session.tracer.trace_ids())

    def test_repeat_traced_runs_identical(self):
        a = TelemetrySession()
        b = TelemetrySession()
        run_fig4_traced(scale=SCALE, seed=7, telemetry=a)
        run_fig4_traced(scale=SCALE, seed=7, telemetry=b)
        strip = lambda evs: [
            (e.t, e.node, e.kind, e.peer, e.detail, e.cd) for e in evs
        ]
        assert strip(a.tracer.events) == strip(b.tracer.events)


class TestChaosTransparency:
    def test_chaos_digest_unchanged_by_telemetry(self):
        untraced = run_chaos(plan_name="rp-split-lossy", seed=1, scale=0.02)
        session = TelemetrySession()
        traced = run_chaos(
            plan_name="rp-split-lossy", seed=1, scale=0.02, telemetry=session
        )
        assert traced.digest() == untraced.digest()
        assert traced.fault_stats == untraced.fault_stats
        # The traced report additionally carries the telemetry block.
        assert untraced.trace == {}
        assert traced.trace["events_recorded"] > 0
        assert "random" in traced.trace["drop_reasons"]

    def test_hooks_released_after_finish(self):
        session = TelemetrySession()
        run_fig4_traced(scale=SCALE, seed=7, telemetry=session)
        assert not session.tracer._installed
        # A fresh session can install on a fresh run immediately.
        run_fig4_traced(scale=SCALE, seed=7, telemetry=TelemetrySession())
