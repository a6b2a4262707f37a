"""Telemetry plane: causal packet tracing, metric time series, exporters.

The paper's claims are temporal — Fig. 5's congestion envelopes, the
§IV-B no-loss handover, Table III convergence — yet end-of-run counters
collapse the whole run into one number.  This package adds the missing
observability layer:

* :mod:`repro.obs.tracer` — a causal per-packet tracer.  Every injected
  packet already carries a unique ``uid``; the tracer follows it across
  hops (and through ``/rp/<RP>`` encapsulation, where the tunnel Interest
  carries the multicast as payload) and records span events: enqueue,
  service, forward, decapsulate, drop-with-reason, delivery.
* :mod:`repro.obs.metrics` — a registry of named counters / gauges /
  windowed histograms sampled on sim-time ticks into ring-buffered time
  series; ``NodeStats`` and ``FaultStats`` auto-register so every
  existing counter becomes a series for free.
* :mod:`repro.obs.exporters` — JSONL event logs, Chrome trace-event JSON
  (loadable in Perfetto), Prometheus-style text.
* :mod:`repro.obs.session` — one-call bundle wiring all of the above
  onto a network.

Overhead contract: everything here hangs off the same single-slot hook
points the fault plane uses (``Link.trace_hook`` at egress,
``Node.trace_hook`` at enqueue/service/delivery).  With no tracer
installed each hook site costs one attribute load plus a ``None`` check —
measured by the benchmark's ``obs.tracer.recording_x`` and
``sim.network.send_hooks_armed_x`` — and installed tracing
is strictly read-only, so enabling it is bit-identical to legacy
forwarding behavior.
"""

from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry, TimeSeries, WindowedHistogram
from repro.obs.session import TelemetryConfig, TelemetrySession
from repro.obs.tracer import PacketTracer, TraceEvent, trace_id_of

__all__ = [
    "PacketTracer",
    "TraceEvent",
    "trace_id_of",
    "MetricsRegistry",
    "TimeSeries",
    "WindowedHistogram",
    "TelemetryConfig",
    "TelemetrySession",
    "chrome_trace",
    "prometheus_text",
    "read_events_jsonl",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_prometheus",
]
