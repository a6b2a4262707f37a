"""Recording and query driver behind ``python -m repro.experiments trace``.

Three operations:

* **record** — replay a workload (the Fig. 4 microbenchmark testbed, or
  a chaos plan with injected faults) with a
  :class:`~repro.obs.session.TelemetrySession` installed, and export the
  JSONL event log, the Chrome trace-event JSON (Perfetto-loadable) and
  the Prometheus metrics snapshot;
* **query** — reconstruct one trace id's publisher-to-subscriber hop
  chain from a recorded JSONL log (optionally restricted to the branch
  reaching one receiver);
* **drops** — summarize drop reasons over a recorded log.

:func:`run_fig4_traced` is the one G-COPSS Fig. 4 replay: ``run_fig4``
takes its G-COPSS arm from it untraced, and the recorder runs it under a
session.  Every update goes through :meth:`GCopssHost.publish`, so it
carries ``pub_seq`` and emits a ``publish`` root event when traced; the
traced and untraced runs share one schedule, which the transparency
tests and the benchmark's ``obs.tracer.recording_x`` driver lean on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.session import TelemetryConfig, TelemetrySession
from repro.obs.tracer import EventLog, TraceEvent, chain_to, render_chain

__all__ = [
    "run_fig4_traced",
    "record_run",
    "load_events",
    "query_chain",
    "pick_example_trace",
]

#: Post-workload settle time before the fig4 recording stops.
FIG4_DRAIN_MS = 500.0


def run_fig4_traced(
    scale: float = 0.05,
    seed: int = 7,
    telemetry: Optional[TelemetrySession] = None,
    executor_factory=None,
) -> Dict[str, object]:
    """The Fig. 4 G-COPSS testbed run, optionally under telemetry.

    Returns the observable outcome (deliveries, bytes, summed counters)
    so callers can assert traced and untraced runs are bit-identical.
    ``executor_factory`` plugs in the sharded execution backend; the
    differential suite compares its outcome against the serial default.
    """
    from repro.experiments.fig4_microbench import microbenchmark_workload
    from repro.experiments.testbed import build_testbed
    from repro.sim.stats import LatencyRecorder

    game_map, placement, events = microbenchmark_workload(scale, seed)
    testbed = build_testbed(
        game_map.hierarchy, placement, executor_factory=executor_factory
    )
    network, executor, hosts = testbed.network, testbed.executor, testbed.hosts
    testbed.subscribe()
    testbed.converge()  # untraced

    horizon = testbed.offset + (events[-1].time_ms if events else 0.0) + FIG4_DRAIN_MS
    if telemetry is not None:
        telemetry.install(network, metrics_until=horizon, executor=executor)

    latency = LatencyRecorder("fig4-traced")

    def on_update(host, packet) -> None:
        latency.record(host.sim.now - packet.created_at)

    for host in hosts.values():
        host.on_update.append(on_update)

    testbed.replay(events)
    executor.run(until=horizon)

    counters: Dict[str, int] = {}
    for node in network.nodes.values():
        for key, value in node.stats.as_dict().items():
            counters[key] = counters.get(key, 0) + value
    if telemetry is not None:
        telemetry.finish()
    return {
        "updates_published": len(events),
        "deliveries": latency.count,
        "latency_samples": tuple(latency.samples),
        "network_bytes": network.total_bytes,
        "network_packets": network.total_packets,
        "counters": counters,
        "uid_by_seq": testbed.uid_by_seq,
    }


def record_run(
    out_dir: "Path | str",
    workload: str = "fig4",
    scale: float = 0.05,
    seed: int = 7,
    loss: float = 0.05,
    plan: str = "rp-split-lossy",
    scenario: "str | None" = None,
    sample_every: int = 1,
    metrics_interval_ms: float = 100.0,
) -> Dict[str, object]:
    """Record one run and export all three formats into ``out_dir``.

    ``scenario`` (chaos workload only) swaps the fig-4 trace for a
    registered scenario script — the recording then covers the full
    scenario × plan cell.
    """
    session = TelemetrySession(
        TelemetryConfig(
            sample_every=sample_every, metrics_interval_ms=metrics_interval_ms
        )
    )
    if workload == "fig4":
        if scenario is not None:
            raise ValueError("scenario recording needs workload='chaos'")
        outcome = run_fig4_traced(scale=scale, seed=seed, telemetry=session)
        extra: Dict[str, object] = {
            "deliveries": outcome["deliveries"],
            "updates_published": outcome["updates_published"],
        }
    elif workload == "chaos":
        from repro.experiments.chaos import run_chaos

        report = run_chaos(
            plan_name=plan,
            seed=seed,
            scale=scale,
            loss=loss,
            telemetry=session,
            scenario=scenario,
        )
        extra = {
            "invariant_ok": report.invariant_ok,
            "permanent_misses": report.permanent_misses,
            "injected_drops": report.fault_stats["dropped"],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}; choose fig4 or chaos")

    tracer = session.tracer
    stem = workload if scenario is None else f"{workload}-{scenario}"
    paths = session.export(out_dir, stem=stem)
    return {
        "workload": workload if scenario is None else f"{workload}:{scenario}",
        "scale": scale,
        "seed": seed,
        "sample_every": sample_every,
        "events_recorded": len(tracer.events),
        "trace_ids": len(tracer.trace_ids()),
        "drop_reasons": tracer.drop_summary(),
        "example_trace_id": pick_example_trace(tracer.events),
        "paths": paths,
        **extra,
    }


def load_events(path: "Path | str") -> List[TraceEvent]:
    """Read a recorded ``*.events.jsonl`` back into trace events."""
    from repro.obs.exporters import read_events_jsonl

    return read_events_jsonl(path)


def pick_example_trace(events: "EventLog | List[TraceEvent]") -> Optional[int]:
    """A good trace id to show: delivered, and fault-dropped if any was.

    A live :class:`EventLog` is read from its columns, building no rows.
    """
    if isinstance(events, EventLog):
        delivered = events.trace_ids_of("deliver")
        dropped = events.trace_ids_of("fault_drop")
        every = events.trace_id[events.first_row() :]
    else:
        delivered = {e.trace_id for e in events if e.kind == "deliver"}
        dropped = {e.trace_id for e in events if e.kind == "fault_drop"}
        every = [e.trace_id for e in events]
    both = delivered & dropped
    for pool in (both, delivered, dropped):
        if pool:
            return min(pool)
    return min(every, default=None)


def query_chain(
    events: List[TraceEvent], trace_id: int, receiver: Optional[str] = None
) -> Tuple[List[TraceEvent], List[str]]:
    """One trace's (optionally receiver-restricted) chain + rendering."""
    chain = [e for e in events if e.trace_id == trace_id]
    if receiver is not None:
        chain = chain_to(chain, receiver)
    return chain, render_chain(chain)
