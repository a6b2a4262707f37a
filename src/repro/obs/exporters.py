"""Pluggable exporters for trace events and metric series.

Three formats:

* **JSONL** — one :class:`~repro.obs.tracer.TraceEvent` per line; the
  ``trace`` CLI's query/drops subcommands re-read these offline.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` format
  Perfetto and ``chrome://tracing`` load.  Each node becomes a thread
  (metadata ``thread_name`` events); a packet's residence at a router
  (enqueue -> service completion) becomes a complete ``"X"`` span, and
  forwards / drops / decaps / deliveries become instant ``"i"`` events.
  Timestamps convert sim-ms to the format's microseconds.
* **Prometheus text exposition** — the latest sample of every registry
  series as ``# TYPE``-annotated gauge lines, for scrape-style tooling.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.obs.tracer import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "write_events_jsonl",
    "read_events_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
]


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------

def write_events_jsonl(path: "Path | str", events: Iterable[TraceEvent]) -> int:
    """One event dict per line; returns the number of lines written."""
    path = Path(path)
    count = 0
    with path.open("w") as fh:
        for event in events:
            fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def read_events_jsonl(path: "Path | str") -> List[TraceEvent]:
    """Round-trip a JSONL event log back into :class:`TraceEvent` rows."""
    events = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        events.append(TraceEvent(**json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------

_MS_TO_US = 1000.0
#: Zero-length spans render invisibly; give idle-server hops a sliver.
_MIN_SPAN_US = 0.5


def chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Build a ``{"traceEvents": [...]}`` document from span events.

    ``enqueue``/``service`` pairs on the same (node, carrier uid) become
    complete ``"X"`` spans covering the packet's queue wait plus service
    time at that hop; every other kind becomes an instant event on the
    node's thread.  A re-iterable input (a list, a live ``EventLog``) is
    read twice rather than copied; a one-shot iterator is listed first.
    """
    if iter(events) is events:
        events = list(events)
    tids: Dict[str, int] = {}
    rows: List[dict] = []
    for node in sorted({event.node for event in events}):
        tids[node] = len(tids) + 1
        rows.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tids[node],
                "args": {"name": node},
            }
        )
    open_spans: Dict[tuple, TraceEvent] = {}
    for event in events:
        tid = tids[event.node]
        if event.kind == "enqueue":
            open_spans[(event.node, event.uid)] = event
            continue
        if event.kind == "service":
            start = open_spans.pop((event.node, event.uid), None)
            begin = start.t if start is not None else event.t
            rows.append(
                {
                    "ph": "X",
                    "name": f"{event.ptype} {event.cd}".strip(),
                    "cat": "hop",
                    "pid": 1,
                    "tid": tid,
                    "ts": begin * _MS_TO_US,
                    "dur": max((event.t - begin) * _MS_TO_US, _MIN_SPAN_US),
                    "args": {"trace_id": event.trace_id, "uid": event.uid},
                }
            )
            continue
        args: Dict[str, object] = {"trace_id": event.trace_id, "uid": event.uid}
        if event.peer:
            args["peer"] = event.peer
        if event.detail:
            args["detail"] = event.detail
        rows.append(
            {
                "ph": "i",
                "name": f"{event.kind} {event.cd}".strip(),
                "cat": event.kind,
                "pid": 1,
                "tid": tid,
                "ts": event.t * _MS_TO_US,
                "s": "t",
                "args": args,
            }
        )
    # A packet still queued when the run ended: emit its wait as a span
    # with zero service, so nothing recorded is silently dropped.
    for (node, _uid), start in sorted(open_spans.items(), key=lambda kv: kv[1].t):
        rows.append(
            {
                "ph": "X",
                "name": f"{start.ptype} {start.cd} (unserved)".strip(),
                "cat": "hop",
                "pid": 1,
                "tid": tids[node],
                "ts": start.t * _MS_TO_US,
                "dur": _MIN_SPAN_US,
                "args": {"trace_id": start.trace_id, "uid": start.uid},
            }
        )
    return {
        "traceEvents": rows,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "time_unit": "sim-ms as us"},
    }


def write_chrome_trace(path: "Path | str", events: Iterable[TraceEvent]) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the document."""
    document = chrome_trace(events)
    Path(path).write_text(json.dumps(document) + "\n")
    return document


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_SANITIZE.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def prometheus_text(registry: "MetricsRegistry") -> str:
    """Latest sample of every series, Prometheus text format."""
    lines = []
    for name in sorted(registry.series):
        latest = registry.series[name].latest()
        if latest is None:
            continue
        t, value = latest
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value} {int(t)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: "Path | str", registry: "MetricsRegistry") -> str:
    """Write :func:`prometheus_text` output to ``path``; returns the text."""
    text = prometheus_text(registry)
    Path(path).write_text(text)
    return text
