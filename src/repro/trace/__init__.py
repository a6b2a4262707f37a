"""Trace tooling: synthetic Counter-Strike workloads and trace plumbing.

The paper's large-scale evaluation replays a Wireshark trace of a busy
Counter-Strike server (mshmro.com, 7h05m25s, ~2M packets) reduced by a
three-step filter to 414 players and 1,686,905 update events.  The raw
capture is not public, so this package provides:

* :mod:`repro.trace.model` — the packed :class:`Trace` and its
  :class:`UpdateEvent` rows, which everything downstream consumes;
* :mod:`repro.trace.generator` — a seeded statistical generator that
  reproduces the filtered trace's published aggregates (player count,
  skewed per-player update distribution of Fig. 3c, update sizes, mean
  inter-arrival) plus the microbenchmark trace recipe (§V-A);
* :mod:`repro.trace.filters` — the paper's filter pipeline, applicable to
  any raw capture with the same schema (and to our synthetic raw traces);
* :mod:`repro.trace.io` — JSONL (de)serialization;
* :mod:`repro.trace.stats` — the summary statistics behind Fig. 3c/3d.
"""

import importlib

from repro.trace.model import Trace, UpdateEvent

#: Package-level names of the other submodules, imported on first access
#: so a consumer of the trace model alone (the live runners) loads none.
_LAZY = {
    "TraceSpec": "generator",
    "CounterStrikeTraceGenerator": "generator",
    "microbenchmark_spec": "generator",
    "peak_trace_spec": "generator",
    "full_trace_spec": "generator",
    "RawPacket": "filters",
    "filter_raw_trace": "filters",
    "TraceStatistics": "stats",
}

__all__ = ["Trace", "UpdateEvent", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.trace.{module}"), name)
