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

from repro.trace.filters import RawPacket, filter_raw_trace
from repro.trace.generator import (
    CounterStrikeTraceGenerator,
    TraceSpec,
    microbenchmark_spec,
    full_trace_spec,
    peak_trace_spec,
)
from repro.trace.model import Trace, UpdateEvent
from repro.trace.stats import TraceStatistics

__all__ = [
    "Trace",
    "UpdateEvent",
    "TraceSpec",
    "CounterStrikeTraceGenerator",
    "microbenchmark_spec",
    "peak_trace_spec",
    "full_trace_spec",
    "RawPacket",
    "filter_raw_trace",
    "TraceStatistics",
]
