"""Metric recorders used across the evaluation harness.

Two shapes of latency data appear in the paper's evaluation:

* latency distributions (Fig. 4's CDF, Table I/II/III means and confidence
  intervals) — :class:`LatencyRecorder`;
* per-update latency series with min/avg/max envelopes over packet-sequence
  buckets (Fig. 5a–c) — :class:`SeriesRecorder`.

The aggregate byte counts the paper reports in GB (Table I/II, Fig. 6b)
are read from the link counters, :attr:`repro.sim.network.Network.total_bytes`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "NodeStats",
    "LatencyRecorder",
    "SeriesRecorder",
    "summarize",
]

#: Most points :meth:`LatencyRecorder.cdf_points` returns.
CDF_POINTS = 200


@dataclass
class NodeStats:
    """Per-node counter block shared by every protocol stack.

    One schema for routers, RPs, servers and hosts: experiment reports read
    the same field names regardless of architecture, and the plane/role
    split of the G-COPSS router writes its counters here so the facade can
    expose them without owning them.  Fields a given node type never touches
    simply stay zero.
    """

    # Fabric (every node).
    packets_received: int = 0
    #: Packets no registered dispatch handler claimed (see
    #: :class:`repro.sim.network.PacketDispatcher`).
    unknown_packets: int = 0
    # NDN pipeline.
    interests_dropped_no_route: int = 0
    data_dropped_unsolicited: int = 0
    interests_sent: int = 0
    data_received: int = 0
    timeouts_fired: int = 0
    # G-COPSS forwarding plane.
    decapsulations: int = 0
    multicasts_forwarded: int = 0
    relays: int = 0
    multicast_dropped_no_rp: int = 0
    duplicate_multicasts_dropped: int = 0
    # G-COPSS control plane.
    unsubscribe_misses: int = 0
    # G-COPSS host.
    updates_received: int = 0
    duplicates_suppressed: int = 0
    own_updates_echoed: int = 0
    published: int = 0
    # IP baseline.
    dropped_no_route: int = 0
    updates_handled: int = 0
    fanout_sent: int = 0
    # Robustness / loss observability (fault plane + soft-state recovery).
    #: Gap events in a (publisher, CD) sequence stream at a host: the
    #: received pub_seq jumped past the next expected number.
    seq_gaps: int = 0
    #: Total sequence numbers skipped across all gap events.
    seq_missing: int = 0
    #: Updates that arrived with a pub_seq at or below the highest already
    #: seen for their stream (reordered or duplicate-path deliveries).
    seq_late: int = 0
    #: Control packets re-sent by the recovery machinery (Join retries,
    #: handoff retries, FIB re-floods).
    control_retransmits: int = 0
    #: Soft-state ST entries expired by the TTL sweep (missed refreshes).
    subscriptions_expired: int = 0
    #: Periodic re-Subscribe refreshes sent (hosts and routers).
    subscription_refreshes: int = 0
    #: Tunnels addressed to this RP for CDs it does not (yet) serve that
    #: were re-routed via CD routes instead of dropped (lost-handoff path).
    tunnel_bounces: int = 0
    #: Handoffs rolled back after exhausting retransmissions.
    handoff_rollbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        """All counters by field name (insertion order = declaration order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class LatencyRecorder:
    """Accumulates scalar samples and reports distribution statistics."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted: List[float] | None = None

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency sample: {value}")
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def _ensure_sorted(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return sum(self._samples) / len(self._samples)

    @property
    def minimum(self) -> float:
        return self._ensure_sorted()[0]

    @property
    def maximum(self) -> float:
        return self._ensure_sorted()[-1]

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        data = self._ensure_sorted()
        if not data:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if len(data) == 1:
            return data[0]
        rank = (q / 100) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi or data[lo] == data[hi]:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def stdev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mu = self.mean
        var = sum((x - mu) ** 2 for x in self._samples) / (len(self._samples) - 1)
        return math.sqrt(var)

    def confidence_interval_95(self) -> float:
        """Half-width of the 95% CI of the mean (normal approximation).

        Table III reports means with 95% confidence intervals; the paper's
        sample counts are large enough for the z-approximation.
        """
        if len(self._samples) < 2:
            return 0.0
        return 1.96 * self.stdev() / math.sqrt(len(self._samples))

    def cdf_points(self) -> List[Tuple[float, float]]:
        """(value, cumulative-fraction) pairs for plotting a CDF.

        At most :data:`CDF_POINTS` of them: a longer record is sampled at
        evenly spaced fractions.
        """
        data = self._ensure_sorted()
        if not data:
            return []
        if len(data) <= CDF_POINTS:
            return [(v, (i + 1) / len(data)) for i, v in enumerate(data)]
        points = []
        for i in range(CDF_POINTS):
            frac = (i + 1) / CDF_POINTS
            idx = min(len(data) - 1, max(0, int(round(frac * len(data))) - 1))
            points.append((data[idx], (idx + 1) / len(data)))
        return points

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``."""
        data = self._ensure_sorted()
        if not data:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return bisect_left(data, threshold) / len(data)


class SeriesRecorder:
    """Bucketed (sequence -> min/avg/max) envelope, as drawn in Fig. 5.

    Each sample is tagged with a monotonically growing sequence number
    (packet index in the trace); samples are grouped into fixed-width
    buckets and each bucket reports its min / mean / max.
    """

    def __init__(self, bucket_width: int = 1000, name: str = "series") -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self.name = name
        self._buckets: dict[int, List[float]] = {}

    def record(self, sequence: int, value: float) -> None:
        if sequence < 0:
            raise ValueError(f"negative sequence: {sequence}")
        self._buckets.setdefault(sequence // self.bucket_width, []).append(value)

    def envelope(self) -> List[Tuple[int, float, float, float]]:
        """Sorted (bucket_start_seq, min, mean, max) rows."""
        rows = []
        for bucket in sorted(self._buckets):
            values = self._buckets[bucket]
            rows.append(
                (
                    bucket * self.bucket_width,
                    min(values),
                    sum(values) / len(values),
                    max(values),
                )
            )
        return rows

    @property
    def count(self) -> int:
        return sum(len(v) for v in self._buckets.values())


def summarize(recorder: LatencyRecorder) -> dict:
    """One-line dict summary used by the experiment reporters.

    Always the full schema: an empty recorder reports ``None`` for every
    statistic (rendered as "—" by the table formatter) instead of a
    truncated dict, so rows from empty and non-empty recorders keep the
    same columns in ``render_table``.
    """
    if recorder.count == 0:
        return {
            "name": recorder.name,
            "count": 0,
            "mean": None,
            "min": None,
            "max": None,
            "p50": None,
            "p95": None,
            "p99": None,
            "ci95": None,
        }
    return {
        "name": recorder.name,
        "count": recorder.count,
        "mean": recorder.mean,
        "min": recorder.minimum,
        "max": recorder.maximum,
        "p50": recorder.percentile(50),
        "p95": recorder.percentile(95),
        "p99": recorder.percentile(99),
        "ci95": recorder.confidence_interval_95(),
    }
