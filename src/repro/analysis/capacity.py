"""Capacity planning: how many RPs (or servers) does a workload need?

The paper's §IV-B: "Since the RPs are responsible for handling a certain
number of CDs, it is difficult to predict the number of RPs required or
to perform predetermined load balancing" — and solves it reactively with
runtime splits.  Given a trace (or its statistics), these helpers do the
*predictive* half: compute per-CD load shares, evaluate an assignment's
per-RP utilizations and find the minimum stable RP count.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.queueing import md1_mean_sojourn, utilization
from repro.core.hierarchy import MapHierarchy
from repro.core.rp import RpTable
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.common import default_rp_assignment
from repro.names import Name
from repro.trace.model import UpdateEvent

__all__ = [
    "cd_load_shares",
    "peak_arrival_rate",
    "rp_utilizations",
    "minimum_stable_rps",
]

#: Share of the trace, from its end, that :func:`peak_arrival_rate` reads.
PEAK_WINDOW_FRACTION = 0.2
#: Utilization bound :func:`minimum_stable_rps` provisions under, and the
#: largest RP count it tries.
HEADROOM = 0.85
MAX_RPS = 16


def cd_load_shares(events: Sequence[UpdateEvent]) -> Dict[Name, float]:
    """Fraction of publications per top-level CD piece.

    Each region subtree groups together and the world airspace leaf
    stands alone: the granularity initial RP assignments use.
    """
    if not events:
        raise ValueError("cannot analyze an empty trace")
    counts: Dict[Name, int] = {}
    for event in events:
        prefix = event.cd.slice(min(1, event.cd.depth))
        counts[prefix] = counts.get(prefix, 0) + 1
    total = len(events)
    return {prefix: count / total for prefix, count in sorted(counts.items())}


def peak_arrival_rate(events: Sequence[UpdateEvent]) -> float:
    """Aggregate packets/ms over the trace's final (peak) window.

    Provisioning must hold at the *peak* rate, not the mean — the
    capture's intensity ramps up (§V-B peak period).
    """
    if len(events) < 2:
        raise ValueError("need at least two events")
    tail = events[-max(2, int(len(events) * PEAK_WINDOW_FRACTION)) :]
    span = tail[-1].time_ms - tail[0].time_ms
    if span <= 0:
        raise ValueError("degenerate trace timing")
    return (len(tail) - 1) / span


def rp_utilizations(
    events: Sequence[UpdateEvent],
    assignment: RpTable,
) -> Dict[str, float]:
    """Peak utilization of every RP under the given prefix assignment.

    rho >= 1 means that RP's queue grows without bound during the peak —
    the Table I / Fig. 5b congestion condition.
    """
    rate = peak_arrival_rate(events)
    shares: Dict[str, float] = {}
    for event in events:
        rp = assignment.rp_for(event.cd)
        shares[rp] = shares.get(rp, 0) + 1
    total = len(events)
    return {
        rp: utilization(rate * count / total, DEFAULT_CALIBRATION.rp_service_ms)
        for rp, count in sorted(shares.items())
    }


def minimum_stable_rps(
    events: Sequence[UpdateEvent],
    hierarchy: MapHierarchy,
) -> Optional[Dict[str, object]]:
    """Smallest RP count whose default assignment stays under :data:`HEADROOM`.

    Uses the same load-blind contiguous assignment the experiments use,
    so the answer matches what the benchmarks observe (e.g. the paper's
    414-player peak workload needs 3 RPs).  Returns None when even
    :data:`MAX_RPS` cannot satisfy the bound (one CD hotter than a whole
    RP — the case only runtime splitting below the top layer can solve).
    """
    for count in range(1, MAX_RPS + 1):
        names = [f"rp{i}" for i in range(count)]
        assignment = default_rp_assignment(hierarchy, names)
        rhos = rp_utilizations(events, assignment)
        worst = max(rhos.values())
        if worst < HEADROOM:
            # The worst RP's arrival rate follows from its utilization:
            # lambda = rho / s.
            worst_arrival = worst / DEFAULT_CALIBRATION.rp_service_ms
            return {
                "rp_count": count,
                "worst_utilization": worst,
                "predicted_worst_sojourn_ms": md1_mean_sojourn(
                    worst_arrival, DEFAULT_CALIBRATION.rp_service_ms
                ),
                "utilizations": rhos,
            }
    return None


