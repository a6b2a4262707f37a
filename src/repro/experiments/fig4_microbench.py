"""Fig. 4 — update-latency CDF: G-COPSS vs NDN vs IP server (§V-A).

The microbenchmark: 62 players, 2 per area on the 31-area map, the
Fig. 3b six-router testbed, a 10-minute trace of 12,440 publish events
(sizes 50-350 B).  RP and server sit at R1; the NDN baseline pipelines
N = 3 Interests per watched peer with 100 ms update accumulation.

Paper outcome: G-COPSS mean 8.51 ms with all players under 55 ms; IP
server mean 25.52 ms with ~8% of players above 55 ms; NDN averages over
12 *seconds*.  We check the ordering and separations, not the absolute
testbed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ScenarioResult,
    run_ip_server_testbed,
    run_ndn_testbed,
)
from repro.experiments.tracerun import run_fig4_traced
from repro.game.map import GameMap
from repro.names import Name
from repro.sim.stats import LatencyRecorder, SeriesRecorder
from repro.trace.generator import CounterStrikeTraceGenerator, microbenchmark_spec
from repro.trace.model import Trace

__all__ = [
    "Fig4Result",
    "run_fig4",
    "microbenchmark_placement",
    "microbenchmark_workload",
]

#: Fraction of the full trace the NDN stack replays at most.
NDN_SCALE_CAP = 0.15


def microbenchmark_placement(game_map: GameMap) -> Dict[str, Name]:
    """62 players, two per area, every area populated (§V-A setup)."""
    placement: Dict[str, Name] = {}
    index = 0
    for area in game_map.hierarchy.areas():
        for _ in range(2):
            placement[f"player{index:02d}"] = area
            index += 1
    return placement


def microbenchmark_workload(
    scale: float, seed: int
) -> Tuple[GameMap, Dict[str, Name], Trace]:
    """The §V-A workload: map, placement and ``scale`` of the trace."""
    game_map = GameMap(seed=seed)
    placement = microbenchmark_placement(game_map)
    events = CounterStrikeTraceGenerator(
        game_map, microbenchmark_spec(scale=scale, seed=seed), placement=placement
    ).generate()
    return game_map, placement, events


@dataclass
class Fig4Result:
    gcopss: ScenarioResult
    ip_server: ScenarioResult
    ndn: ScenarioResult

    def cdf_curves(self) -> Dict[str, List[Tuple[float, float]]]:
        return {
            "G-COPSS": self.gcopss.latency.cdf_points(),
            "IP server": self.ip_server.latency.cdf_points(),
            "NDN": self.ndn.latency.cdf_points(),
        }

def run_fig4(scale: float = 1.0, seed: int = 42) -> Fig4Result:
    """Run the three §V-A stacks on identical traces.

    ``scale`` shrinks the 12,440-event trace proportionally.  The NDN run
    is additionally capped at :data:`NDN_SCALE_CAP` of the full trace —
    its per-update packet count is two orders of magnitude above the
    others (the paper's finding), so replaying the full trace adds hours
    of wall-clock without changing the distribution.
    """
    game_map, placement, events = microbenchmark_workload(scale, seed)
    outcome = run_fig4_traced(scale, seed)
    latency = LatencyRecorder("gcopss-testbed")
    latency.extend(outcome["latency_samples"])
    gcopss = ScenarioResult(
        label="G-COPSS (testbed)",
        latency=latency,
        series=SeriesRecorder(name="gcopss-testbed"),  # Fig. 4 is a CDF
        network_bytes=outcome["network_bytes"],
        updates_published=outcome["updates_published"],
        deliveries=outcome["deliveries"],
    )
    ip_server = run_ip_server_testbed(events, game_map, placement)

    ndn_events = events
    if scale > NDN_SCALE_CAP:
        cutoff = max(1, round(len(events) * NDN_SCALE_CAP / scale))
        ndn_events = events[:cutoff]
    ndn = run_ndn_testbed(ndn_events, game_map, placement)
    return Fig4Result(gcopss=gcopss, ip_server=ip_server, ndn=ndn)
