"""Table II — full-trace comparison: IP server vs G-COPSS vs hybrid.

The whole Counter-Strike trace (1,686,905 updates over 7h05m25s, mean
inter-arrival ~15 ms) replayed with 6 servers / 6 RPs / 6 IP multicast
groups.  Nothing congests at this rate, so the harness evaluates at the
flow level (closed-form routes; see :mod:`repro.experiments.flowrun`),
which makes paper-scale runs cheap.  By default a sampled prefix of the
trace is replayed and the byte totals are scaled back to full length;
``sample`` = 1.0 replays every event.

Expected shape (paper Table II): G-COPSS carries the least network load
(content-centric multicast all along the path); hybrid-G-COPSS has the
best update latency (no RP detour) but more load than G-COPSS (IP-group
sharing delivers unwanted packets that edges filter); the IP server is
worst on both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.engine import GCopssRouter
from repro.core.hybrid import HybridMapper
from repro.experiments.common import default_rp_assignment, pick_rp_sites
from repro.experiments.flowrun import FlowResult, FlowScenario
from repro.game.map import GameMap
from repro.topology.backbone import build_backbone
from repro.trace.generator import CounterStrikeTraceGenerator, full_trace_spec

__all__ = ["Table2Result", "run_table2"]

#: Servers for the IP baseline and RPs for G-COPSS (§V-B: six of each).
NUM_SITES = 6


@dataclass
class Table2Result:
    ip_server: FlowResult
    gcopss: FlowResult
    hybrid: FlowResult
    sample: float

    def rows(self) -> List[Sequence[object]]:
        """Table II layout: (type, latency ms, load GB) per architecture."""
        out = []
        for result in (self.ip_server, self.gcopss, self.hybrid):
            out.append(
                (
                    result.label,
                    round(result.mean_latency_ms, 2),
                    round(result.network_gb, 2),
                )
            )
        return out


def run_table2(
    sample: float = 0.02, num_groups: int = 6, seed: int = 42
) -> Table2Result:
    """Replay (a sample of) the full trace through all three designs.

    ``sample`` is the fraction of the 1.69M-event trace generated and
    replayed; byte totals are scaled by 1/sample so the GB columns are
    full-trace equivalents.  Latency means are unaffected by sampling
    (uncongested => per-event latency is route-determined).
    """
    if not 0 < sample <= 1:
        raise ValueError(f"sample must be in (0, 1], got {sample}")
    game_map = GameMap(seed=seed)
    generator = CounterStrikeTraceGenerator(
        game_map, full_trace_spec(scale=sample, seed=seed)
    )
    events = generator.generate()
    load_scale = 1.0 / sample

    built = build_backbone(
        lambda net, name: GCopssRouter(net, name),
    )
    # Flow-level runs only need the routes and the host->edge map.
    rng = random.Random(29)
    edges = sorted(built.edge_routers, key=lambda n: n.name)
    host_edge = {
        player: rng.choice(edges).name for player in sorted(generator.placement)
    }
    scenario = FlowScenario(built.network, host_edge, game_map, generator.placement)

    sites = pick_rp_sites(built, NUM_SITES)
    assignment = default_rp_assignment(game_map.hierarchy, sites)

    gcopss = scenario.run_gcopss(
        events, assignment, label=f"G-COPSS ({NUM_SITES} RPs)", load_scale=load_scale
    )
    ip_server = scenario.run_ip_server(
        events,
        assignment,
        label=f"IP server ({NUM_SITES} servers)",
        load_scale=load_scale,
    )
    hybrid = scenario.run_hybrid(
        events,
        HybridMapper(num_groups=num_groups),
        label=f"hybrid-G-COPSS ({num_groups} groups)",
        load_scale=load_scale,
    )
    return Table2Result(
        ip_server=ip_server, gcopss=gcopss, hybrid=hybrid, sample=sample
    )
