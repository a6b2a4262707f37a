"""Fig. 6 — response latency and network load vs the number of players.

With 3 RPs / 3 servers fixed, the population is swept (the paper plots
roughly 50 ... 3,540 players).  The trace's *aggregate* arrival process
is held at the measured rate while per-update fan-out grows with the
population, so:

* G-COPSS latency stays flat — RP work per update is constant and the
  extra receivers ride the multicast trees (Fig. 6a, lower curve);
* the IP servers' per-update service time grows with the recipient count
  until the service rate falls below the arrival rate and latency
  hockey-sticks (Fig. 6a, upper curve);
* both loads grow with fan-out, the server's roughly linearly in
  receivers x unicast path length, G-COPSS sub-linearly via tree sharing
  (Fig. 6b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import (
    ScenarioResult,
    run_gcopss_backbone,
    run_ip_server_backbone,
)
from repro.game.map import GameMap
from repro.trace.generator import CounterStrikeTraceGenerator, peak_trace_spec

__all__ = [
    "Fig6Result",
    "run_fig6",
    "run_fig6_federated",
    "DEFAULT_PLAYER_SWEEP",
    "FEDERATED_PLAYER_SWEEP",
]

DEFAULT_PLAYER_SWEEP: Tuple[int, ...] = (62, 124, 414, 828, 1600, 2400)

#: The federated extension sweeps two more decades — the flat RP layout
#: saturates long before the last point (see :mod:`repro.experiments.federation`).
FEDERATED_PLAYER_SWEEP: Tuple[int, ...] = (2_000, 10_000, 100_000)


@dataclass
class Fig6Result:
    player_counts: List[int] = field(default_factory=list)
    gcopss: Dict[int, ScenarioResult] = field(default_factory=dict)
    ip_server: Dict[int, ScenarioResult] = field(default_factory=dict)

    def latency_series(self) -> List[Tuple[int, float, float]]:
        """(players, G-COPSS mean ms, IP server mean ms) rows — Fig. 6a."""
        return [
            (
                n,
                self.gcopss[n].latency.mean,
                self.ip_server[n].latency.mean,
            )
            for n in self.player_counts
        ]

    def load_series(self) -> List[Tuple[int, float, float]]:
        """(players, G-COPSS GB, IP server GB) rows — Fig. 6b.

        Sweep points replay event counts scaled down at large populations
        (to bound fan-out work), so byte totals are normalized back to
        the base trace length — the paper's fixed-window equivalent.
        """
        rows = []
        for n in self.player_counts:
            scale = self.gcopss[n].extras.get("load_normalizer", 1.0)
            rows.append(
                (
                    n,
                    self.gcopss[n].network_gb * scale,
                    self.ip_server[n].network_gb * scale,
                )
            )
        return rows


def run_fig6(
    player_counts: Sequence[int] = DEFAULT_PLAYER_SWEEP,
    updates_per_point: int = 4_000,
    seed: int = 42,
) -> Fig6Result:
    """Sweep the population with both architectures on identical traces.

    Three RPs and three servers at every point, as in the paper.
    """
    game_map = GameMap(seed=seed)
    base = CounterStrikeTraceGenerator(
        game_map, peak_trace_spec(num_updates=updates_per_point, seed=seed)
    )
    result = Fig6Result(player_counts=list(player_counts))
    for count in player_counts:
        # Per-update fan-out grows ~linearly with the population, so the
        # event count is scaled down inversely to keep the work per sweep
        # point bounded; queue blow-up (the hockey stick) shows within a
        # few hundred events when a configuration is unstable.
        point_updates = max(500, round(updates_per_point * min(1.0, 414 / count)))
        generator = base.rescale_players(
            count, scale_rate=False, num_updates=point_updates
        )
        events = generator.generate()
        normalizer = updates_per_point / point_updates
        result.gcopss[count] = run_gcopss_backbone(
            events,
            game_map,
            generator.placement,
            num_rps=3,
            label=f"G-COPSS n={count}",
        )
        result.gcopss[count].extras["load_normalizer"] = normalizer
        result.ip_server[count] = run_ip_server_backbone(
            events,
            game_map,
            generator.placement,
            num_servers=3,
            label=f"IP server n={count}",
        )
        result.ip_server[count].extras["load_normalizer"] = normalizer
    return result


def run_fig6_federated(
    player_counts: Sequence[int] = FEDERATED_PLAYER_SWEEP,
    updates_per_point: int = 800,
    seed: int = 11,
) -> List[dict]:
    """Fig. 6 beyond the flat layout's ceiling: the 10⁵-player sweep.

    Each point runs the region-ring scale world under a
    :class:`~repro.parallel.scale.FederationSpec` — region CDs shattered
    into 32 leaf zones sharded across the region's access routers, with the
    telemetry-driven autoscaler live.  The per-publish load at any single
    RP stays bounded by the zone fan-out, so latency holds flat where the
    flat layout (one RP per region, fan-out = population/regions) is past
    its service capacity — the point
    :func:`repro.experiments.federation.run_saturation` pins quantitatively.
    """
    from repro.parallel.scale import FederationSpec, run_scale

    points: List[dict] = []
    for count in player_counts:
        spec = FederationSpec(
            players=count,
            regions=4,
            access_per_region=4,
            updates=updates_per_point,
            seed=seed,
            world_fraction=0.0,
            publish_interval_ms=0.5,
            zones_per_region=32,
            autoscale=True,
        )
        result = run_scale(spec)
        points.append(
            {
                "players": count,
                "deliveries": result["deliveries"],
                "latency": result["latency"],
                "federation": result["federation"],
                "digest": result["digest"],
            }
        )
    return points
