"""The scenario fleet: five seeded workload generators beyond fig-4.

All five run on the 62-player Fig. 3b testbed (the same topology every
:class:`~repro.sim.faults.FaultPlan` names, so any scenario composes
with any plan) but stress different axes of the protocol:

* :func:`flash_crowd` — battle-royale density collapse: three move
  waves funnel the population into one zone, and a two-step RP split
  cascade (R1 → R4, then R4 → R5) sheds the resulting hot prefix
  through the regular balancer path;
* :func:`churn` — mass join/leave: a churner cohort cycles offline and
  back, each reconnect pulling a snapshot storm through the Broker role
  while everyone else keeps publishing;
* :func:`day_night` — a load curve: sinusoidal publish intensity from a
  quiet "night" through a "day" peak and back, with a split scheduled
  into the peak;
* :func:`mobility` — group movement with hotspot attraction: squads
  follow their leader between a few attractor zones (D'Angelo et al.'s
  adaptive-dissemination motivation), far from random waypoint;
* :func:`autoscale_storm` — a forced scale-out/scale-in cycle: the
  flash-crowd split cascade followed by a prefix migration and a full
  merge-back, exercising every handoff kind the federation autoscaler
  can emit, under every fault plan.

Generators are pure: all randomness flows from ``random.Random`` seeded
with the *string* ``"scenario:<name>:<seed>"`` (stable across
processes), every set is sorted before sampling, and event times come
from continuous draws so same-time collisions cannot reorder the
script.  Building the same ``(seed, scale)`` twice is byte-identical —
the property suite holds each generator to that.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from repro.experiments.fig4_microbench import microbenchmark_placement
from repro.game.map import GameMap
from repro.names import Name

from repro.experiments.scenarios.base import Scenario, ScenarioEvent, ScenarioScript

__all__ = [
    "flash_crowd",
    "churn",
    "day_night",
    "mobility",
    "autoscale_storm",
    "BUILTIN_SCENARIOS",
]

#: The fleet's shared hierarchy (the paper's [5, 5] map) and its fig-4
#: placement — 62 players, two per area.  The harness places its hosts
#: with the same function, so generator-side area tracking and
#: harness-side subscription state cannot drift apart.
_MAP = GameMap()
_HIERARCHY = _MAP.hierarchy

#: Update payload size band, bytes (Counter-Strike-like position deltas).
_SIZE_RANGE = (48, 192)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"scenario:{name}:{seed}")


def _scaled(base: int, scale: float) -> int:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return max(1, int(round(base * scale)))


def _finish(
    name: str,
    seed: int,
    scale: float,
    timed: List[Tuple[float, ScenarioEvent]],
    duration_ms: float,
    **knobs,
) -> ScenarioScript:
    """Sort the merged event stream and freeze it into a script."""
    timed.sort(key=lambda item: (item[0], item[1].kind, item[1].player))
    return ScenarioScript(
        name=name,
        seed=seed,
        scale=scale,
        events=tuple(event for _, event in timed),
        duration_ms=duration_ms,
        **knobs,
    )


def _publish_events(
    rng: random.Random,
    times: List[float],
    area_moves: Dict[str, List[Tuple[float, Name]]],
    placement: Dict[str, Name],
    online_windows: Dict[str, List[Tuple[float, float]]] | None = None,
) -> List[Tuple[float, ScenarioEvent]]:
    """One publish per time stamp, by a (currently online) random player.

    ``area_moves`` maps players to their scripted (time, destination)
    moves so each publish targets the publisher's area *at that time* —
    the generator-side mirror of the subscription state the harness
    enacts.
    """
    players = sorted(placement)

    def area_at(player: str, t: float) -> Name:
        area = placement[player]
        for move_t, destination in area_moves.get(player, ()):
            if move_t <= t:
                area = destination
            else:
                break
        return area

    def online_at(player: str, t: float) -> bool:
        if online_windows is None:
            return True
        return not any(start <= t < end for start, end in online_windows.get(player, ()))

    out: List[Tuple[float, ScenarioEvent]] = []
    for t in sorted(times):
        candidates = [p for p in players if online_at(p, t)]
        publisher = rng.choice(candidates)
        cd = _HIERARCHY.publish_cd(area_at(publisher, t))
        out.append(
            (
                t,
                ScenarioEvent(
                    at_ms=t,
                    kind="publish",
                    player=publisher,
                    cd=str(cd),
                    size=rng.randint(*_SIZE_RANGE),
                ),
            )
        )
    return out


# ----------------------------------------------------------------------
# (a) Battle-royale flash crowd
# ----------------------------------------------------------------------

def flash_crowd(seed: int, scale: float = 1.0) -> ScenarioScript:
    """Density collapse into one zone, forcing an RP split cascade."""
    rng = _rng("flash-crowd", seed)
    placement = microbenchmark_placement(_MAP)
    duration = 4500.0
    target = rng.choice(_HIERARCHY.areas(_HIERARCHY.max_depth))

    timed: List[Tuple[float, ScenarioEvent]] = []
    area_moves: Dict[str, List[Tuple[float, Name]]] = {}
    outside = sorted(p for p, a in placement.items() if a != target)
    for wave_at in (600.0, 1100.0, 1600.0):
        movers = rng.sample(outside, max(1, len(outside) // 3))
        for player in movers:
            t = wave_at + rng.uniform(0.0, 150.0)
            area_moves.setdefault(player, []).append((t, target))
            timed.append(
                (
                    t,
                    ScenarioEvent(
                        at_ms=t, kind="move", player=player, area=str(target)
                    ),
                )
            )
            outside.remove(player)

    # The split cascade: R1 sheds first (same instant the chaos harness
    # uses, inside the link-flap window), then the freshly-minted RP
    # refines again — before the rp-crash plan takes R4 down at 1500ms
    # absolute, so the cascade races the blackout, not the void.
    timed.append((600.0, ScenarioEvent(at_ms=600.0, kind="split", player="R1")))
    timed.append((850.0, ScenarioEvent(at_ms=850.0, kind="split", player="R4")))

    times = [rng.uniform(0.0, duration) for _ in range(_scaled(260, scale))]
    timed.extend(_publish_events(rng, times, area_moves, placement))
    return _finish("flash-crowd", seed, scale, timed, duration)


# ----------------------------------------------------------------------
# (b) Mass join/leave churn with snapshot storms
# ----------------------------------------------------------------------

def churn(seed: int, scale: float = 1.0) -> ScenarioScript:
    """Offline/reconnect cycles; every reconnect pulls broker snapshots.

    Runs on a faster (250 ms) refresh cadence so the orphaned-ST check
    is live within the run's horizon: an Unsubscribe lost to the fault
    plan must still be reaped by the soft-state sweep before the
    verdict looks at the tables.
    """
    rng = _rng("churn", seed)
    placement = microbenchmark_placement(_MAP)
    duration = 4200.0

    churners = rng.sample(sorted(placement), 12)
    timed: List[Tuple[float, ScenarioEvent]] = []
    offline_windows: Dict[str, List[Tuple[float, float]]] = {}
    for player in churners:
        t_off = rng.uniform(300.0, 900.0)
        cycles = 1 + (1 if rng.random() < 0.4 else 0)
        for _ in range(cycles):
            t_on = t_off + rng.uniform(900.0, 1600.0)
            if t_on >= duration - 600.0:
                break
            offline_windows.setdefault(player, []).append((t_off, t_on))
            area = str(placement[player])
            timed.append(
                (t_off, ScenarioEvent(at_ms=t_off, kind="offline", player=player))
            )
            timed.append(
                (
                    t_on,
                    ScenarioEvent(
                        at_ms=t_on, kind="reconnect", player=player, area=area
                    ),
                )
            )
            t_off = t_on + rng.uniform(400.0, 800.0)

    timed.append((600.0, ScenarioEvent(at_ms=600.0, kind="split", player="R1")))
    times = [rng.uniform(0.0, duration) for _ in range(_scaled(240, scale))]
    timed.extend(
        _publish_events(rng, times, {}, placement, online_windows=offline_windows)
    )
    return _finish(
        "churn",
        seed,
        scale,
        timed,
        duration,
        refresh_interval_ms=250.0,
        extra_recovery_margin_ms=500.0,
        uses_broker=True,
    )


# ----------------------------------------------------------------------
# (c) Day/night load curve
# ----------------------------------------------------------------------

def day_night(seed: int, scale: float = 1.0) -> ScenarioScript:
    """Sinusoidal publish intensity: night -> day peak -> night."""
    rng = _rng("day-night", seed)
    placement = microbenchmark_placement(_MAP)
    duration = 4500.0

    def intensity(t: float) -> float:
        # 0.25 at the edges (night), 1.0 mid-run (the day peak).
        return 0.25 + 0.75 * math.sin(math.pi * t / duration) ** 2

    times: List[float] = []
    wanted = _scaled(280, scale)
    while len(times) < wanted:
        t = rng.uniform(0.0, duration)
        if rng.random() < intensity(t):
            times.append(t)

    timed: List[Tuple[float, ScenarioEvent]] = []
    # Load-shedding split scheduled into the rising peak — after the
    # rp-crash plan's restart, so the handoff runs on a recovering RP.
    timed.append((2250.0, ScenarioEvent(at_ms=2250.0, kind="split", player="R1")))
    timed.extend(_publish_events(rng, times, {}, placement))
    return _finish("day-night", seed, scale, timed, duration)


# ----------------------------------------------------------------------
# (d) Group movement with hotspot attraction
# ----------------------------------------------------------------------

def mobility(seed: int, scale: float = 1.0) -> ScenarioScript:
    """Squads trailing their leader between attractor zones."""
    rng = _rng("mobility", seed)
    placement = microbenchmark_placement(_MAP)
    duration = 4500.0
    zones = _HIERARCHY.areas(_HIERARCHY.max_depth)
    hotspots = rng.sample(zones, 3)
    all_areas = _HIERARCHY.areas()

    players = sorted(placement)
    rng.shuffle(players)
    squads: List[List[str]] = []
    index = 0
    while index < len(players):
        size = rng.randint(6, 8)
        squads.append(players[index : index + size])
        index += size

    timed: List[Tuple[float, ScenarioEvent]] = []
    area_moves: Dict[str, List[Tuple[float, Name]]] = {}
    for step in range(6):
        step_at = 600.0 + step * 500.0
        for squad in squads:
            if rng.random() >= 0.5:
                continue
            # Hotspot attraction: squads mostly converge on the
            # attractors, occasionally wandering anywhere.
            destination = (
                rng.choice(hotspots) if rng.random() < 0.7 else rng.choice(all_areas)
            )
            leader_t = step_at + rng.uniform(0.0, 100.0)
            for i, member in enumerate(squad):
                t = leader_t if i == 0 else leader_t + rng.uniform(50.0, 250.0)
                area_moves.setdefault(member, []).append((t, destination))
                timed.append(
                    (
                        t,
                        ScenarioEvent(
                            at_ms=t, kind="move", player=member, area=str(destination)
                        ),
                    )
                )

    for moves in area_moves.values():
        moves.sort(key=lambda item: item[0])
    timed.append((600.0, ScenarioEvent(at_ms=600.0, kind="split", player="R1")))
    times = [rng.uniform(0.0, duration) for _ in range(_scaled(260, scale))]
    timed.extend(_publish_events(rng, times, area_moves, placement))
    return _finish("mobility", seed, scale, timed, duration)


# ----------------------------------------------------------------------
# (e) Autoscale storm: forced split + migrate + merge burst
# ----------------------------------------------------------------------

def autoscale_storm(seed: int, scale: float = 1.0) -> ScenarioScript:
    """A full scale-out/scale-in cycle under load: split, migrate, merge.

    The storm replays the autoscaler's three action kinds as scripted
    events so every leg runs under every fault plan: the flash-crowd
    split cascade (R1 -> R4 at 600, R4 -> R5 at 850, both before the
    rp-crash plan takes R4 down), then — after the crash plan's restart
    — R4 *migrates* its first prefix to the fresh router R6, and
    finally R5 *merges* its whole set back into R4.  Every handoff leg
    is relay-safe by construction: R6 holds no relay entries, and R4's
    relay entries for R5's prefixes point *at* R5, so the PR-8 adoption
    guard passes (``onward == old_rp``).  Two move waves heat the target
    zone so the shed prefixes carry real traffic throughout.
    """
    rng = _rng("autoscale-storm", seed)
    placement = microbenchmark_placement(_MAP)
    duration = 4500.0
    target = rng.choice(_HIERARCHY.areas(_HIERARCHY.max_depth))

    timed: List[Tuple[float, ScenarioEvent]] = []
    area_moves: Dict[str, List[Tuple[float, Name]]] = {}
    outside = sorted(p for p, a in placement.items() if a != target)
    for wave_at in (500.0, 1400.0):
        movers = rng.sample(outside, max(1, len(outside) // 4))
        for player in movers:
            t = wave_at + rng.uniform(0.0, 150.0)
            area_moves.setdefault(player, []).append((t, target))
            timed.append(
                (
                    t,
                    ScenarioEvent(
                        at_ms=t, kind="move", player=player, area=str(target)
                    ),
                )
            )
            outside.remove(player)

    # Scale-out: the flash-crowd cascade, same instants so the storm
    # races the same fault windows the committed cells already pin.
    timed.append((600.0, ScenarioEvent(at_ms=600.0, kind="split", player="R1")))
    timed.append((850.0, ScenarioEvent(at_ms=850.0, kind="split", player="R4")))
    # Rebalance: R4 (restarted by then under rp-crash) sheds its first
    # prefix to R6 — a router with no relay history, so trivially safe.
    timed.append(
        (2400.0, ScenarioEvent(at_ms=2400.0, kind="migrate", player="R4", area="R6"))
    )
    # Scale-in: R5 folds back into R4; R4's relay entries for those
    # prefixes name R5, so the adoption guard sees its own handoff.
    timed.append(
        (3200.0, ScenarioEvent(at_ms=3200.0, kind="merge", player="R5", area="R4"))
    )

    times = [rng.uniform(0.0, duration) for _ in range(_scaled(260, scale))]
    timed.extend(_publish_events(rng, times, area_moves, placement))
    return _finish(
        "autoscale-storm",
        seed,
        scale,
        timed,
        duration,
        extra_recovery_margin_ms=500.0,
    )


BUILTIN_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="flash-crowd",
        description="battle-royale density collapse forcing an RP split cascade",
        build=flash_crowd,
    ),
    Scenario(
        name="churn",
        description="mass join/leave with offline/reconnect snapshot storms",
        build=churn,
    ),
    Scenario(
        name="day-night",
        description="sinusoidal load curve with a split into the peak",
        build=day_night,
    ),
    Scenario(
        name="mobility",
        description="squad movement with hotspot attraction",
        build=mobility,
    ),
    Scenario(
        name="autoscale-storm",
        description="forced split + migrate + merge burst under load",
        build=autoscale_storm,
    ),
)
