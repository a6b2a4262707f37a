"""Synthetic Counter-Strike-style trace generation.

The raw mshmro.com capture the paper replays is not public; this module
generates seeded traces reproducing its published aggregates (DESIGN.md
records the substitution):

* a fixed player population placed on the game map (4-20 per area);
* a global Poisson update process with a configurable mean inter-arrival
  (the paper reports ~2.4 ms over the peak window driving Table I/Fig. 5,
  and 1,686,905 updates over 7h05m25s overall);
* heavily skewed per-player activity (Fig. 3c) drawn from a seeded
  lognormal;
* update sizes uniform in [50, 350] bytes (§V-A), consistent with the
  "almost all gaming packets are under 200 bytes" regime of [Feng et al.];
* each update targets an object drawn uniformly from everything the
  player can currently see, which automatically reproduces the per-layer
  update-rate stratification of §V-B (top objects are visible to everyone
  and thus hottest).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional

from repro.game.map import GameMap
from repro.names import Name
from repro.trace.model import Trace

__all__ = [
    "TraceSpec",
    "CounterStrikeTraceGenerator",
    "microbenchmark_spec",
    "peak_trace_spec",
    "full_trace_spec",
]

#: Full capture duration: 7h 05m 25s in ms.
FULL_TRACE_DURATION_MS = ((7 * 60 + 5) * 60 + 25) * 1000.0


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of one synthetic trace."""

    num_players: int
    num_updates: int
    mean_interarrival_ms: float
    size_range: tuple[int, int] = (50, 350)
    activity_sigma: float = 1.0   # lognormal shape of per-player activity
    #: Relative pick-probability of satellite-layer objects.  The paper's
    #: map partitioning is driven by "the object heat level in each
    #: partition" (§III-A); everyone sees (and shoots at) the top layer,
    #: making its objects the hottest per capita.
    top_layer_bias: float = 1.5
    #: Peak-intensity ramp: the capture is from "the peak period of one
    #: day" (§V-B), so the instantaneous update rate rises linearly to
    #: ``peak_ramp`` x the starting rate over the trace while the *mean*
    #: inter-arrival stays at ``mean_interarrival_ms``.
    peak_ramp: float = 1.4
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_players < 1:
            raise ValueError("need at least one player")
        if self.num_updates < 0:
            raise ValueError("num_updates must be >= 0")
        if self.mean_interarrival_ms <= 0:
            raise ValueError("mean inter-arrival must be positive")
        lo, hi = self.size_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad size range: {self.size_range}")
        if self.top_layer_bias <= 0:
            raise ValueError("top_layer_bias must be positive")
        if self.peak_ramp < 1.0:
            raise ValueError("peak_ramp must be >= 1 (rate rises toward the peak)")

    @property
    def duration_ms(self) -> float:
        return self.num_updates * self.mean_interarrival_ms


def microbenchmark_spec(scale: float = 1.0, seed: int = 42) -> TraceSpec:
    """The §V-A testbed trace: 62 players, 12,440 publishes in 10 minutes.

    ``scale`` < 1 shrinks the event count (same rate, shorter run) for
    quick benchmark iterations.
    """
    updates = max(1, round(12_440 * scale))
    return TraceSpec(
        num_players=62,
        num_updates=updates,
        mean_interarrival_ms=600_000.0 / 12_440,  # ~48 ms aggregate
        size_range=(50, 350),
        activity_sigma=0.35,  # testbed publishers were near-uniform
        seed=seed,
    )


def peak_trace_spec(
    num_players: int = 414,
    num_updates: int = 100_000,
    scale: float = 1.0,
    seed: int = 42,
) -> TraceSpec:
    """The peak window driving Table I / Fig. 5 / Fig. 6.

    Mean inter-arrival 2.4 ms (the paper's reported figure for the first
    100,000 update packets).  ``scale`` shrinks the number of events while
    keeping the arrival rate — congestion behaviour is preserved, runs are
    shorter.
    """
    return TraceSpec(
        num_players=num_players,
        num_updates=max(1, round(num_updates * scale)),
        mean_interarrival_ms=2.4,
        seed=seed,
    )


def full_trace_spec(scale: float = 1.0, seed: int = 42) -> TraceSpec:
    """The whole-capture workload behind Table II.

    1,686,905 updates across the full 7h05m25s give a mean inter-arrival
    of ~15.1 ms — comfortably uncongested for 6 RPs/servers, matching the
    paper's "when there is no congestion" framing.  ``scale`` shrinks the
    event count (rate preserved); Table II's GB columns are then scaled
    back up by the harness.
    """
    updates = max(1, round(1_686_905 * scale))
    return TraceSpec(
        num_players=414,
        num_updates=updates,
        mean_interarrival_ms=FULL_TRACE_DURATION_MS / 1_686_905,
        seed=seed,
    )


class CounterStrikeTraceGenerator:
    """Generates a seeded :class:`Trace` over a game map."""

    def __init__(
        self,
        game_map: GameMap,
        spec: TraceSpec,
        placement: Optional[Dict[str, Name]] = None,
    ) -> None:
        self.map = game_map
        self.spec = spec
        self.rng = random.Random(spec.seed)
        if placement is not None:
            if len(placement) != spec.num_players:
                raise ValueError(
                    f"placement has {len(placement)} players, spec wants"
                    f" {spec.num_players}"
                )
            self.placement: Dict[str, Name] = dict(placement)
        else:
            self.placement = game_map.place_players(spec.num_players, seed=spec.seed)
        self._weights = self._draw_activity_weights()

    def _draw_activity_weights(self) -> Dict[str, float]:
        """Skewed per-player activity (Fig. 3c's long-tailed CDF)."""
        weights = {}
        for player in sorted(self.placement):
            weights[player] = self.rng.lognormvariate(0.0, self.spec.activity_sigma)
        total = sum(weights.values())
        return {p: w / total for p, w in weights.items()}

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        """The full trace, time-sorted, deterministic for the seed."""
        players = sorted(self.placement)
        # Cumulative weights, built once: ``choices(weights=...)`` would
        # rebuild them on every draw, for the same picks.
        cum_weights = list(accumulate(self._weights[p] for p in players))
        visible_cache: Dict[Name, tuple[List[int], List[float]]] = {}
        trace = Trace(players)
        now = 0.0
        lo, hi = self.spec.size_range
        n = self.spec.num_updates
        ramp = self.spec.peak_ramp
        # Base mean chosen so the ramped process still averages the spec's
        # inter-arrival: mean of m0/(1 + (ramp-1)x) over x in [0,1] is
        # m0 * ln(ramp)/(ramp-1).
        if ramp > 1.0:
            base_mean = self.spec.mean_interarrival_ms * (ramp - 1) / math.log(ramp)
        else:
            base_mean = self.spec.mean_interarrival_ms
        bias = self.spec.top_layer_bias
        top_depth = 0
        for i in range(n):
            progress = i / n if n else 0.0
            current_mean = base_mean / (1.0 + (ramp - 1.0) * progress)
            now += self.rng.expovariate(1.0 / current_mean)
            player = self.rng.choices(players, cum_weights=cum_weights, k=1)[0]
            area = self.placement[player]
            cached = visible_cache.get(area)
            if cached is None:
                visible = self.map.visible_objects(area)
                object_weights = (
                    bias
                    if self.map.hierarchy.area_of_leaf(
                        self.map.area_of_object(oid)
                    ).depth == top_depth
                    else 1.0
                    for oid in visible
                )
                cached = (visible, list(accumulate(object_weights)))
                visible_cache[area] = cached
            visible, object_cum_weights = cached
            object_id = self.rng.choices(visible, cum_weights=object_cum_weights, k=1)[0]
            trace.append(
                now,
                player,
                self.map.area_of_object(object_id),
                object_id,
                self.rng.randint(lo, hi),
            )
        return trace

    # ------------------------------------------------------------------
    # Derived info used by experiment harnesses
    # ------------------------------------------------------------------
    def rescale_players(
        self,
        num_players: int,
        seed: Optional[int] = None,
        scale_rate: bool = True,
        num_updates: Optional[int] = None,
    ) -> "CounterStrikeTraceGenerator":
        """A generator for the same map but a different population.

        Used by the Fig. 6 scalability sweep (50 ... 4,000 players).  With
        ``scale_rate`` (default) the aggregate update rate scales linearly
        with the population — each player keeps the per-player rate of the
        base trace — which is the load model behind the paper's
        server-side hockey stick.  The per-area placement envelope widens
        proportionally so any count fits.
        """
        per_area_avg = num_players / len(self.map.hierarchy.areas())
        lo = max(0, math.floor(per_area_avg * 0.3))
        hi = max(1, math.ceil(per_area_avg * 1.7) + 1)
        interarrival = self.spec.mean_interarrival_ms
        if scale_rate:
            interarrival *= self.spec.num_players / num_players
        spec = TraceSpec(
            num_players=num_players,
            num_updates=self.spec.num_updates if num_updates is None else num_updates,
            mean_interarrival_ms=interarrival,
            size_range=self.spec.size_range,
            activity_sigma=self.spec.activity_sigma,
            top_layer_bias=self.spec.top_layer_bias,
            peak_ramp=self.spec.peak_ramp,
            seed=self.spec.seed if seed is None else seed,
        )
        clone = object.__new__(CounterStrikeTraceGenerator)
        clone.map = self.map
        clone.spec = spec
        clone.rng = random.Random(spec.seed)
        clone.placement = self.map.place_players(
            num_players, per_area=(lo, hi), seed=spec.seed
        )
        clone._weights = clone._draw_activity_weights()
        return clone
