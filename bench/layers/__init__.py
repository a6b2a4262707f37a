"""Layer drivers: direct timed loops over one layer at a time.

Each driver feeds a single ``repro`` layer inputs taken from the
reference workloads — the CD stream, packet sizes and timestamps of the
``backbone_peak`` trace at the run's seed, the ``sharded_scale`` spec,
the ``live_wire`` publish messages — and reports nanoseconds per
operation (or seconds per build, or a ratio between two arms).  They
exist so that a change to one layer has a number of its own to move; the
README's interaction table says which end-to-end metric, on which
workload, that number should move with it.  A driver win the end-to-end
numbers cannot see is a candidate for deletion, not celebration.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

REPEATS = 3


def median_of(arm: Callable[[], float]) -> float:
    """Median of :data:`REPEATS` samples of an arm that times itself."""
    return statistics.median(arm() for _ in range(REPEATS))


def seconds(fn: Callable[[], Any]) -> float:
    """Median wall time of ``fn()`` over :data:`REPEATS` calls."""

    def arm() -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return median_of(arm)


def ns_per_op(fn: Callable[[], Any], ops: int) -> float:
    return seconds(fn) / ops * 1e9


@dataclass
class TraceInputs:
    """What the drivers borrow from the ``backbone_peak`` workload."""

    game_map: Any
    generator: Any
    events: List[Any]

    @property
    def cds(self) -> List[Any]:
        return [event.cd for event in self.events]


def trace_inputs(seed: int, updates: int = 2000) -> TraceInputs:
    from repro.game.map import GameMap
    from repro.trace.generator import CounterStrikeTraceGenerator, peak_trace_spec

    game_map = GameMap(seed=seed)
    generator = CounterStrikeTraceGenerator(
        game_map, peak_trace_spec(num_updates=updates, seed=seed)
    )
    return TraceInputs(game_map, generator, generator.generate())


def run_all(seed: int) -> Dict[str, float]:
    """Every layer-driver metric, by its ``BENCHMARK.json`` name."""
    from . import build, core, net, parallel, sim

    inputs = trace_inputs(seed)
    out: Dict[str, float] = {}
    for module in (sim, core, parallel, net, build):
        out.update(module.run(seed, inputs))
    return out
