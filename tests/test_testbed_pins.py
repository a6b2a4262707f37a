"""Pinned outputs of everything that stands up a world.

The four Fig. 3b callers (``run_chaos``, ``run_fig4_traced``,
``run_gcopss_testbed``, and — through ``tests/data/scenario_matrix.json``
— ``run_scenario``) share one testbed builder, and the scale world has one
construction loop behind the full build and the slices.  This file holds
the callers' outputs to the bytes they produced when each still built its
own world, so a builder change that moves a face id, a rank or a counter
shows up here and not as a drifting figure.

Regenerate after a *declared* behaviour change with
``PYTHONPATH=src python tests/test_testbed_pins.py > tests/data/testbed_digests.json``.
"""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.experiments.chaos import PLAN_NAMES, run_chaos
from repro.experiments.common import run_gcopss_testbed
from repro.experiments.fig4_microbench import microbenchmark_placement
from repro.experiments.tracerun import run_fig4_traced
from repro.game.map import GameMap
from repro.parallel.digest import canonical_digest
from repro.parallel.scale import ScaleSpec, run_scale
from repro.trace.generator import CounterStrikeTraceGenerator, microbenchmark_spec

PINS = Path(__file__).parent / "data" / "testbed_digests.json"

FIG4_SCALE, FIG4_SEED = 0.02, 7
#: First spec of ``tests/test_parallel_slicing.py: SPECS``.
SCALE_SPEC = ScaleSpec(players=64, regions=4, access_per_region=2, updates=80, seed=9)
SCALE_MODES = {"serial": (1, 1), "inproc:2": (2, 1), "proc:2": (1, 2)}


def chaos_digest(plan: str) -> str:
    return run_chaos(plan, seed=1, scale=0.02).digest()


def fig4_traced_digest() -> str:
    outcome = run_fig4_traced(FIG4_SCALE, seed=FIG4_SEED)
    # uid_by_seq reads the process-global packet-id counter: it depends on
    # what ran before in this interpreter, not on the run.
    del outcome["uid_by_seq"]
    return canonical_digest(outcome)


def gcopss_testbed_digest() -> str:
    game_map = GameMap(seed=FIG4_SEED)
    placement = microbenchmark_placement(game_map)
    events = CounterStrikeTraceGenerator(
        game_map,
        microbenchmark_spec(scale=FIG4_SCALE, seed=FIG4_SEED),
        placement=placement,
    ).generate()
    result = run_gcopss_testbed(events, game_map, placement)
    return canonical_digest(
        {
            "latency_samples": list(result.latency.samples),
            "network_bytes": result.network_bytes,
            "deliveries": result.deliveries,
        }
    )


def scale_digest(mode: str) -> str:
    shards, workers = SCALE_MODES[mode]
    result = run_scale(SCALE_SPEC, shards=shards, workers=workers)
    assert result["mode"] == mode
    return result["digest"]


def compute() -> dict:
    return {
        "chaos": {plan: chaos_digest(plan) for plan in PLAN_NAMES},
        "fig4_traced": fig4_traced_digest(),
        "gcopss_testbed": gcopss_testbed_digest(),
        "scale": {mode: scale_digest(mode) for mode in SCALE_MODES},
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_every_plan_and_mode(pinned):
    assert sorted(pinned["chaos"]) == sorted(PLAN_NAMES)
    assert sorted(pinned["scale"]) == sorted(SCALE_MODES)


@pytest.mark.parametrize("plan", PLAN_NAMES)
def test_chaos_report_digest(pinned, plan):
    assert chaos_digest(plan) == pinned["chaos"][plan]


def test_fig4_traced_outcome(pinned):
    assert fig4_traced_digest() == pinned["fig4_traced"]


def test_gcopss_testbed_result(pinned):
    assert gcopss_testbed_digest() == pinned["gcopss_testbed"]


@pytest.mark.parametrize("mode", SCALE_MODES)
def test_scale_delivery_digest(pinned, mode):
    if mode.startswith("proc") and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    assert scale_digest(mode) == pinned["scale"][mode]


if __name__ == "__main__":
    print(json.dumps(compute(), indent=2, sort_keys=True))
