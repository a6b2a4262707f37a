"""Drivers for what set-up is made of — trace generation, the backbone
build, route install — and the trace-recording ratio (standing anomaly c
of the ROADMAP, as a named number)."""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.core.engine import GCopssHost, GCopssNetworkBuilder, GCopssRouter
from repro.experiments.common import default_rp_assignment, pick_rp_sites
from repro.experiments.tracerun import run_fig4_traced
from repro.obs.session import TelemetrySession
from repro.topology.backbone import build_backbone

from . import TraceInputs, median_of, seconds

RECORDING_SCALE = 0.05


def _backbone(inputs: TraceInputs):
    built = build_backbone(GCopssRouter)
    built.attach_hosts(GCopssHost, sorted(inputs.generator.placement), 1.0)
    return built


def _install_routes_s(inputs: TraceInputs) -> float:
    hierarchy = inputs.game_map.hierarchy

    def arm() -> float:
        built = _backbone(inputs)
        rp_table = default_rp_assignment(hierarchy, pick_rp_sites(built, 3))
        start = time.perf_counter()
        GCopssNetworkBuilder(built.network, rp_table).install()
        return time.perf_counter() - start

    return median_of(arm)


def run(seed: int, inputs: TraceInputs) -> Dict[str, Any]:
    untraced = seconds(lambda: run_fig4_traced(RECORDING_SCALE, seed))
    recording = seconds(
        lambda: run_fig4_traced(RECORDING_SCALE, seed, telemetry=TelemetrySession())
    )
    return {
        "trace.generator.events_per_s": len(inputs.events)
        / seconds(inputs.generator.generate),
        "topology.backbone.build_s": seconds(lambda: _backbone(inputs)),
        "core.engine.install_routes_s": _install_routes_s(inputs),
        "obs.tracer.recording_x": recording / untraced,
    }
