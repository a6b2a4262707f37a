"""Drivers for ``parallel.*``: wire batches, slice and world builds, the
delivery digest, and the two executor-overhead ratios (standing
anomalies a and b of the ROADMAP, as named numbers)."""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.core.packets import MulticastPacket
from repro.parallel import wire
from repro.parallel.digest import DeliveryLog
from repro.parallel.scale import ScaleSpec, build_scale_world, run_scale
from repro.parallel.slicing import build_scale_shard, scale_plan_fast

from . import TraceInputs, ns_per_op, seconds

#: The ``sharded_scale`` world at its full population.
BUILD_SPEC = dict(players=8000, regions=4, access_per_region=4)
#: Small enough that serial, inproc:2 and proc:2 arms take ~1 s together.
RATIO_SPEC = dict(players=1200, regions=4, access_per_region=4, updates=100)


def _wire_ns(inputs: TraceInputs) -> Dict[str, float]:
    """One RUN frame carrying the trace's packets as transit messages."""
    msgs = [
        (
            event.time_ms, i % 16, i, "core1", "core0",
            MulticastPacket(cd=event.cd, payload_size=event.size,
                            publisher=event.player, sequence=i),
        )
        for i, event in enumerate(inputs.events)
    ]
    frame = wire.encode_run(1e9, False, msgs)
    return {
        "parallel.wire.encode_ns_per_msg": ns_per_op(
            lambda: wire.encode_run(1e9, False, msgs), len(msgs)
        ),
        "parallel.wire.decode_ns_per_msg": ns_per_op(
            lambda: wire.decode_run(frame), len(msgs)
        ),
    }


def _digest_ns(inputs: TraceInputs) -> float:
    log = DeliveryLog()
    for i, event in enumerate(inputs.events):
        for receiver in range(20):
            log.record(i, f"p{receiver:06d}", event.time_ms % 37.0 + receiver)
    return ns_per_op(log.digest, len(log))


def _wall(spec: ScaleSpec, shards: int, workers: int) -> float:
    start = time.perf_counter()
    run_scale(spec, shards=shards, workers=workers)
    return time.perf_counter() - start


def run(seed: int, inputs: TraceInputs) -> Dict[str, Any]:
    build_spec = ScaleSpec(seed=seed, updates=0, **BUILD_SPEC)
    plan = scale_plan_fast(build_spec, 2)
    ratio_spec = ScaleSpec(seed=seed, **RATIO_SPEC)
    serial = _wall(ratio_spec, 1, 1)
    out = _wire_ns(inputs)
    out.update(
        {
            "parallel.slicing.build_shard_s": seconds(
                lambda: build_scale_shard(build_spec, plan, 0)
            ),
            "parallel.scale.build_world_s": seconds(lambda: build_scale_world(build_spec)),
            "parallel.digest.digest_ns_per_entry": _digest_ns(inputs),
            "parallel.executor.inproc_over_serial_x": _wall(ratio_spec, 2, 1) / serial,
            "parallel.procpool.proc_over_serial_x": _wall(ratio_spec, 2, 2) / serial,
        }
    )
    return out
