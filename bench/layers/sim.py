"""Drivers for ``sim.engine``, ``sim.network``, ``sim.stats``,
``sim.invariants`` and ``obs.tracer``."""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.core.packets import MulticastPacket
from repro.obs.tracer import PacketTracer
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan, LinkFaults
from repro.sim.invariants import InvariantMonitor, SubscriptionLedger
from repro.sim.network import Network, Node
from repro.sim.stats import LatencyRecorder

from . import TraceInputs, median_of, ns_per_op

#: Link and service delays of the backbone workload (host-edge, edge-core,
#: COPSS forward, RP service) — the timestamp pattern events land on.
BACKBONE_DELAYS_MS = (1.0, 5.0, 0.05, 3.3)
FANOUT = 8


class _Sink(Node):
    """Discards everything; only the egress path is under test."""

    def receive(self, packet, face) -> None:
        pass


def _selfsched_ns(total: int = 200_000, chains: int = 64) -> float:
    """Events that schedule their successor from inside the callback."""

    def arm() -> float:
        sim = Simulator()
        remaining = [total]
        delays = BACKBONE_DELAYS_MS

        def tick(i: int) -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(delays[i % 4], tick, i + 1)

        for chain in range(chains):
            sim.schedule(0.0, tick, chain)
        start = time.perf_counter()
        sim.run()
        return (time.perf_counter() - start) / sim.events_processed

    return median_of(arm) * 1e9


def _preloaded_ns(inputs: TraceInputs) -> float:
    """Drain a calendar preloaded with fan-out bursts at the trace's times."""

    def arm() -> float:
        sim = Simulator()

        def deliver() -> None:
            pass

        for rank, event in enumerate(inputs.events):
            for _ in range(FANOUT):
                sim.schedule_arrival_at(event.time_ms + 1.0, rank, rank, deliver)
        start = time.perf_counter()
        sim.run()
        return (time.perf_counter() - start) / sim.events_processed

    return median_of(arm) * 1e9


def _fixture(inputs: TraceInputs):
    """Two sink nodes on one link, and the trace's updates as packets."""
    network = Network()
    a, b = _Sink(network, "a"), _Sink(network, "b")
    network.connect(a, b, 1.0)
    packets = [
        MulticastPacket(cd=e.cd, payload_size=e.size, publisher=e.player, sequence=i)
        for i, e in enumerate(inputs.events)
    ]
    return network, a, b, packets


def _send_ns(inputs: TraceInputs, armed: bool) -> float:
    """``Face.send`` of the trace's packet mix; arrivals drained untimed."""
    network, a, b, packets = _fixture(inputs)
    if armed:
        # The chaos arm: hook runs, control-scoped spec passes data through.
        plan = FaultPlan(
            seed=1, name="bench", default=LinkFaults(loss=0.05, scope="control")
        )
        FaultInjector(network, plan).install()
    send = a.face_toward(b).send

    def arm() -> float:
        start = time.perf_counter()
        for packet in packets:
            send(packet)
        elapsed = time.perf_counter() - start
        network.sim.run()
        return elapsed

    return median_of(arm) / len(packets) * 1e9


def _on_deliver_ns(inputs: TraceInputs) -> float:
    _network, _a, b, packets = _fixture(inputs)
    ledger = SubscriptionLedger()
    ledger.note(b.name, 0.0, set(inputs.cds))

    def loop() -> None:
        monitor = InvariantMonitor(ledger)
        on_deliver = monitor.on_deliver
        for packet in packets:
            on_deliver(b, packet)

    return ns_per_op(loop, len(packets))


def _on_forward_ns(inputs: TraceInputs) -> float:
    _network, a, b, packets = _fixture(inputs)
    face = a.face_toward(b)

    def loop() -> None:
        tracer = PacketTracer()
        on_forward = tracer.on_forward
        for packet in packets:
            on_forward(face, packet, 1.0)

    return ns_per_op(loop, len(packets))


def _record_ns(inputs: TraceInputs) -> float:
    values = [event.time_ms % 100.0 for event in inputs.events] * 20

    def loop() -> None:
        record = LatencyRecorder("bench").record
        for value in values:
            record(value)

    return ns_per_op(loop, len(values))


def run(seed: int, inputs: TraceInputs) -> Dict[str, Any]:
    plain = _send_ns(inputs, armed=False)
    return {
        "sim.engine.ns_per_event_selfsched": _selfsched_ns(),
        "sim.engine.ns_per_event_preloaded": _preloaded_ns(inputs),
        "sim.network.send_ns": plain,
        "sim.network.send_hooks_armed_x": _send_ns(inputs, armed=True) / plain,
        "sim.stats.record_ns": _record_ns(inputs),
        "sim.invariants.on_deliver_ns": _on_deliver_ns(inputs),
        "obs.tracer.on_forward_ns": _on_forward_ns(inputs),
    }
