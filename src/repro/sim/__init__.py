"""Deterministic discrete-event simulation substrate.

The paper's large-scale evaluation runs on a custom simulator
"parameterized based on microbenchmarks" of the real implementation.  This
package provides that substrate: a seedable event loop
(:class:`~repro.sim.engine.Simulator`), single-server FIFO service stations
used to model router/RP/server processing (:mod:`repro.sim.queues`),
a node/face/link network fabric (:mod:`repro.sim.network`), metric
recorders (:mod:`repro.sim.stats`) and closed-form flow accounting for
network-load columns (:mod:`repro.sim.flows`).

All simulated time is in **milliseconds** (floats); all sizes are in
**bytes** (ints).
"""

from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    GilbertElliott,
    LinkFaults,
    NodeFaults,
)
from repro.sim.network import Link, Network, Node, PacketDispatcher
from repro.sim.queues import ServiceQueue
from repro.sim.roles import Role
from repro.sim.stats import LatencyRecorder, NodeStats, SeriesRecorder

__all__ = [
    "Simulator",
    "Node",
    "Link",
    "Network",
    "PacketDispatcher",
    "Role",
    "ServiceQueue",
    "LatencyRecorder",
    "NodeStats",
    "SeriesRecorder",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "GilbertElliott",
    "LinkFaults",
    "NodeFaults",
]
