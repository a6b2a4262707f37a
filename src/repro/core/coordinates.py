"""Vivaldi network coordinates and coordinate-based RP selection.

Paper §IV-B: "The RP selection function is similar to that in IP
multicast.  It may be performed by a network manager or calculated by a
Network Coordinate function like [16]" — [16] being Vivaldi (Dabek et
al., SIGCOMM 2004) — and §VI lists "algorithms for improving RP
selection" as ongoing work.  This module implements both pieces:

* :class:`VivaldiSystem` — the classic adaptive spring-relaxation
  algorithm: each node keeps a low-dimensional coordinate plus a local
  error estimate and nudges itself on every latency sample;
* :func:`coordinate_rp_selector` — a candidate-selection policy for
  :class:`~repro.core.balancer.RpLoadBalancer` that picks the idle router
  whose coordinate is closest to the latency centroid of the routers
  that currently carry the moved CDs' subscribers, instead of the
  default least-loaded pick.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import GCopssRouter
from repro.names import Name

__all__ = ["VivaldiSystem", "coordinate_rp_selector", "seed_coordinates_from_delays"]

Vector = Tuple[float, ...]

#: Vivaldi's force gain: the share of the spring error a sample corrects,
#: scaled by the sample's relative weight.
CC = 0.25


def _sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _scale(a: Vector, k: float) -> Vector:
    return tuple(x * k for x in a)


def _norm(a: Vector) -> float:
    return math.sqrt(sum(x * x for x in a))


class VivaldiSystem:
    """Decentralized latency embedding via spring relaxation.

    Every node ``i`` holds a coordinate ``x_i`` and confidence-weighted
    error ``e_i``.  Feeding an observed RTT sample between two nodes
    moves both coordinates along the spring force; after enough samples
    the Euclidean distance between coordinates predicts the latency
    between any two nodes without ever measuring that pair.

    The implementation follows the adaptive-timestep variant of the
    Vivaldi paper: ``ce`` is the error gain and :data:`CC` the force gain.
    """

    def __init__(
        self,
        dimensions: int = 2,
        ce: float = 0.25,
        seed: int = 17,
    ) -> None:
        if dimensions < 1:
            raise ValueError("need at least one dimension")
        if not 0 < ce <= 1:
            raise ValueError("the error gain must be in (0, 1]")
        self.dimensions = dimensions
        self.ce = ce
        self._rng = random.Random(seed)
        self._coords: Dict[Hashable, Vector] = {}
        self._errors: Dict[Hashable, float] = {}
        self.samples_applied = 0

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def coordinate(self, node: Hashable) -> Vector:
        """The node's current embedding (lazily initialized)."""
        if node not in self._coords:
            # Start at a tiny random offset: identical origins give a zero
            # force direction and the algorithm needs symmetry breaking.
            self._coords[node] = tuple(
                self._rng.uniform(-0.01, 0.01) for _ in range(self.dimensions)
            )
            self._errors[node] = 1.0
        return self._coords[node]

    def nodes(self) -> List[Hashable]:
        return sorted(self._coords, key=repr)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def observe(self, a: Hashable, b: Hashable, rtt_ms: float) -> None:
        """Fold one latency sample between ``a`` and ``b`` into the map."""
        if rtt_ms < 0:
            raise ValueError(f"negative RTT sample: {rtt_ms}")
        if a == b:
            return
        xa, xb = self.coordinate(a), self.coordinate(b)
        ea, eb = self._errors[a], self._errors[b]
        dist = _norm(_sub(xa, xb))
        # Sample confidence: how much of the pair's total error is ours.
        w = ea / (ea + eb) if ea + eb > 0 else 0.5
        relative_error = abs(dist - rtt_ms) / rtt_ms if rtt_ms > 0 else 0.0
        # Update local error estimate (exponentially weighted).
        self._errors[a] = max(
            1e-6, relative_error * self.ce * w + ea * (1 - self.ce * w)
        )
        # Force along the spring; random direction when colocated.
        direction = _sub(xa, xb)
        norm = _norm(direction)
        if norm < 1e-9:
            direction = tuple(
                self._rng.uniform(-1, 1) for _ in range(self.dimensions)
            )
            norm = _norm(direction) or 1.0
        unit = _scale(direction, 1.0 / norm)
        delta = CC * w
        self._coords[a] = _add(xa, _scale(unit, delta * (rtt_ms - dist)))
        self.samples_applied += 1

    def observe_symmetric(self, a: Hashable, b: Hashable, rtt_ms: float) -> None:
        """Apply the sample from both endpoints' perspectives."""
        self.observe(a, b, rtt_ms)
        self.observe(b, a, rtt_ms)

    def centroid(self, nodes: Iterable[Hashable]) -> Vector:
        """Mean coordinate of a node set (the subscriber "center")."""
        coords = [self.coordinate(n) for n in nodes]
        if not coords:
            raise ValueError("centroid of no nodes")
        total = coords[0]
        for coord in coords[1:]:
            total = _add(total, coord)
        return _scale(total, 1.0 / len(coords))


def seed_coordinates_from_delays(
    system: VivaldiSystem,
    delays: Dict[Tuple[Hashable, Hashable], float],
    rounds: int = 20,
    seed: int = 19,
) -> None:
    """Train an embedding from a matrix of measured delays.

    Stands in for the background ping traffic real deployments use:
    every round replays the pair samples in a random order.
    """
    rng = random.Random(seed)
    pairs = list(delays.items())
    for _ in range(rounds):
        rng.shuffle(pairs)
        for (a, b), rtt in pairs:
            system.observe_symmetric(a, b, rtt)


def coordinate_rp_selector(
    system: VivaldiSystem,
    subscriber_router_of: "callable",
):
    """Build an RP-candidate chooser that minimizes predicted distance.

    ``subscriber_router_of(prefixes)`` must return the router names that
    currently hold subscriptions under the moved prefixes (the balancer
    knows them from the old RP's ST).  The returned function has the
    signature the balancer's ``_choose_new_rp`` uses internally and can
    be assigned over it.
    """

    def choose(balancer, moved_prefixes: Sequence[Name]) -> Optional[str]:
        routers = subscriber_router_of(moved_prefixes)
        candidates = []
        for name in balancer.candidates:
            node = balancer.router.network.nodes.get(name)
            if not isinstance(node, GCopssRouter) or node is balancer.router:
                continue
            if node.rp_role.prefixes or node.relay_role.relinquished:
                continue
            candidates.append(name)
        if not candidates:
            return None
        if not routers:
            return min(candidates)
        target = system.centroid(routers)
        def distance(name: str) -> float:
            return _norm(_sub(system.coordinate(name), target))
        return min(candidates, key=lambda n: (distance(n), n))

    return choose
