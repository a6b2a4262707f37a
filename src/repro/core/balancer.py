"""Dynamic RP load balancing: hot-spot detection and CD splitting.

Paper §IV-B: when the packet queue at a router serving as an RP exceeds a
threshold, a new RP is created automatically.  The overloaded RP monitors
per-CD traffic in a sliding window of the most recent N packets, divides
its CDs into two groups to balance load between the old and new RP, and
hands one group off through the three-stage no-loss protocol implemented
in :mod:`repro.core.engine`.

The paper leaves the RP *selection* function open ("similar to that in IP
multicast ... may be performed by a network manager or calculated by a
Network Coordinate function"; their evaluation uses random selection to
divide the load equally).  Both the split policy and the candidate
selection are pluggable here; the defaults match the paper's evaluation
(random/balanced split, least-loaded candidate).
"""

from __future__ import annotations

import random
from collections import Counter
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.engine import GCopssRouter
from repro.core.hierarchy import AIRSPACE, MapHierarchy
from repro.names import Name
from repro.sim.queues import ServiceQueue

__all__ = ["SplitPolicy", "RpLoadBalancer", "default_refiner", "greedy_half"]


def greedy_half(prefixes: Sequence[Name], loads: Counter) -> List[Name]:
    """Greedy half-partition: heaviest-first into the lighter bin.

    Returns the prefixes to *move*; the balancer and the federation
    autoscaler share this policy so a threshold split and an autoscaled
    split shed the same set given the same window.  Always moves at least
    one and keeps at least one when ``len(prefixes) >= 2``.
    """
    keep: List[Name] = []
    move: List[Name] = []
    keep_load = 0
    move_load = 0
    for prefix in sorted(prefixes, key=lambda p: (-loads.get(p, 0), p)):
        weight = loads.get(prefix, 0)
        if move_load < keep_load or (move_load == keep_load and len(move) <= len(keep)):
            move.append(prefix)
            move_load += weight
        else:
            keep.append(prefix)
            keep_load += weight
    if not keep:
        keep.append(move.pop())
    if not move and keep:
        move.append(keep.pop())
    return move


class SplitPolicy(Enum):
    """How the overloaded RP partitions its CDs into keep/move groups."""

    RANDOM = "random"                     # the paper's evaluation policy
    TRAFFIC_WEIGHTED = "traffic-weighted"  # greedy balance on window counts


def default_refiner(hierarchy: MapHierarchy) -> Callable[[Name], List[Name]]:
    """Refine a served prefix into its child prefixes on the game map.

    An RP serving a single coarse prefix (say the whole map ``/``) cannot
    shed load without first splitting that prefix into finer prefix-free
    pieces: the child areas plus the airspace leaf that keeps the parent
    layer covered.
    """

    def refine(prefix: Name) -> List[Name]:
        if not hierarchy.is_area(prefix):
            # Airspace leaves (e.g. /0) and other leaf CDs are atomic: a
            # single CD hotter than one RP's capacity cannot be split
            # further — the fundamental limit of CD partitioning.
            return []
        children = hierarchy.children(prefix)
        if not children:
            return []
        pieces = list(children)
        pieces.append(prefix / AIRSPACE)
        return pieces

    return refine


class RpLoadBalancer:
    """Watches one RP's queue and splits its CD set under overload.

    Parameters
    ----------
    router:
        The RP router to protect.
    candidates:
        Router names eligible to become new RPs.
    queue_threshold:
        Queue length (packets waiting) that triggers a split — the paper's
        "packet queue ... above a certain threshold".
    policy:
        Keep/move partition policy.
    refiner:
        Maps a served prefix to finer prefix-free child prefixes, used when
        the RP serves too few prefixes to shed half its load.
    cooldown:
        Minimum simulated ms between consecutive splits of this RP, so a
        burst does not trigger cascading splits before the first handoff
        takes effect.
    spawn_on_split:
        When True (default) the new RP automatically gets its own balancer
        with the same parameters, so coverage follows the CD set.
    """

    def __init__(
        self,
        router: GCopssRouter,
        candidates: Sequence[str],
        queue_threshold: int = 40,
        policy: SplitPolicy = SplitPolicy.RANDOM,
        refiner: Optional[Callable[[Name], List[Name]]] = None,
        cooldown: float = 500.0,
        rng: Optional[random.Random] = None,
        spawn_on_split: bool = True,
        on_split: Optional[Callable[[str, Tuple[Name, ...]], None]] = None,
        rp_selector: Optional[
            Callable[["RpLoadBalancer", Sequence[Name]], Optional[str]]
        ] = None,
    ) -> None:
        if queue_threshold < 1:
            raise ValueError("queue_threshold must be >= 1")
        self.router = router
        self.candidates = list(candidates)
        self.queue_threshold = queue_threshold
        self.policy = policy
        self.refiner = refiner
        self.cooldown = cooldown
        self.rng = rng if rng is not None else random.Random(0)
        self.spawn_on_split = spawn_on_split
        self.on_split = on_split
        # Pluggable new-RP choice, e.g. the Vivaldi-coordinate selector of
        # :mod:`repro.core.coordinates`; None uses least-loaded.
        self.rp_selector = rp_selector
        self.splits_performed = 0
        self.spawned: List["RpLoadBalancer"] = []
        self._last_split_at = -float("inf")
        router.queue.on_enqueue.append(self._check)

    # ------------------------------------------------------------------
    # Trigger
    # ------------------------------------------------------------------
    def _check(self, queue: ServiceQueue) -> None:
        if queue.queue_length < self.queue_threshold:
            return
        now = self.router.sim.now
        if now - self._last_split_at < self.cooldown:
            return
        if not self.router.rp_role.prefixes:
            return
        self._last_split_at = now
        self.split()

    # ------------------------------------------------------------------
    # Split mechanics
    # ------------------------------------------------------------------
    def split(self) -> Optional[str]:
        """Shed roughly half this RP's load to a new RP.

        Returns the new RP's name, or None when no split is possible
        (no candidate, or the CD set cannot be refined further).
        """
        moved = self._choose_moved_prefixes()
        if not moved:
            return None
        if self.rp_selector is not None:
            new_rp = self.rp_selector(self, moved)
        else:
            new_rp = self._choose_new_rp()
        if new_rp is None:
            return None
        self.router.control.initiate_handoff(moved, new_rp)
        self.splits_performed += 1
        if self.on_split is not None:
            self.on_split(new_rp, tuple(moved))
        if self.spawn_on_split:
            node = self.router.network.nodes[new_rp]
            if not isinstance(node, GCopssRouter):
                raise TypeError(
                    f"split target {new_rp} must be a GCopssRouter, "
                    f"got {type(node).__name__}"
                )
            child = RpLoadBalancer(
                node,
                candidates=self.candidates,
                queue_threshold=self.queue_threshold,
                policy=self.policy,
                refiner=self.refiner,
                cooldown=self.cooldown,
                rng=random.Random(self.rng.random()),
                spawn_on_split=True,
                on_split=self.on_split,
                rp_selector=self.rp_selector,
            )
            self.spawned.append(child)
        return new_rp

    def _window_loads(self) -> Counter:
        return Counter(self.router.rp_role.recent_cds)

    def _choose_moved_prefixes(self) -> List[Name]:
        prefixes = sorted(self.router.rp_role.prefixes)
        loads = self._window_loads()
        if len(prefixes) < 2:
            prefixes = self._refine(prefixes, loads)
            if len(prefixes) < 2:
                return []
            # Refined children have no individual window history; spread the
            # parent's observed load uniformly for the partitioning step.
            total = sum(loads.values())
            loads = Counter({p: max(1, total // len(prefixes)) for p in prefixes})
        if self.policy is SplitPolicy.RANDOM:
            shuffled = list(prefixes)
            self.rng.shuffle(shuffled)
            moved = shuffled[: len(shuffled) // 2]
        else:
            moved = self._greedy_half(prefixes, loads)
        return sorted(moved)

    def _refine(self, prefixes: List[Name], loads: Counter) -> List[Name]:
        """Split a single coarse prefix into children so it can be shared."""
        if self.refiner is None or not prefixes:
            return prefixes
        target = max(prefixes, key=lambda p: loads.get(p, 0))
        children = self.refiner(target)
        if not children:
            return prefixes
        self.router.rp_role.prefixes.discard(target)
        self.router.rp_role.prefixes.update(children)
        # Re-key local routing state; other routers keep the coarse route
        # (longest-prefix match remains correct) until the handoff floods
        # finer entries for the moved children.
        if self.router.control.cd_routes.has_prefix(target):
            self.router.control.cd_routes.remove_prefix(target)
        for child in children:
            self.router.control.cd_routes.add(child, self.router.name)
        remaining = [p for p in prefixes if p != target]
        return remaining + children

    def _greedy_half(self, prefixes: List[Name], loads: Counter) -> List[Name]:
        """Greedy partition: heaviest-first into the lighter bin."""
        return greedy_half(prefixes, loads)

    def _choose_new_rp(self) -> Optional[str]:
        """Least-loaded candidate that is not already an RP."""
        best: Optional[str] = None
        best_key: Optional[Tuple[int, str]] = None
        for name in self.candidates:
            node = self.router.network.nodes.get(name)
            if not isinstance(node, GCopssRouter) or node is self.router:
                continue
            if node.rp_role.prefixes or node.relay_role.relinquished:
                continue
            key = (node.queue.backlog, name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best
