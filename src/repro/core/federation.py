"""Hierarchical RP federation: region map, aggregation points, autoscaler.

The paper's flat RP split (one overloaded node hands half its CDs to a
neighbour, :mod:`repro.core.balancer`) caps out once a single region's
traffic exceeds any one router.  Following the Rendezvous-Regions idea
(Seada & Helmy, PAPERS.md), this module maps CD prefix *families* to RP
**regions** — small sets of routers (2–8) that share one family — and
keeps the rest of the network blissfully unaware of the intra-region
layout:

* **Region map** (:class:`RegionMap` / :class:`RpRegion`): each region
  owns one CD prefix family (say ``/region/3``) and names an
  *aggregation point* plus 1–7 *owner* routers.  The family is sharded
  across the owners at leaf-zone granularity (every subscription and
  publication CD is a single zone prefix, so every handoff moves whole
  trees and the flat migration machinery applies unchanged).
* **Aggregation points**: routers outside a region keep exactly one
  aggregate FIB entry (``family -> aggregation point``) — the flat
  install's entry, untouched.  Cross-region publications tunnel to the
  aggregation point, whose relay map (the ordinary post-handoff
  :class:`~repro.core.roles.RelayRole` mapping) forwards them to the
  owning member.  Intra-region ownership floods are absorbed at the
  aggregation point by the control plane's ``fib_flood_filter`` seam, so
  member-level churn never leaks routes, floods or migration handshakes
  into the wide area.
* **Autoscaler** (:class:`AutoscalerRole`): a :class:`repro.sim.roles.Role`
  attached to the aggregation point that samples the same gauge surfaces
  the metrics registry samples — member queue snapshots
  (:meth:`repro.sim.queues.ServiceQueue.snapshot`) and per-CD load
  meters (:meth:`repro.core.roles.RpRole.window_loads`) — on a fixed
  sim-time cadence and converts them into **split / merge / placement
  migrations** through the uid-idempotent CD-handoff protocol.  It
  replaces the balancer's static ``queue_threshold`` as the default
  federated policy; the flat path stays selectable.

Determinism: every decision reads only region-local state (the region is
shard-atomic under region-aware plans), ticks are ordinary node-anchored
sim events, candidate orders are sorted, and the shed policy is the same
:func:`repro.core.balancer.greedy_half` the flat balancer uses — so the
serial, sharded and multiprocess executors take byte-identical actions.

Relay-safety rule: a prefix must never be handed to a router whose relay
map still points that prefix at a *different* router (a stale entry from
an earlier ownership).  The new-RP side would refuse the adoption (that
guard is what fixes the PR-8 replay race) and the prefix would be owned
by nobody.  :meth:`AutoscalerRole._pick_target` enforces this; harnesses
driving handoffs by hand must too (see ``relay_safe``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.balancer import greedy_half
from repro.core.engine import GCopssRouter
from repro.names import Name
from repro.sim.roles import Role

__all__ = [
    "RpRegion",
    "RegionMap",
    "FederationState",
    "AutoscalerConfig",
    "AutoscalerRole",
    "install_federation",
    "relay_safe",
    "spread_placement",
]

#: Region size bounds (aggregation point + owners).
MIN_REGION_SIZE = 2
MAX_REGION_SIZE = 8


@dataclass(frozen=True)
class RpRegion:
    """One RP region: a CD prefix family served by a small router set.

    ``aggregator`` is the region's face to the world: the router the
    flat install already announces for the whole family.  It owns no
    zones itself — it relays inbound cross-region traffic to the owner
    members and absorbs intra-region floods.  ``owners`` are the members
    the family's leaf zones are sharded across.
    """

    name: str
    family: Name
    aggregator: str
    owners: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.owners:
            raise ValueError(f"region {self.name} needs at least one owner")
        members = self.members
        if len(set(members)) != len(members):
            raise ValueError(f"region {self.name} has duplicate members: {members}")
        if not MIN_REGION_SIZE <= len(members) <= MAX_REGION_SIZE:
            raise ValueError(
                f"region {self.name} has {len(members)} members;"
                f" must be {MIN_REGION_SIZE}..{MAX_REGION_SIZE}"
            )

    @property
    def members(self) -> Tuple[str, ...]:
        return (self.aggregator,) + self.owners

    def covers(self, prefix: Name) -> bool:
        """True when ``prefix`` lies under (or equals) this region's family."""
        return self.family == prefix or self.family.is_strict_prefix_of(prefix)


class RegionMap:
    """The federation's static shape: families -> regions -> router sets.

    Mutually prefix-free families and disjoint member sets are enforced
    on :meth:`add`; the dynamic zone->owner placement lives in
    :class:`FederationState` (it changes under the autoscaler), not here.
    """

    def __init__(self, regions: Iterable[RpRegion] = ()) -> None:
        self._regions: Dict[str, RpRegion] = {}
        self._router_region: Dict[str, str] = {}
        for region in regions:
            self.add(region)

    def add(self, region: RpRegion) -> RpRegion:
        """Register ``region``; reject nesting families or shared routers."""
        if region.name in self._regions:
            raise ValueError(f"duplicate region name {region.name}")
        for other in self._regions.values():
            if other.family.is_prefix_of(region.family) or region.family.is_prefix_of(
                other.family
            ):
                raise ValueError(
                    f"family {region.family} of region {region.name} nests with"
                    f" family {other.family} of region {other.name}"
                )
        for member in region.members:
            owner = self._router_region.get(member)
            if owner is not None:
                raise ValueError(
                    f"router {member} already belongs to region {owner};"
                    " regions must be disjoint"
                )
        self._regions[region.name] = region
        for member in region.members:
            self._router_region[member] = region.name
        return region

    def regions(self) -> List[RpRegion]:
        return [self._regions[name] for name in sorted(self._regions)]

    def get(self, name: str) -> RpRegion:
        return self._regions[name]

    def __len__(self) -> int:
        return len(self._regions)

    def __repr__(self) -> str:
        return f"RegionMap({len(self._regions)} regions)"


def spread_placement(
    region: RpRegion, zones: Sequence[Name], skewed: bool = False
) -> Dict[Name, str]:
    """Initial zone->owner placement for one region.

    ``spread`` round-robins zones over the owners (the static baseline a
    disabled autoscaler keeps forever); ``skewed`` piles everything onto
    the first owner — the cold-start shape the autoscaler is asked to
    repair in the saturation experiment.
    """
    placement: Dict[Name, str] = {}
    for index, zone in enumerate(sorted(zones)):
        if not region.family.is_strict_prefix_of(zone):
            raise ValueError(f"zone {zone} is not under family {region.family}")
        placement[zone] = region.owners[0 if skewed else index % len(region.owners)]
    return placement


def relay_safe(target: GCopssRouter, prefixes: Iterable[Name], source: str) -> bool:
    """True when handing ``prefixes`` from ``source`` to ``target`` is safe.

    Unsafe targets hold a stale relay entry pointing one of the prefixes
    at a router other than ``source``: the handoff's adoption guard (the
    PR-8 replay fix) would treat the genuine handoff as a replay and
    refuse it, leaving the prefix owned by nobody.
    """
    relinquished = target.relay_role.relinquished
    if not relinquished:
        return True
    return all(relinquished.get(p) in (None, source) for p in prefixes)


@dataclass
class FederationState:
    """Everything :func:`install_federation` wired into a network."""

    region_map: RegionMap
    #: zone prefix -> owning member, as installed (the autoscaler moves
    #: ownership at runtime; consult router state for the live picture).
    placement: Dict[Name, str]
    #: intra-region floods absorbed at aggregation points.
    scoped_floods: int = 0
    autoscalers: List["AutoscalerRole"] = field(default_factory=list)

    def zones_of(self, region: RpRegion) -> List[Name]:
        return sorted(z for z in self.placement if region.covers(z))


def install_federation(
    network,
    region_map: RegionMap,
    placement: Dict[Name, str],
) -> FederationState:
    """Wire a federated RP layout into an (already flat-installed) network.

    Expects the converged flat state — every router holds the aggregate
    ``family -> aggregator`` CD route and an RP route toward each
    aggregator — and layers the region-internal state on top:

    * fine ``zone -> owner`` CD routes on every *member* router (longest-
      prefix match prefers them over the aggregate inside the region;
      outside routers never learn them);
    * ``rp_route`` entries between members, read from each member's own
      unicast routes (handoffs and joins travel inside the region);
    * the owners' served-prefix sets, with the family withdrawn from the
      aggregation point (it relays, it does not decapsulate);
    * relay entries at the aggregation point for every zone, refreshed by
      an ``on_fib_add`` hook whenever an intra-region handoff moves one;
    * the flood-scope filter that keeps member floods inside the region.

    Regions whose aggregation point is not a local :class:`GCopssRouter`
    are skipped entirely — that is how sliced multiprocess builds install
    only their own regions (regions are shard-atomic, so a foreign
    region's routers are stubs or absent).
    """
    state = FederationState(region_map=region_map, placement=dict(placement))
    for region in region_map.regions():
        aggregator = network.nodes.get(region.aggregator)
        if not isinstance(aggregator, GCopssRouter):
            continue
        zones = state.zones_of(region)
        owners = {z: state.placement[z] for z in zones}
        for zone, owner in owners.items():
            if owner not in region.owners:
                raise ValueError(
                    f"zone {zone} placed on {owner}, not an owner of {region.name}"
                )
        member_set = set(region.members)
        present: List[GCopssRouter] = []
        for member_name in region.members:
            node = network.nodes.get(member_name)
            if isinstance(node, GCopssRouter):
                present.append(node)
        for router in present:
            for zone, owner in owners.items():
                if router.control.cd_routes.has_prefix(zone):
                    router.control.cd_routes.remove_prefix(zone)
                router.control.cd_routes.add(zone, owner)
            for other in region.members:
                if other != router.name and other not in router.control.rp_route:
                    router.control.rp_route[other] = router.routes[other]
            owned = [z for z, owner in owners.items() if owner == router.name]
            router.rp_role.prefixes.update(owned)
        # The aggregation point relays; it never serves the family itself.
        aggregator.rp_role.prefixes.discard(region.family)
        for zone, owner in owners.items():
            if owner != aggregator.name:
                aggregator.relay_role.relinquished[zone] = owner
        aggregator.control.fib_flood_filter = _region_scope_filter(
            state, region, member_set
        )
        aggregator.control.on_fib_add.append(
            _relay_refresh_hook(aggregator, region, member_set)
        )
    return state


def _region_scope_filter(state: FederationState, region: RpRegion, members: Set[str]):
    """Absorb intra-region ownership floods at the aggregation point.

    A FIB flood whose origin is a region member and whose prefixes all
    lie under the region family is member-level churn: re-flooding it
    past the aggregation point would leak fine routes (and trigger
    migration handshakes) network-wide, defeating aggregation.  Anything
    else — foreign floods transiting the region, or a member announcing
    non-family prefixes like the world CD — passes untouched.
    """

    def allow(packet, out_face) -> bool:
        if packet.origin not in members:
            return True
        if not all(region.covers(prefix) for prefix in packet.prefixes):
            return True
        if out_face.peer.name in members:
            return True
        state.scoped_floods += 1
        return False

    return allow


def _relay_refresh_hook(aggregator: GCopssRouter, region: RpRegion, members: Set[str]):
    """Keep the aggregation point's relay map pointed at current owners.

    When an intra-region handoff completes, the new owner's FIB flood
    reaches the aggregation point (it is absorbed there, but absorbed
    floods are still *processed*); this hook retargets the relay entry so
    cross-region traffic takes one relay hop instead of walking the
    historical handoff chain.
    """

    def refresh(packet, face) -> None:
        if packet.origin == aggregator.name or packet.origin not in members:
            return
        for prefix in packet.prefixes:
            if region.covers(prefix) and prefix not in aggregator.rp_role.prefixes:
                aggregator.relay_role.relinquished[prefix] = packet.origin

    return refresh


#: Hot / idle member queue-depth thresholds of the autoscaler.
SPLIT_BACKLOG = 12
MERGE_BACKLOG = 0
#: A hot member moves one zone alone, instead of half-splitting, when
#: that zone carries at least this share of the member's window load.
DOMINANT_FRACTION = 0.6
#: Safety valve: the autoscaler stops deciding after this many actions.
MAX_ACTIONS = 200


@dataclass
class AutoscalerConfig:
    """Timing of one region's telemetry-driven control loop.

    ``sample_interval_ms`` is the telemetry cadence;
    ``min_split_interval_ms`` is the per-member action cooldown (the same
    contract as the flat balancer's ``cooldown`` — it is what suppresses
    split cascades).
    """

    sample_interval_ms: float = 200.0
    min_split_interval_ms: float = 800.0


@dataclass(frozen=True)
class AutoscalerAction:
    """One decision the autoscaler took (for reports and tests)."""

    t: float
    kind: str  # "split" | "merge" | "migrate"
    source: str
    target: str
    prefixes: Tuple[Name, ...]


class AutoscalerRole(Role):
    """The region control loop, attached to the aggregation point.

    Each tick samples every owner's queue snapshot and per-CD load meter
    (region-local reads only: regions are shard-atomic) and takes at most
    one action:

    * **migrate** — the hottest member's load is dominated by one zone:
      move just that zone to the coolest member (placement migration);
    * **split** — the hottest member is over :data:`SPLIT_BACKLOG` with >= 2
      zones: shed :func:`~repro.core.balancer.greedy_half` of them to the
      coolest member;
    * **merge** — no member is hot and >= 2 zone-holding members sat idle
      through the whole interval: fold the smallest idle member's zones
      into the largest (scale-in).

    A member whose single zone is hotter than its capacity is the CD
    partitioning limit — nothing is shed (zones are atomic), matching
    the flat balancer's unsplittable case.
    """

    ROLE_NAME = "autoscaler"

    def __init__(
        self, region: RpRegion, config: Optional[AutoscalerConfig] = None
    ) -> None:
        super().__init__()
        self.region = region
        self.config = config if config is not None else AutoscalerConfig()
        self.actions: List[AutoscalerAction] = []
        self.splits = 0
        self.merges = 0
        self.migrates = 0
        self.skipped_unsafe = 0
        self._last_action: Dict[str, float] = {}
        self._last_decaps: Dict[str, int] = {}
        self._until: Optional[float] = None

    def attach(self, node) -> None:
        """Attach to the region's aggregation point (and nowhere else)."""
        if node.name != self.region.aggregator:
            raise ValueError(
                f"autoscaler for {self.region.name} must attach to its"
                f" aggregation point {self.region.aggregator}, not {node.name}"
            )
        super().attach(node)

    def start(self, until_ms: float) -> None:
        """Begin ticking; the loop re-arms itself until ``until_ms``."""
        if self.node is None:
            raise RuntimeError("attach the role to the aggregation point first")
        self._until = until_ms
        self.node.sim.schedule(self.config.sample_interval_ms, self._tick)

    def telemetry(self) -> dict:
        """Action counters, sampled as gauges by the metrics registry."""
        return {
            "actions": len(self.actions),
            "splits": self.splits,
            "merges": self.merges,
            "migrates": self.migrates,
        }

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        node = self.node
        if node is None or self._until is None:
            return
        now = node.sim.now
        if now > self._until:
            return
        if len(self.actions) < MAX_ACTIONS:
            self._decide(now)
        node.sim.schedule(self.config.sample_interval_ms, self._tick)

    def _owners(self) -> List[GCopssRouter]:
        network = self.node.network
        routers: List[GCopssRouter] = []
        for name in self.region.owners:
            router = network.nodes.get(name)
            if isinstance(router, GCopssRouter):
                routers.append(router)
        return routers

    def _decide(self, now: float) -> None:
        cfg = self.config
        owners = self._owners()
        if len(owners) < 2:
            return
        samples = []
        decap_delta: Dict[str, int] = {}
        for router in owners:
            # The same gauge surfaces MetricsRegistry.register_node
            # samples: the service-queue snapshot and the RP role's
            # per-CD decap window.
            snapshot = router.queue.snapshot()
            loads = router.rp_role.window_loads()
            decaps = router.stats.decapsulations
            decap_delta[router.name] = decaps - self._last_decaps.get(router.name, 0)
            self._last_decaps[router.name] = decaps
            samples.append((router, int(snapshot["backlog"]), loads))
        hot = [
            (router, backlog, loads)
            for router, backlog, loads in samples
            if backlog >= SPLIT_BACKLOG
            and len(router.rp_role.prefixes) >= 2
            and now - self._last_action.get(router.name, -float("inf"))
            >= cfg.min_split_interval_ms
        ]
        if hot:
            router, backlog, loads = min(hot, key=lambda s: (-s[1], s[0].name))
            self._shed(now, router, loads, samples)
            return
        if any(backlog >= SPLIT_BACKLOG for _, backlog, _ in samples):
            return  # hot but unsplittable or cooling down: nothing to do
        self._maybe_merge(now, samples, decap_delta)

    def _shed(self, now, router: GCopssRouter, loads: Counter, samples) -> None:
        prefixes = sorted(router.rp_role.prefixes)
        total = sum(loads.get(p, 0) for p in prefixes)
        top = max(prefixes, key=lambda p: (loads.get(p, 0), p))
        if total > 0 and loads.get(top, 0) >= DOMINANT_FRACTION * total:
            moved, kind = [top], "migrate"
        else:
            moved, kind = sorted(greedy_half(prefixes, loads)), "split"
        if len(moved) >= len(prefixes):
            return  # never shed everything from a hot member
        target = self._pick_target(router, moved, samples)
        if target is None:
            return
        router.control.initiate_handoff(moved, target)
        self._record(now, kind, router.name, target, tuple(moved))

    def _maybe_merge(self, now, samples, decap_delta: Dict[str, int]) -> None:
        idle = [
            (router, backlog)
            for router, backlog, _loads in samples
            if backlog <= MERGE_BACKLOG
            and decap_delta.get(router.name, 0) == 0
            and router.rp_role.prefixes
        ]
        if len(idle) < 2:
            return
        # Fold the smallest idle member into the largest: repeated merges
        # drain members one by one without ping-ponging zones.
        idle.sort(key=lambda s: (len(s[0].rp_role.prefixes), s[0].name))
        source = idle[0][0]
        dest = idle[-1][0]
        if source is dest or len(dest.rp_role.prefixes) < len(source.rp_role.prefixes):
            return
        cold = now - self.config.min_split_interval_ms
        if self._last_action.get(source.name, -float("inf")) > cold:
            return
        if self._last_action.get(dest.name, -float("inf")) > cold:
            return
        moved = sorted(source.rp_role.prefixes)
        if not relay_safe(dest, moved, source.name):
            self.skipped_unsafe += 1
            return
        source.control.initiate_handoff(moved, dest.name)
        self._record(now, "merge", source.name, dest.name, tuple(moved))

    def _pick_target(
        self, source: GCopssRouter, moved: Sequence[Name], samples
    ) -> Optional[str]:
        candidates = sorted(
            (
                (backlog, sum(loads.values()), router.name, router)
                for router, backlog, loads in samples
                if router is not source
            ),
        )
        for _backlog, _load, name, router in candidates:
            if relay_safe(router, moved, source.name):
                return name
            self.skipped_unsafe += 1
        return None

    def _record(
        self, now: float, kind: str, source: str, target: str, moved: Tuple[Name, ...]
    ) -> None:
        self.actions.append(
            AutoscalerAction(t=now, kind=kind, source=source, target=target, prefixes=moved)
        )
        self._last_action[source] = now
        self._last_action[target] = now
        if kind == "split":
            self.splits += 1
        elif kind == "merge":
            self.merges += 1
        else:
            self.migrates += 1
