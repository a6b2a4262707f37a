"""The ``scale`` scenario: a region-sharded world big enough to parallelize.

The paper's testbed (62 players) fits one event loop; MMO-scale
populations (§V-B projects toward thousands of players) do not.  This
scenario builds a world whose structure *matches the partition rule*: R
regions, each a core router with access routers and player hosts hanging
off it, cores joined in a ring.  Each region's CD is anchored at its own
core (RP = ``core{r}``), plus one world-visible CD at ``core0`` — so
region-local traffic never crosses a shard boundary and the conservative
lookahead (the 2 ms core ring delay) stays wide.

Three execution modes over the *same* build + workload:

* ``workers=1, shards=1`` — the serial engine (ground truth);
* ``workers=1, shards=N`` — the in-process :class:`ShardedExecutor`
  (proves the synchronization algorithm);
* ``workers=N`` — one OS process per shard
  (:mod:`repro.parallel.procpool`, the actual speedup).

All three must produce the same delivery digest bit-for-bit
(``tests/test_scale_experiment.py`` and the ``scale`` CLI runner hold
that).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.names import ROOT, Name
from repro.parallel.digest import DeliveryLog
from repro.parallel.slicing import (
    ScaleWorld,
    build_scale_world,
    scale_plan_fast,
    scale_topology,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import GCopssHost

__all__ = [
    "ScaleSpec",
    "FederationSpec",
    "ScaleWorld",
    "build_scale_world",
    "scale_events",
    "run_scale",
    "federation_summary",
    "latency_stats",
]

#: Payload of every publish.
PAYLOAD_BYTES = 200
#: Publishes start here; subscriptions converge in the quiet prefix.
PUBLISH_START_MS = 1000.0
#: Quiet time after the last publish for deliveries to land.
DRAIN_MS = 1000.0


@dataclass(frozen=True)
class ScaleSpec:
    """One scale run, fully determined by its fields and the module constants."""

    players: int = 400
    regions: int = 4
    access_per_region: int = 4
    updates: int = 400
    seed: int = 11
    #: Fraction of publishes going to the world CD (seen by everyone);
    #: the rest stay region-local.
    world_fraction: float = 0.05
    publish_interval_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.regions < 1:
            raise ValueError("need at least one region")
        if self.players < self.regions:
            raise ValueError("need at least one player per region")
        if self.access_per_region < 1:
            raise ValueError("need at least one access router per region")
        if not 0.0 <= self.world_fraction <= 1.0:
            raise ValueError(f"world_fraction must be in [0,1], got {self.world_fraction}")

    @property
    def horizon_ms(self) -> float:
        return PUBLISH_START_MS + self.updates * self.publish_interval_ms + DRAIN_MS

    def region_cd(self, region: int) -> Name:
        return ROOT / "region" / str(region)

    @property
    def world_cd(self) -> Name:
        return ROOT / "world"

    # ------------------------------------------------------------------
    # Spec seams (subclass hooks; the base spec is the flat world)
    # ------------------------------------------------------------------
    def subscriptions_for(self, region: int, host_name: str) -> List[Name]:
        """The CDs one host subscribes to; every execution mode calls this."""
        return [self.region_cd(region), self.world_cd]

    def map_event_cd(self, index: int, player: str, region: int, cd: Name) -> Name:
        """Post-map one workload event's CD (pure; rng stream untouched).

        ``region`` is the publisher's own region.
        """
        return cd

    def post_install(self, network) -> None:
        """Hook run after the RP layout install, on full worlds *and* on
        per-shard slices — a federated subclass lays its region state on
        top here, so every process installs identically."""
        return None


@dataclass(frozen=True)
class FederationSpec(ScaleSpec):
    """Federated scale run: the region CDs shatter into leaf zones.

    Each region family ``/region/{r}`` splits into ``zones_per_region``
    leaf zones (``/region/{r}/z{z}``) sharded across the region's owner
    members (the access routers), with ``core{r}`` demoted to the
    region's aggregation point.  Hosts subscribe to their own zone plus
    the world CD; region publishes go to the publisher's zone, and
    ``remote_fraction`` of them are redirected to a foreign region's
    matching zone (cross-region traffic through the aggregate entry).

    The flat world, one RP per region, is the plain :class:`ScaleSpec`.
    """

    zones_per_region: int = 8
    #: Pile every zone onto the first owner (the cold-start shape the
    #: autoscaler is asked to repair) instead of round-robin spreading.
    skewed_placement: bool = False
    #: Fraction of region publishes redirected to a foreign region.
    remote_fraction: float = 0.0
    autoscale: bool = True
    autoscale_sample_ms: float = 200.0
    autoscale_min_interval_ms: float = 800.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zones_per_region < 1:
            raise ValueError("federated runs need zones_per_region >= 1")
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ValueError(
                f"remote_fraction must be in [0,1], got {self.remote_fraction}"
            )
        if self.autoscale_sample_ms <= 0:
            raise ValueError(
                f"autoscale_sample_ms must be positive, got {self.autoscale_sample_ms}"
            )
        if self.autoscale_min_interval_ms < 0:
            raise ValueError(
                "autoscale_min_interval_ms must be >= 0, "
                f"got {self.autoscale_min_interval_ms}"
            )

    def zone_cd(self, region: int, zone: int) -> Name:
        return self.region_cd(region) / f"z{zone}"

    def zone_of(self, player: str) -> int:
        return int(player[1:]) % self.zones_per_region

    def subscriptions_for(self, region: int, host_name: str) -> List[Name]:
        return [self.zone_cd(region, self.zone_of(host_name)), self.world_cd]

    def map_event_cd(self, index: int, player: str, region: int, cd: Name) -> Name:
        """Retarget a region publish to its zone (maybe a foreign one)."""
        if cd == self.world_cd:
            return cd
        # Optionally redirect to a foreign region: a pure integer hash, so
        # the frozen rng stream stays untouched.
        if self.regions > 1 and self._remote_draw(index):
            region = (region + 1 + index % (self.regions - 1)) % self.regions
        return self.zone_cd(region, self.zone_of(player))

    def _remote_draw(self, index: int) -> bool:
        if self.remote_fraction <= 0.0:
            return False
        h = (index * 2654435761 + self.seed * 97) % (2**32)
        return h / 2**32 < self.remote_fraction

    def build_region_map(self):
        """One region per topology region: core aggregates, accs own."""
        from repro.core.federation import MAX_REGION_SIZE, RegionMap, RpRegion

        owners_per = min(self.access_per_region, MAX_REGION_SIZE - 1)
        return RegionMap(
            RpRegion(
                name=f"R{r}",
                family=self.region_cd(r),
                aggregator=f"core{r}",
                owners=tuple(f"acc{r}_{a}" for a in range(owners_per)),
            )
            for r in range(self.regions)
        )

    def build_placement(self, region_map) -> Dict[Name, str]:
        """Initial zone->owner placement, spread or deliberately skewed."""
        from repro.core.federation import spread_placement

        placement: Dict[Name, str] = {}
        for region in region_map.regions():
            r = int(region.name[1:])
            zones = [self.zone_cd(r, z) for z in range(self.zones_per_region)]
            placement.update(
                spread_placement(region, zones, skewed=self.skewed_placement)
            )
        return placement

    def post_install(self, network) -> None:
        """Layer the federation over the flat install (world or slice).

        Regions whose aggregation point is absent from ``network`` are
        skipped inside :func:`~repro.core.federation.install_federation`,
        so a worker's slice installs exactly its own regions.  Autoscaler
        roles are created and attached here but **not** started — the
        executors rebind node clocks after the build, so arming happens
        at the call sites through the external-event path.
        """
        from repro.core.engine import GCopssRouter
        from repro.core.federation import (
            AutoscalerConfig,
            AutoscalerRole,
            install_federation,
        )

        region_map = self.build_region_map()
        placement = self.build_placement(region_map)
        state = install_federation(network, region_map, placement)
        if self.autoscale:
            config = AutoscalerConfig(
                sample_interval_ms=self.autoscale_sample_ms,
                min_split_interval_ms=self.autoscale_min_interval_ms,
            )
            for region in region_map.regions():
                node = network.nodes.get(region.aggregator)
                if isinstance(node, GCopssRouter):
                    role = AutoscalerRole(region, config)
                    role.attach(node)
                    state.autoscalers.append(role)
        network.federation_state = state


def scale_events(spec: ScaleSpec) -> List[Tuple[float, str, str]]:
    """The seeded workload: ``(time_ms, player, cd_text)`` per publish.

    A pure function of the spec (string-seeded ``random.Random`` is
    process-stable), shared verbatim by every execution mode; each worker
    filters it down to its own shard's publishers.
    """
    topology = scale_topology(spec)
    rng = random.Random(f"scale:{spec.seed}")
    events: List[Tuple[float, str, str]] = []
    for i in range(spec.updates):
        player = topology.hosts[rng.randrange(spec.players)]
        region = topology.host_region[player]
        if rng.random() < spec.world_fraction:
            cd = spec.world_cd
        else:
            cd = spec.region_cd(region)
        time = (
            PUBLISH_START_MS
            + i * spec.publish_interval_ms
            + rng.random() * spec.publish_interval_ms
        )
        # The rng stream above is frozen (shared by every spec variant);
        # subclasses may only *re-map* the drawn CD, never re-draw.
        events.append((time, player, str(spec.map_event_cd(i, player, region, cd))))
    return events


def _publish(host: "GCopssHost", cd: str, size: int, sequence: int) -> None:
    host.publish(cd, size, sequence=sequence)


def start_workload(spec: ScaleSpec, world: ScaleWorld, schedule) -> DeliveryLog:
    """Subscribe ``world``'s hosts, then queue its autoscaler ticks and publishes.

    Works on the full world and on a worker's slice alike (a slice holds
    only its shard's hosts and regions).  Events enter through
    ``schedule(node, time, callback, *args)`` — the executors rebind every
    ``node.sim`` after the build, so nothing is armed at build time.
    Returns the log of what the hosts receive.
    """
    log = DeliveryLog()

    def on_update(host: "GCopssHost", packet) -> None:
        log.record(packet.sequence, host.name, host.sim.now - packet.created_at)

    for name in sorted(world.hosts):
        host = world.hosts[name]
        host.on_update.append(on_update)
        host.subscribe(spec.subscriptions_for(world.host_region[name], name))
    federation = getattr(world.network, "federation_state", None)
    if federation is not None:
        for role in federation.autoscalers:
            schedule(role.node.name, 0.0, role.start, spec.horizon_ms)
    for i, (time, player, cd) in enumerate(scale_events(spec)):
        host = world.hosts.get(player)
        if host is not None:
            schedule(player, time, _publish, host, cd, PAYLOAD_BYTES, i)
    return log


def execute_scale_local(spec: ScaleSpec, make_executor) -> dict:
    """Build, subscribe, publish, drain — under any local executor."""
    world = build_scale_world(spec)
    executor = make_executor(world.network)
    log = start_workload(spec, world, executor.schedule_external)
    executor.run(until=spec.horizon_ms)
    part = result_part(log, executor.events_processed, world.network)
    return scale_result([part], executor.telemetry())


def result_part(log: DeliveryLog, events_processed: int, network) -> dict:
    """What one world (or one worker's slice of it) contributes to a result."""
    federation = getattr(network, "federation_state", None)
    return {
        "log": log,
        "events_processed": events_processed,
        "network_bytes": network.total_bytes,
        "network_packets": network.total_packets,
        "federation": None if federation is None else federation_summary(federation),
    }


def scale_result(parts: List[dict], executor: dict) -> dict:
    """One run's result from its :func:`result_part` parts.

    A local run passes one part, a multiprocess run one per worker; the
    logs merge into the first part's, the counters add up, and
    ``executor`` is the executor's own block.
    """
    log = parts[0]["log"]
    for part in parts[1:]:
        log.merge(part["log"])
    result = {
        "deliveries": len(log),
        "digest": log.digest(),
        "latency": latency_stats(log),
        "events_processed": sum(part["events_processed"] for part in parts),
        "network_bytes": sum(part["network_bytes"] for part in parts),
        "network_packets": sum(part["network_packets"] for part in parts),
        "executor": executor,
    }
    feds = [part["federation"] for part in parts if part["federation"] is not None]
    if feds:
        result["federation"] = {key: sum(f[key] for f in feds) for key in feds[0]}
    return result


def latency_stats(log: DeliveryLog) -> dict:
    """Delivery-latency percentiles for SLO gates (digest-independent)."""
    lats = log.latencies()
    if not lats:
        return {"count": 0, "mean_ms": None, "p50_ms": None, "p95_ms": None, "max_ms": None}
    n = len(lats)
    return {
        "count": n,
        "mean_ms": sum(lats) / n,
        "p50_ms": lats[n // 2],
        "p95_ms": lats[min(n - 1, int(n * 0.95))],
        "max_ms": lats[-1],
    }


def federation_summary(state) -> dict:
    """Roll one world's federation state up into a report block."""
    roles = state.autoscalers
    return {
        "actions": sum(len(r.actions) for r in roles),
        "splits": sum(r.splits for r in roles),
        "merges": sum(r.merges for r in roles),
        "migrates": sum(r.migrates for r in roles),
        "skipped_unsafe": sum(r.skipped_unsafe for r in roles),
        "scoped_floods": state.scoped_floods,
    }


def run_scale(spec: ScaleSpec, shards: int = 1, workers: int = 1) -> dict:
    """Run the scenario under the requested execution mode.

    ``workers > 1`` runs one process per shard, so ``shards`` must be
    left at 1 or equal ``workers``; ``workers == 1`` runs in-process,
    serial when ``shards == 1`` and window-synchronized otherwise.
    """
    from repro.sim.engine import SerialExecutor

    if workers > 1:
        if shards not in (1, workers):
            raise ValueError(
                f"workers={workers} runs one process per shard; "
                f"shards must be 1 or {workers}, got {shards}"
            )
        from repro.parallel.procpool import run_scale_proc

        result = run_scale_proc(spec, workers)
        result["mode"] = f"proc:{workers}"
        return result
    if shards > 1:
        from repro.parallel.executor import ShardedExecutor

        plan = scale_plan_fast(spec, shards)
        result = execute_scale_local(
            spec, lambda network: ShardedExecutor(network, plan)
        )
        result["mode"] = f"inproc:{shards}"
        return result
    result = execute_scale_local(spec, SerialExecutor)
    result["mode"] = "serial"
    return result
