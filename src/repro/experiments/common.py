"""Shared scenario machinery: build a stack, replay a trace, measure.

Three DES scenario runners cover the paper's architectures:

* :func:`run_gcopss_backbone` — G-COPSS over the synthetic Rocketfuel
  backbone (Table I, Fig. 5, Fig. 6 G-COPSS curves), with optional
  automatic RP balancing;
* :func:`run_ip_server_backbone` — the IP client/server baseline on the
  same backbone (Table I, Fig. 6 server curves);
* :func:`run_gcopss_testbed` / :func:`run_ip_server_testbed` /
  :func:`run_ndn_testbed` — the three §V-A microbenchmark stacks on the
  Fig. 3b topology.

"Update latency" is measured per *delivery*: from the publisher stamping
the update to each subscribed player receiving it, exactly the paper's
metric.  Aggregate network load is the byte count carried over every
link.  Subscription setup traffic is excluded from load (counters reset
after the subscription phase converges), matching the paper's focus on
update dissemination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.baselines.ip_server import GameServerNode, IpClientNode, IpRouter
from repro.baselines.ndn_game import NdnGamePlayer
from repro.core.balancer import RpLoadBalancer, SplitPolicy, default_refiner
from repro.core.engine import GCopssHost, GCopssNetworkBuilder, GCopssRouter
from repro.core.hierarchy import AIRSPACE, MapHierarchy
from repro.core.packets import MulticastPacket
from repro.core.rp import RpTable
from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.testbed import build_testbed
from repro.game.map import GameMap
from repro.names import Name, ROOT
from repro.ndn.engine import NdnRouter, install_routes
from repro.sim.network import Network
from repro.sim.stats import LatencyRecorder, SeriesRecorder
from repro.topology.backbone import BackboneSpec, BuiltBackbone, build_backbone
from repro.topology.benchmark import build_benchmark_topology
from repro.trace.model import UpdateEvent

__all__ = [
    "ScenarioResult",
    "default_rp_assignment",
    "pick_rp_sites",
    "subscribers_by_leaf_cd",
    "run_gcopss_backbone",
    "run_ip_server_backbone",
    "run_gcopss_testbed",
    "run_ip_server_testbed",
    "run_ndn_testbed",
]


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    label: str
    latency: LatencyRecorder
    series: SeriesRecorder
    network_bytes: int
    updates_published: int
    deliveries: int
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def network_gb(self) -> float:
        return self.network_bytes / 1e9

    def summary(self) -> Dict[str, object]:
        """One-row dict of the headline metrics (for printing)."""
        row: Dict[str, object] = {
            "label": self.label,
            "updates": self.updates_published,
            "deliveries": self.deliveries,
            "network_gb": round(self.network_gb, 4),
        }
        if self.latency.count:
            row.update(
                mean_ms=round(self.latency.mean, 3),
                p95_ms=round(self.latency.percentile(95), 3),
                max_ms=round(self.latency.maximum, 3),
            )
        return row


# ----------------------------------------------------------------------
# Shared layout helpers
# ----------------------------------------------------------------------

def default_rp_assignment(hierarchy: MapHierarchy, rp_names: Sequence[str]) -> RpTable:
    """The prefix-free CD partition used for k RPs (or k servers).

    k = 1 serves the whole map.  For k >= 2 the top layer's prefix-free
    pieces — each region subtree in map order, then the world airspace
    leaf — are dealt out in balanced contiguous chunks.  This is
    deliberately *load-blind* ("it is difficult to ... perform
    predetermined load balancing during the initial distribution of
    CDs", §IV-B): the satellite layer is the hottest CD (everyone sees
    it), so the chunk holding it runs hot — exactly why the paper's 2-RP
    configuration congests under the peak while 3 RPs stay healthy.
    """
    if not rp_names:
        raise ValueError("need at least one RP")
    table = RpTable()
    if len(rp_names) == 1:
        table.assign(ROOT, rp_names[0])
        return table
    pieces: List[Name] = list(hierarchy.areas(1))
    pieces.append(ROOT / AIRSPACE)
    k = min(len(rp_names), len(pieces))
    base, extra = divmod(len(pieces), k)
    index = 0
    for chunk_index in range(k):
        size = base + (1 if chunk_index < extra else 0)
        for piece in pieces[index : index + size]:
            table.assign(piece, rp_names[chunk_index])
        index += size
    return table


def pick_rp_sites(built: BuiltBackbone, count: int) -> List[str]:
    """Deterministic, spread-out core routers to host RPs / servers."""
    cores = sorted(node.name for node in built.core_routers)
    if count > len(cores):
        raise ValueError(f"asked for {count} sites, only {len(cores)} cores")
    step = len(cores) / count
    return [cores[int(i * step)] for i in range(count)]


def subscribers_by_leaf_cd(
    game_map: GameMap, placement: Dict[str, Name]
) -> Dict[Name, List[str]]:
    """players that must receive updates published under each leaf CD."""
    visible_cache: Dict[Name, frozenset] = {}
    result: Dict[Name, List[str]] = {cd: [] for cd in game_map.hierarchy.leaf_cds()}
    for player in sorted(placement):
        area = placement[player]
        visible = visible_cache.get(area)
        if visible is None:
            visible = game_map.hierarchy.visible_leaf_cds(area)
            visible_cache[area] = visible
        for cd in visible:
            result[cd].append(player)
    return result


def _wire_latency_recorders(
    hosts: Dict[str, GCopssHost],
    latency: LatencyRecorder,
    series: SeriesRecorder,
) -> None:
    def on_update(host: GCopssHost, packet) -> None:
        if packet.publisher == host.name:
            return
        sample = host.sim.now - packet.created_at
        latency.record(sample)
        if packet.sequence >= 0:
            series.record(packet.sequence, sample)

    for host in hosts.values():
        host.on_update.append(on_update)


def _schedule_publishes(
    network: Network,
    events: Sequence[UpdateEvent],
    publish: Callable[[int, UpdateEvent], None],
) -> None:
    # Event times are trace-relative; the clock has already advanced
    # through the subscription-convergence phase, so offset by "now".
    offset = network.sim.now
    for i, event in enumerate(events):
        network.sim.schedule_at(offset + event.time_ms, publish, i, event)


def _bare_publisher(
    hosts: Dict[str, GCopssHost]
) -> Callable[[int, UpdateEvent], None]:
    """``publish(i, event)``: a bare Multicast from the event's player."""

    def publish(i: int, event: UpdateEvent) -> None:
        host = hosts[event.player]
        packet = MulticastPacket(
            cd=event.cd,
            payload_size=event.size,
            publisher=event.player,
            sequence=i,
            object_id=event.object_id,
            created_at=host.sim.now,
        )
        host.published += 1
        host.send(host.access_face, packet)

    return publish


# ----------------------------------------------------------------------
# G-COPSS over the backbone (Table I / Fig. 5 / Fig. 6)
# ----------------------------------------------------------------------

def run_gcopss_backbone(
    events: Sequence[UpdateEvent],
    game_map: GameMap,
    placement: Dict[str, Name],
    num_rps: int = 3,
    calibration: Calibration = DEFAULT_CALIBRATION,
    auto_balance: bool = False,
    backbone_spec: Optional[BackboneSpec] = None,
    label: Optional[str] = None,
    series_bucket: int = 1000,
    split_policy: SplitPolicy = SplitPolicy.RANDOM,
    use_exact_st: bool = False,
    use_st_cache: bool = True,
    subscriptions_fn: Optional[Callable[[Name], Iterable[Name]]] = None,
    use_coordinate_selection: bool = False,
) -> ScenarioResult:
    """Replay a trace through G-COPSS on the synthetic backbone.

    ``auto_balance`` starts from ``num_rps`` RPs and lets the queue-
    threshold balancer split hot RPs dynamically (Fig. 5c / Table I
    "Auto" row).  ``use_exact_st`` switches the data plane to exact-set
    matching (Bloom ablation arm).  ``use_st_cache=False`` bypasses the
    memoized ST fast path (uncached reference scan) — results must be
    identical either way; the perf harness and determinism tests rely on
    this switch.
    """
    hierarchy = game_map.hierarchy
    built = build_backbone(
        lambda net, name: GCopssRouter(
            net,
            name,
            service_time=calibration.copss_forward_ms,
            rp_service_time=calibration.rp_service_ms,
        ),
        spec=backbone_spec,
    )
    network = built.network
    host_nodes = built.attach_hosts(
        GCopssHost, sorted(placement), calibration.backbone_host_edge_delay_ms
    )
    hosts: Dict[str, GCopssHost] = {h.name: h for h in host_nodes}  # type: ignore[misc]

    rp_names = pick_rp_sites(built, num_rps)
    rp_table = default_rp_assignment(hierarchy, rp_names)
    GCopssNetworkBuilder(network, rp_table).install()

    if use_exact_st:
        for node in network.nodes.values():
            if isinstance(node, GCopssRouter):
                node.st.match = node.st.match_exact  # type: ignore[method-assign]
    if not use_st_cache:
        for node in network.nodes.values():
            if isinstance(node, GCopssRouter):
                node.st.cache_enabled = False

    splits: List[Tuple[str, Tuple[Name, ...]]] = []
    balancers: List[RpLoadBalancer] = []
    if auto_balance:
        candidates = sorted(n.name for n in built.core_routers)
        rp_selector = None
        if use_coordinate_selection:
            rp_selector = _make_coordinate_selector(
                built, game_map, placement, candidates
            )
        for rp_name in rp_names:
            router = network.nodes[rp_name]
            if not isinstance(router, GCopssRouter):
                raise TypeError(
                    f"RP {rp_name} must be a GCopssRouter, got {type(router).__name__}"
                )
            balancers.append(
                RpLoadBalancer(
                    router,
                    candidates=candidates,
                    queue_threshold=calibration.balancer_queue_threshold,
                    policy=split_policy,
                    refiner=default_refiner(hierarchy),
                    cooldown=calibration.balancer_cooldown_ms,
                    on_split=lambda new_rp, moved: splits.append((new_rp, moved)),
                    rp_selector=rp_selector,
                )
            )

    subscribe_to = subscriptions_fn or hierarchy.subscriptions_for
    for player, host in hosts.items():
        host.subscribe(subscribe_to(placement[player]))
    network.sim.run()  # converge subscriptions
    network.reset_counters()

    latency = LatencyRecorder("gcopss")
    series = SeriesRecorder(bucket_width=series_bucket, name="gcopss")
    _wire_latency_recorders(hosts, latency, series)

    _schedule_publishes(network, events, _bare_publisher(hosts))
    network.sim.run()

    routers = [n for n in network.nodes.values() if isinstance(n, GCopssRouter)]
    decaps = sum(n.decapsulations for n in routers)
    return ScenarioResult(
        label=label or f"G-COPSS {num_rps} RP{'s' if num_rps != 1 else ''}"
        + (" (auto)" if auto_balance else ""),
        latency=latency,
        series=series,
        network_bytes=network.total_bytes,
        updates_published=len(events),
        deliveries=latency.count,
        extras={
            "decapsulations": decaps,
            "splits": splits,
            "network_packets": network.total_packets,
            "false_positive_forwards": sum(
                n.st.false_positive_forwards for n in routers
            ),
            "duplicate_multicasts_dropped": sum(
                n.duplicate_multicasts_dropped for n in routers
            ),
            "updates_received": sum(h.updates_received for h in hosts.values()),
            "final_rp_count": len(
                {
                    n.name
                    for n in network.nodes.values()
                    if isinstance(n, GCopssRouter) and n.rp_prefixes
                }
            ),
            "sim_events": network.sim.events_processed,
        },
    )


def _make_coordinate_selector(
    built: BuiltBackbone,
    game_map: GameMap,
    placement: Dict[str, Name],
    candidates: Sequence[str],
):
    """Vivaldi-based new-RP choice (paper ref [16]; §VI future work).

    The embedding is trained from pairwise core-router delays (standing
    in for background ping traffic), and a split places the new RP at
    the idle candidate nearest the latency centroid of the edge routers
    whose players subscribe under the moved prefixes.
    """
    from repro.core.coordinates import (
        VivaldiSystem,
        coordinate_rp_selector,
        seed_coordinates_from_delays,
    )
    from repro.sim.flows import FlowAccountant

    flows = FlowAccountant(built.network.graph)
    cores = sorted(n.name for n in built.core_routers)
    truth = {}
    for i, a in enumerate(cores):
        for b in cores[i + 1 :: 7]:  # sampled pairs keep training cheap
            truth[(a, b)] = flows.path_delay(a, b)
    system = VivaldiSystem(seed=13)
    seed_coordinates_from_delays(system, truth, rounds=12)

    subscriptions = {
        player: game_map.hierarchy.subscriptions_for(area)
        for player, area in placement.items()
    }

    def subscriber_routers(moved_prefixes: Sequence[Name]) -> List[str]:
        routers = set()
        for player, subs in subscriptions.items():
            if any(
                prefix.is_prefix_of(cd) or cd.is_prefix_of(prefix)
                for prefix in moved_prefixes
                for cd in subs
            ):
                edge_name = built.host_edge[player]
                # Anchor at the edge's core attachment (coordinates are
                # trained on the core mesh).
                core = next(
                    n for n in built.network.graph.neighbors(edge_name)
                    if n.startswith("core")
                )
                routers.add(core)
        return sorted(routers)

    return coordinate_rp_selector(system, subscriber_routers)


# ----------------------------------------------------------------------
# IP client/server over the backbone (Table I / Fig. 6)
# ----------------------------------------------------------------------

def run_ip_server_backbone(
    events: Sequence[UpdateEvent],
    game_map: GameMap,
    placement: Dict[str, Name],
    num_servers: int = 3,
    calibration: Calibration = DEFAULT_CALIBRATION,
    backbone_spec: Optional[BackboneSpec] = None,
    label: Optional[str] = None,
    series_bucket: int = 1000,
) -> ScenarioResult:
    """Replay a trace through the IP client/server baseline."""
    hierarchy = game_map.hierarchy
    built = build_backbone(
        lambda net, name: IpRouter(net, name, service_time=calibration.ip_forward_ms),
        spec=backbone_spec,
    )
    network = built.network
    client_nodes = built.attach_hosts(
        IpClientNode, sorted(placement), calibration.backbone_host_edge_delay_ms
    )
    clients: Dict[str, IpClientNode] = {c.name: c for c in client_nodes}  # type: ignore[misc]

    server_sites = pick_rp_sites(built, num_servers)
    assignment = default_rp_assignment(hierarchy, server_sites)
    servers: Dict[str, GameServerNode] = {}
    for site in server_sites:
        server = GameServerNode(
            network,
            f"server@{site}",
            base_service_ms=calibration.server_base_ms,
            per_recipient_ms=calibration.server_per_recipient_ms,
        )
        network.connect(server, network.nodes[site], 1.0)
        servers[site] = server

    def server_for_cd(cd: Name) -> str:
        return servers[assignment.rp_for(cd)].name

    for client in clients.values():
        client.server_for_cd = server_for_cd

    subscribers = subscribers_by_leaf_cd(game_map, placement)
    for cd, names in subscribers.items():
        site = assignment.rp_for(cd)
        servers[site].set_subscribers(cd, names)

    latency = LatencyRecorder("ip-server")
    series = SeriesRecorder(bucket_width=series_bucket, name="ip-server")

    def on_update(client: IpClientNode, packet) -> None:
        sample = client.sim.now - packet.created_at
        latency.record(sample)
        if packet.sequence >= 0:
            series.record(packet.sequence, sample)

    for client in clients.values():
        client.on_update.append(on_update)

    def publish(i: int, event: UpdateEvent) -> None:
        clients[event.player].publish(
            event.cd, event.size, object_id=event.object_id, sequence=i
        )

    _schedule_publishes(network, events, publish)
    network.sim.run()

    return ScenarioResult(
        label=label or f"IP server x{num_servers}",
        latency=latency,
        series=series,
        network_bytes=network.total_bytes,
        updates_published=len(events),
        deliveries=latency.count,
        extras={
            "fanout_sent": sum(s.fanout_sent for s in servers.values()),
            "sim_events": network.sim.events_processed,
        },
    )


# ----------------------------------------------------------------------
# §V-A microbenchmark stacks on the Fig. 3b testbed
# ----------------------------------------------------------------------

def run_gcopss_testbed(
    events: Sequence[UpdateEvent],
    game_map: GameMap,
    placement: Dict[str, Name],
    calibration: Calibration = DEFAULT_CALIBRATION,
    label: str = "G-COPSS (testbed)",
    executor_factory: Optional[Callable[[Network], object]] = None,
) -> ScenarioResult:
    """G-COPSS microbenchmark: 62 players, RP at R1.

    ``executor_factory`` plugs in an execution backend (see
    :func:`~repro.experiments.testbed.build_testbed`).  The differential
    tests run this scenario under both backends and demand identical
    results.
    """
    testbed = build_testbed(
        game_map.hierarchy, placement, calibration, executor_factory
    )
    testbed.subscribe()
    testbed.converge()

    latency = LatencyRecorder("gcopss-testbed")
    series = SeriesRecorder(name="gcopss-testbed")
    _wire_latency_recorders(testbed.hosts, latency, series)
    testbed.replay(events, _bare_publisher(testbed.hosts))
    testbed.executor.run()
    return ScenarioResult(
        label=label,
        latency=latency,
        series=series,
        network_bytes=testbed.network.total_bytes,
        updates_published=len(events),
        deliveries=latency.count,
        extras={"executor": testbed.executor.telemetry()},
    )


def run_ip_server_testbed(
    events: Sequence[UpdateEvent],
    game_map: GameMap,
    placement: Dict[str, Name],
    calibration: Calibration = DEFAULT_CALIBRATION,
    label: str = "IP server (testbed)",
) -> ScenarioResult:
    """IP server microbenchmark: server at R1, flat testbed service time."""
    topo = build_benchmark_topology(
        router_factory=lambda net, name: IpRouter(
            net, name, service_time=calibration.testbed_ip_forward_ms
        ),
        host_factory=IpClientNode,
        host_names=sorted(placement),
        inter_router_delay_ms=calibration.testbed_router_delay_ms,
        host_delay_ms=calibration.testbed_host_delay_ms,
    )
    network = topo.network
    server = GameServerNode(
        network,
        "server",
        base_service_ms=calibration.testbed_server_service_ms,
        per_recipient_ms=0.0,
    )
    network.connect(server, topo.routers["R1"], calibration.testbed_host_delay_ms)

    clients: Dict[str, IpClientNode] = {c.name: c for c in topo.hosts}  # type: ignore[misc]
    for client in clients.values():
        client.server_for_cd = lambda cd: "server"
    for cd, names in subscribers_by_leaf_cd(game_map, placement).items():
        server.set_subscribers(cd, names)

    latency = LatencyRecorder("ip-testbed")
    series = SeriesRecorder(name="ip-testbed")

    def on_update(client: IpClientNode, packet) -> None:
        sample = client.sim.now - packet.created_at
        latency.record(sample)
        if packet.sequence >= 0:
            series.record(packet.sequence, sample)

    for client in clients.values():
        client.on_update.append(on_update)

    def publish(i: int, event: UpdateEvent) -> None:
        clients[event.player].publish(
            event.cd, event.size, object_id=event.object_id, sequence=i
        )

    _schedule_publishes(network, events, publish)
    network.sim.run()
    return ScenarioResult(
        label=label,
        latency=latency,
        series=series,
        network_bytes=network.total_bytes,
        updates_published=len(events),
        deliveries=latency.count,
    )


def run_ndn_testbed(
    events: Sequence[UpdateEvent],
    game_map: GameMap,
    placement: Dict[str, Name],
    calibration: Calibration = DEFAULT_CALIBRATION,
    label: str = "NDN (testbed)",
    drain_ms: float = 10_000.0,
) -> ScenarioResult:
    """VoCCN-style NDN microbenchmark.

    Every player watches every other player (with the shared hierarchical
    map, anyone can modify a satellite-layer object anyone else sees, so
    the possible-publisher set is the full population), with pipelining
    window N and update accumulation t from the calibration.  The run is
    horizoned: latency samples cover Data delivered before the horizon —
    under overload the tail would otherwise never drain, which is the
    paper's point about this architecture.
    """
    topo = build_benchmark_topology(
        router_factory=lambda net, name: NdnRouter(
            net, name, service_time=calibration.testbed_ndn_forward_ms
        ),
        host_factory=lambda net, name: NdnGamePlayer(
            net,
            name,
            accumulation_ms=calibration.ndn_accumulation_ms,
            pipeline_window=calibration.ndn_pipeline_window,
            interest_lifetime_ms=calibration.ndn_interest_lifetime_ms,
        ),
        host_names=sorted(placement),
        inter_router_delay_ms=calibration.testbed_router_delay_ms,
        host_delay_ms=calibration.testbed_host_delay_ms,
    )
    network = topo.network
    players: Dict[str, NdnGamePlayer] = {h.name: h for h in topo.hosts}  # type: ignore[misc]
    for name, host in players.items():
        install_routes(network, NdnGamePlayer.stream_prefix(name), host)

    latency = LatencyRecorder("ndn-testbed")
    series = SeriesRecorder(name="ndn-testbed")
    published_times: List[float] = []

    def on_batch(
        receiver: NdnGamePlayer, publisher: str, times: List[float], count: int
    ) -> None:
        for created in times:
            latency.record(receiver.sim.now - created)

    for name, host in players.items():
        host.on_batch.append(on_batch)
        for other in players:
            if other != name:
                host.watch(other)

    def publish(i: int, event: UpdateEvent) -> None:
        players[event.player].local_update(event.size)
        published_times.append(network.sim.now)

    _schedule_publishes(network, events, publish)
    horizon = events[-1].time_ms + drain_ms if events else drain_ms
    network.sim.run(until=horizon)

    return ScenarioResult(
        label=label,
        latency=latency,
        series=series,
        network_bytes=network.total_bytes,
        updates_published=len(events),
        deliveries=latency.count,
        extras={
            "horizon_ms": horizon,
            "interests_sent": sum(p.interests_sent for p in players.values()),
        },
    )
