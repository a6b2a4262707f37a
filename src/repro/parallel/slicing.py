"""The ``scale`` world's shape and construction, from the spec alone.

A :class:`~repro.parallel.scale.ScaleSpec` fixes the region-ring topology
completely, so everything about its *shape* is a table
(:class:`ScaleTopology`, derived once per process per spec by
:func:`scale_topology`): node names in registration order (position =
serial rank), links in creation order, host → access router → region, the
router-only link list and the RP routes.  Every consumer reads that one
table:

* :func:`scale_plan_fast` — the shard plan, from
  :func:`~repro.parallel.partition.nearest_anchor` over the router-only
  links plus the analytic host fold (hosts are leaves, so they always
  inherit their access router's shard);
* :func:`scale_routes` — deterministic next hops toward every RP (route
  tie-breaks must not depend on which subgraph a process happens to
  hold, so no build may ask networkx);
* :func:`build_scale_world` and :func:`build_scale_shard` — the full
  world and one shard's slice of it, through a single construction loop
  (the full world is the slice that owns every node);
* the multiprocess coordinator, which never builds anything: its
  lookahead is :func:`~repro.parallel.partition.min_cut_delay` over
  :attr:`ScaleTopology.links`.

Why slices stay bit-identical to the full world: every tie-break in the
engine is ``(time, origin, seq)`` where ``origin`` is a node *rank*, and
every forwarding decision keys off node names, face identity or installed
routes.  A slice takes its ranks from the table, gets its face ids by
creating links in the table's order (skipping only links with an absent
end — which cannot be incident to a shard node), and installs routes
from the same :func:`scale_routes` table.  ``tests/test_parallel_slicing
.py`` pins all of this against the restriction of a full build.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Container, Dict, List, Sequence, Tuple

from repro.parallel.partition import LinkRow, ShardPlan, nearest_anchor
from repro.sim.network import Network, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import GCopssHost
    from repro.parallel.scale import ScaleSpec

__all__ = [
    "ScaleTopology",
    "ScaleWorld",
    "scale_topology",
    "scale_plan_fast",
    "scale_routes",
    "build_scale_world",
    "build_scale_shard",
]


# ----------------------------------------------------------------------
# The spec-derived topology table
# ----------------------------------------------------------------------
class ScaleTopology:
    """The region-ring world as tables, a pure function of the spec.

    ``nodes`` lists ``(name, kind)`` — kind is ``core`` / ``access`` /
    ``host`` — in serial registration order; the position *is* the rank
    (see :meth:`repro.sim.network.Network._register`).  ``links`` lists
    ``(a, b, delay)`` in serial creation order, which matters because a
    node's face ids follow the order its links are created in, and faces
    are forwarding state (ST tables, RP routes).
    """

    def __init__(self, spec: "ScaleSpec") -> None:
        self.cores: List[str] = [f"core{r}" for r in range(spec.regions)]
        access_region: Dict[str, int] = {
            f"acc{r}_{a}": r
            for r in range(spec.regions)
            for a in range(spec.access_per_region)
        }
        access = list(access_region)
        self.hosts: List[str] = [f"p{i:06d}" for i in range(spec.players)]
        self.nodes: List[Tuple[str, str]] = (
            [(name, "core") for name in self.cores]
            + [(name, "access") for name in access]
            + [(name, "host") for name in self.hosts]
        )
        self.ranks: Dict[str, int] = {
            name: rank for rank, (name, _kind) in enumerate(self.nodes)
        }
        ring: List[LinkRow] = []
        if spec.regions == 2:
            ring.append(("core0", "core1", spec.core_ring_delay_ms))
        elif spec.regions > 2:
            ring.extend(
                (f"core{r}", f"core{(r + 1) % spec.regions}", spec.core_ring_delay_ms)
                for r in range(spec.regions)
            )
        #: Links among routers only (cores + access), a prefix of ``links``.
        self.router_links: List[LinkRow] = ring + [
            (name, f"core{r}", spec.access_delay_ms)
            for name, r in access_region.items()
        ]
        self.host_access: Dict[str, str] = {
            host: access[i % len(access)] for i, host in enumerate(self.hosts)
        }
        self.host_region: Dict[str, int] = {
            host: access_region[name] for host, name in self.host_access.items()
        }
        self.links: List[LinkRow] = self.router_links + [
            (host, name, spec.host_delay_ms)
            for host, name in self.host_access.items()
        ]
        self.routes = scale_routes(self.cores, self.router_links, self.ranks)


@lru_cache(maxsize=2)
def scale_topology(spec: "ScaleSpec") -> ScaleTopology:
    """The spec's topology table, derived once per process per spec."""
    return ScaleTopology(spec)


# ----------------------------------------------------------------------
# Plan and routes, world-free
# ----------------------------------------------------------------------
def scale_plan_fast(spec: "ScaleSpec", shards: int) -> ShardPlan:
    """Anchor shard *i* at ``core{i}``; everything folds onto the nearest core.

    Hosts are leaves: the only path to a host runs through its access
    router, so its ``(distance, anchor)`` optimum is its access router's
    plus the host link — same anchor.  Removing hosts likewise removes no
    router-to-router path, so the search runs over the router-only links
    and each host inherits its access router's shard.
    """
    if not 1 <= shards <= spec.regions:
        raise ValueError(
            f"shards must be in 1..{spec.regions} (one anchor per region), got {shards}"
        )
    topology = scale_topology(spec)
    anchors = topology.cores[:shards]
    assignment = nearest_anchor(topology.router_links, anchors)
    for host, access in topology.host_access.items():
        assignment[host] = assignment[access]
    return ShardPlan(
        assignment=assignment, num_shards=shards, anchors=tuple(anchors)
    )


def scale_routes(
    rps: Sequence[str], router_links: Sequence[LinkRow], ranks: Dict[str, int]
) -> Dict[str, Dict[str, str]]:
    """Deterministic next hop from every router toward every RP.

    Shortest-path routing with an explicit tie-break: from router ``r``
    toward RP ``p``, pick the neighbor ``m`` minimizing
    ``(dist_p(m) + delay(r, m), rank(m))``.  The chain strictly decreases
    ``dist_p``, so routes are loop-free; the tie-break depends only on the
    spec — never on graph insertion order or library heap internals, which
    is what lets a worker holding one slice and the serial engine holding
    the whole world install *identical* routes.
    """
    adjacency: Dict[str, List[Tuple[str, float]]] = {}
    for a, b, delay in router_links:
        adjacency.setdefault(a, []).append((b, delay))
        adjacency.setdefault(b, []).append((a, delay))
    routes: Dict[str, Dict[str, str]] = {name: {} for name in adjacency}
    for rp in rps:
        dist: Dict[str, float] = {}
        heap: List[Tuple[float, str]] = [(0.0, rp)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = d
            for neighbor, weight in adjacency[node]:
                if neighbor not in dist:
                    heapq.heappush(heap, (d + weight, neighbor))
        for router, neighbors in adjacency.items():
            if router == rp:
                continue
            routes[router][rp] = min(
                neighbors, key=lambda nw: (dist[nw[0]] + nw[1], ranks[nw[0]])
            )[0]
    return routes


# ----------------------------------------------------------------------
# Construction: the full world and its slices
# ----------------------------------------------------------------------
@dataclass
class ScaleWorld:
    """A built scale topology (or one shard's slice) plus its player layout."""

    network: Network
    hosts: Dict[str, "GCopssHost"]
    host_region: Dict[str, int]


class _StubNode(Node):
    """The far end of a boundary link, present for wiring only.

    A slice needs boundary links to exist (the local sender's face, its
    byte counters, and the face identity inbound arrivals are delivered
    on), which needs *a* node object on the foreign side.  The stub
    carries the three things the local forwarding path reads off a peer —
    name, serial rank and the ``is_copss_router`` marker — and fails
    loudly if anything ever executes *at* it, which would mean shard
    containment broke.
    """

    def __init__(self, network: Network, name: str, copss_router: bool) -> None:
        super().__init__(network, name)
        self.is_copss_router = copss_router

    def receive(self, packet, face) -> None:
        raise RuntimeError(
            f"stub node {self.name} received a packet locally; boundary "
            "sends must leave through the egress proxy (shard containment "
            "is broken)"
        )


def _construct(spec: "ScaleSpec", local: Container[str]) -> ScaleWorld:
    """The one construction loop: ``local`` nodes, stubs, their links.

    Creates the nodes named by ``local``, a stub for each foreign
    neighbour, and every link between them.  Nodes are created in serial
    registration order with their table ranks, and links in serial order
    skipping those with an absent end, so every local node ends up with
    exactly its serial face ids.  No routes are installed here.
    """
    from repro.core.engine import GCopssHost, GCopssRouter

    topology = scale_topology(spec)
    stubs = set()
    for a, b, _delay in topology.links:
        if (a in local) != (b in local):
            stubs.add(b if a in local else a)

    network = Network()
    hosts: Dict[str, "GCopssHost"] = {}
    for rank, (name, kind) in enumerate(topology.nodes):
        if name in local:
            if kind == "host":
                node = hosts[name] = GCopssHost(network, name)
            else:
                node = GCopssRouter(network, name)
        elif name in stubs:
            node = _StubNode(network, name, copss_router=kind != "host")
        else:
            continue
        node.rank = rank
    nodes = network.nodes
    for a, b, delay in topology.links:
        if a in nodes and b in nodes:
            network.connect(a, b, delay)
    host_region = topology.host_region
    return ScaleWorld(
        network=network,
        hosts=hosts,
        host_region={name: host_region[name] for name in hosts},
    )


def _rp_table(spec: "ScaleSpec"):
    """Each region's CD at its own core, the world CD at ``core0``."""
    from repro.core.rp import RpTable

    rp_table = RpTable()
    for r in range(spec.regions):
        rp_table.assign(spec.region_cd(r), f"core{r}")
    rp_table.assign(spec.world_cd, "core0")
    return rp_table


def build_scale_world(spec: "ScaleSpec") -> ScaleWorld:
    """Build the region-ring topology and install the RP layout.

    Construction order is a pure function of ``spec`` — node ranks (and
    with them every tie-break in the simulation) are identical no matter
    which process builds the world.
    """
    from repro.core.engine import GCopssNetworkBuilder

    topology = scale_topology(spec)
    world = _construct(spec, topology.ranks)
    # Routes come from the table the slices share: equal-cost ties must
    # resolve identically whether a process holds the whole world or one
    # shard's slice.
    GCopssNetworkBuilder(
        world.network, _rp_table(spec), next_hops=topology.routes
    ).install()
    spec.post_install(world.network)
    return world


def build_scale_shard(spec: "ScaleSpec", plan: ShardPlan, shard: int) -> ScaleWorld:
    """Build only ``shard``'s slice of the scale world, plus boundary stubs.

    The returned :class:`ScaleWorld` contains only the shard's hosts.
    ``GCopssNetworkBuilder.install`` insists that every RP is a
    ``GCopssRouter`` *in this network*, and on a slice a foreign RP is a
    stub or absent — so the slice uses the builder's per-router half on
    its real routers and marks only the RPs it holds.
    """
    from repro.core.engine import GCopssNetworkBuilder, GCopssRouter

    world = _construct(
        spec, {name for name, s in plan.assignment.items() if s == shard}
    )
    network = world.network
    rp_table = _rp_table(spec)
    builder = GCopssNetworkBuilder(
        network, rp_table, next_hops=scale_topology(spec).routes
    )
    for router in builder.routers():
        builder.install_routes(router)
    for prefix, rp_name in rp_table:
        rp_router = network.nodes.get(rp_name)
        if isinstance(rp_router, GCopssRouter):
            rp_router.rp_prefixes.add(prefix)
    # Same seam as build_scale_world: a federated spec layers its region
    # state on top, installing only the regions whose members live here.
    spec.post_install(network)
    return world
