"""The ``scale`` world's shape and construction, from the spec alone.

A :class:`~repro.parallel.scale.ScaleSpec` fixes the region-ring topology
completely, so everything about its *shape* is a table
(:class:`ScaleTopology`, derived once per process per spec by
:func:`scale_topology`): node names in registration order (position =
serial rank), links in creation order, host → access router → region, the
router-only link list and the route table.  Every consumer reads that one
table:

* :func:`scale_plan_fast` — the shard plan, from
  :func:`~repro.parallel.partition.nearest_anchor` over the router-only
  links plus the analytic host fold (hosts are leaves, so they always
  inherit their access router's shard);
* the route table — :func:`~repro.sim.routing.next_hop_table` toward
  every router over the router-only links (route tie-breaks must not
  depend on which subgraph a process happens to hold, so every process
  routes from the spec's whole edge list);
* :func:`build_scale_world` and :func:`build_scale_shard` — the full
  world and one shard's slice of it, through a single construction loop
  (:func:`build_slice`; the full world is the slice that owns every
  node) and a single install path;
* the multiprocess coordinator, which never builds anything: its
  lookahead is :func:`~repro.parallel.partition.min_cut_delay` over
  :attr:`ScaleTopology.links`.

:func:`build_slice` and :class:`StubNode` are not scale-specific: a live
runner builds its slice of a live spec with them too
(:func:`repro.net.world.build_world`).

Why slices stay bit-identical to the full world: every tie-break in the
engine is ``(time, origin, seq)`` where ``origin`` is a node *rank*, and
every forwarding decision keys off node names, face identity or installed
routes.  A slice takes its ranks from the table, gets its face ids by
creating links in the table's order (skipping only links with an absent
end — which cannot be incident to a shard node), and installs routes
from the same table.  ``tests/test_parallel_slicing.py`` pins all of
this against the restriction of a full build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Container, Dict, List, Sequence, Tuple

from repro.parallel.partition import ShardPlan, nearest_anchor
from repro.sim.network import Network, Node
from repro.sim.routing import LinkRow, next_hop_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import GCopssHost
    from repro.parallel.scale import ScaleSpec

__all__ = [
    "ScaleTopology",
    "ScaleWorld",
    "StubNode",
    "build_slice",
    "scale_topology",
    "scale_plan_fast",
    "build_scale_world",
    "build_scale_shard",
]

#: One-way link delays of the region ring: core–core, access–core and
#: host–access.  The core ring delay is the conservative lookahead.
CORE_RING_DELAY_MS = 2.0
ACCESS_DELAY_MS = 0.5
HOST_DELAY_MS = 0.1


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
            ring.append(("core0", "core1", CORE_RING_DELAY_MS))
        elif spec.regions > 2:
            ring.extend(
                (f"core{r}", f"core{(r + 1) % spec.regions}", CORE_RING_DELAY_MS)
                for r in range(spec.regions)
            )
        #: Links among routers only (cores + access), a prefix of ``links``.
        self.router_links: List[LinkRow] = ring + [
            (name, f"core{r}", ACCESS_DELAY_MS)
            for name, r in access_region.items()
        ]
        self.host_access: Dict[str, str] = {
            host: access[i % len(access)] for i, host in enumerate(self.hosts)
        }
        self.host_region: Dict[str, int] = {
            host: access_region[name] for host, name in self.host_access.items()
        }
        self.links: List[LinkRow] = self.router_links + [
            (host, name, HOST_DELAY_MS)
            for host, name in self.host_access.items()
        ]
        #: ``{router: {router: next hop}}`` toward every router.
        self.routes = next_hop_table(
            self.router_links, self.ranks, self.cores + access
        )


@lru_cache(maxsize=2)
def scale_topology(spec: "ScaleSpec") -> ScaleTopology:
    """The spec's topology table, derived once per process per spec."""
    return ScaleTopology(spec)


# ----------------------------------------------------------------------
# The shard plan, world-free
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


# ----------------------------------------------------------------------
# Construction: the full world and its slices
# ----------------------------------------------------------------------
@dataclass
class ScaleWorld:
    """A built scale topology (or one shard's slice) plus its player layout."""

    network: Network
    hosts: Dict[str, "GCopssHost"]
    host_region: Dict[str, int]


class StubNode(Node):
    """The far end of a boundary link, present for wiring only.

    A slice needs boundary links to exist (the local sender's face, its
    byte counters, and the face identity inbound arrivals are delivered
    on), which needs *a* node object on the foreign side.  The stub
    carries the three things the local forwarding path reads off a peer —
    name, serial rank and the ``is_copss_router`` marker — and fails
    loudly if anything ever executes *at* it, which would mean slice
    containment broke.
    """

    def __init__(self, network: Network, name: str, copss_router: bool) -> None:
        super().__init__(network, name)
        self.is_copss_router = copss_router

    def receive(self, packet, face) -> None:
        raise RuntimeError(
            f"stub node {self.name} received a packet locally; boundary "
            "sends must leave through the egress (slice containment is "
            "broken)"
        )


def build_slice(
    nodes: Sequence[Tuple[str, str]],
    links: Sequence[LinkRow],
    local: Container[str],
    make: Callable[[Network, str, str], Node],
) -> Network:
    """The one construction loop: ``local`` nodes, stubs, their links.

    ``nodes`` lists ``(name, kind)`` in serial registration order (the
    position is the rank) and ``links`` lists ``(a, b, delay)`` in serial
    creation order.  Creates ``make(network, name, kind)`` for each node
    ``local`` names, a :class:`StubNode` for each foreign neighbour (a
    COPSS router unless its kind is ``host``) and every link between
    them, skipping only links with an absent end — which cannot be
    incident to a local node — so every local node ends up with exactly
    its serial rank and face ids.  No routes are installed here.
    """
    stubs = set()
    for a, b, _delay in links:
        if (a in local) != (b in local):
            stubs.add(b if a in local else a)
    network = Network()
    for rank, (name, kind) in enumerate(nodes):
        if name in local:
            node = make(network, name, kind)
        elif name in stubs:
            node = StubNode(network, name, copss_router=kind != "host")
        else:
            continue
        node.rank = rank
    present = network.nodes
    for a, b, delay in links:
        if a in present and b in present:
            network.connect(a, b, delay)
    return network


def _construct(spec: "ScaleSpec", local: Container[str]) -> ScaleWorld:
    """``local``'s slice of the scale world, no routes installed yet."""
    from repro.core.engine import GCopssHost, GCopssRouter

    def make(network: Network, name: str, kind: str) -> Node:
        if kind == "host":
            return GCopssHost(network, name)
        return GCopssRouter(network, name)

    topology = scale_topology(spec)
    network = build_slice(topology.nodes, topology.links, local, make)
    hosts = {n: node for n, node in network.nodes.items() if isinstance(node, GCopssHost)}
    host_region = topology.host_region
    return ScaleWorld(
        network=network,
        hosts=hosts,
        host_region={name: host_region[name] for name in hosts},
    )


def _install(spec: "ScaleSpec", network: Network) -> None:
    """Each region's CD at its own core, the world CD at ``core0``.

    Full world or slice alike, every local router takes its row of the
    spec-level route table; a federated spec then layers on the regions
    whose members live here.
    """
    from repro.core.engine import GCopssNetworkBuilder
    from repro.core.rp import RpTable

    rp_table = RpTable()
    for r in range(spec.regions):
        rp_table.assign(spec.region_cd(r), f"core{r}")
    rp_table.assign(spec.world_cd, "core0")
    GCopssNetworkBuilder(network, rp_table).install_slice(scale_topology(spec).routes)
    spec.post_install(network)


def build_scale_world(spec: "ScaleSpec") -> ScaleWorld:
    """Build the region-ring topology and install the RP layout.

    Construction order is a pure function of ``spec`` — node ranks (and
    with them every tie-break in the simulation) are identical no matter
    which process builds the world.
    """
    world = _construct(spec, scale_topology(spec).ranks)
    _install(spec, world.network)
    return world


def build_scale_shard(spec: "ScaleSpec", plan: ShardPlan, shard: int) -> ScaleWorld:
    """Build only ``shard``'s slice of the scale world, plus boundary stubs.

    The returned :class:`ScaleWorld` contains only the shard's hosts, and
    only the RPs the shard holds are marked.
    """
    world = _construct(
        spec, {name for name, s in plan.assignment.items() if s == shard}
    )
    _install(spec, world.network)
    return world
