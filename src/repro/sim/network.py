"""Nodes, faces and links: the network fabric under every protocol stack.

A :class:`Node` owns a set of :class:`Face` objects; each face is one end
of a point-to-point :class:`Link` with a fixed propagation delay.  Sending
a packet on a face schedules delivery at the peer node after the link
delay, and the link accounts the bytes carried — the sum over all links is
the paper's "aggregate network load".

Nodes are protocol-agnostic: NDN routers, G-COPSS routers, game servers
and player hosts all subclass :class:`Node` and implement
:meth:`Node.receive`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.packets import Packet
from repro.sim.engine import Simulator
from repro.sim.stats import NodeStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.roles import Role

__all__ = ["Face", "Link", "Node", "Network", "PacketDispatcher"]


PacketHandler = Callable[[Packet, "Face"], None]


class PacketDispatcher:
    """Typed packet dispatch: one handler per packet class, MRO-resolved.

    Replaces the ``isinstance`` ladders that used to live in every
    ``receive``/``_dispatch`` method.  Handlers are registered per packet
    *class*; a packet whose exact type has no handler falls back to the
    nearest registered base along its MRO (longest match first), so a
    subclass packet is served by its closest registered ancestor.
    Resolution is memoized per concrete type — dispatch on the hot path is
    one dict lookup.

    Packets no handler claims are counted in ``stats.unknown_packets`` and
    then, in the default strict mode, rejected with ``TypeError`` — an
    unknown packet at a router is a wiring bug worth surfacing.  Lenient
    dispatchers (``strict=False``) only count, for endpoints that ignore
    stray traffic by design.
    """

    __slots__ = ("_handlers", "_resolved", "stats", "owner", "strict")

    def __init__(
        self,
        stats: Optional[NodeStats] = None,
        owner: str = "node",
        strict: bool = True,
    ) -> None:
        self._handlers: Dict[type, PacketHandler] = {}
        # type -> handler memo, including the unknown-packet fallthrough.
        self._resolved: Dict[type, PacketHandler] = {}
        self.stats = stats if stats is not None else NodeStats()
        self.owner = owner
        self.strict = strict

    def register(self, packet_cls: type, handler: PacketHandler) -> PacketHandler:
        """Route ``packet_cls`` (and unclaimed subclasses) to ``handler``.

        Re-registering a class replaces its handler — that is how the
        G-COPSS router takes over ``Interest`` handling from the NDN base
        while everything else keeps flowing to the base pipeline.
        """
        if not (isinstance(packet_cls, type) and issubclass(packet_cls, Packet)):
            raise TypeError(f"can only register Packet subclasses, got {packet_cls!r}")
        self._handlers[packet_cls] = handler
        self._resolved.clear()
        return handler

    def registered(self) -> Dict[type, PacketHandler]:
        """Snapshot of the class -> handler table (for tests/introspection)."""
        return dict(self._handlers)

    def handler_for(self, packet_cls: type) -> Optional[PacketHandler]:
        """The handler a packet of ``packet_cls`` would resolve to, or None."""
        handler = self._resolved.get(packet_cls)
        if handler is None:
            handler = self._resolve(packet_cls)
        return None if handler == self._unknown else handler

    def dispatch(self, packet: Packet, face: "Face | None") -> None:
        handler = self._resolved.get(packet.__class__)
        if handler is None:
            handler = self._resolve(packet.__class__)
        handler(packet, face)

    def _resolve(self, cls: type) -> PacketHandler:
        for base in cls.__mro__:
            handler = self._handlers.get(base)
            if handler is not None:
                self._resolved[cls] = handler
                return handler
        self._resolved[cls] = self._unknown
        return self._unknown

    def _unknown(self, packet: Packet, face: "Face | None") -> None:
        self.stats.unknown_packets += 1
        if self.strict:
            raise TypeError(
                f"{self.owner}: unexpected packet type {type(packet).__name__}"
            )


class Face:
    """One endpoint of a link, owned by a node.

    Face ids are small integers local to the owning node, mirroring the
    IPC-port-per-face layout of the G-COPSS router in the paper's Fig. 2.
    """

    __slots__ = ("node", "face_id", "link", "_peer", "_peer_face")

    def __init__(self, node: "Node", face_id: int, link: "Link") -> None:
        self.node = node
        self.face_id = face_id
        self.link = link
        # Filled in by Link once both endpoints exist; topology is static
        # after construction, so the peer is resolved once instead of per
        # packet (the router service-cost estimate reads it on every hop).
        self._peer: "Node | None" = None
        self._peer_face: "Face | None" = None

    @property
    def peer(self) -> "Node":
        """The node at the other end of this face's link."""
        peer = self._peer
        if peer is None:
            peer = self._peer = self.link.peer_of(self.node)
        return peer

    @property
    def peer_face(self) -> "Face":
        peer_face = self._peer_face
        if peer_face is None:
            peer_face = self._peer_face = self.link.face_of(self.peer)
        return peer_face

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` toward the peer node.

        Equivalent to ``link.transmit(self.node, packet)`` but uses the
        peer resolved at link construction, skipping the per-packet
        endpoint comparison — this is the per-hop hot path.

        This is also the single fault-injection point: when a
        :class:`~repro.sim.faults.FaultInjector` has armed the link, its
        hook decides per packet whether the transmission is dropped (the
        packet never accrues byte/packet counters — it left no trace on
        the wire) or delayed by extra jitter.  With no plan installed the
        cost is one attribute load and a ``None`` check.

        ``link.trace_hook`` is the telemetry twin of the same slot
        pattern: a :class:`~repro.obs.tracer.PacketTracer` observes every
        forward (and every fault drop, with its reason) here.  Disabled
        tracing likewise costs one attribute load plus a ``None`` check.
        """
        link = self.link
        delay = link.delay
        hook = link.fault_hook
        if hook is not None:
            extra = hook(self, packet)
            if extra is None:  # dropped at egress
                tracer = link.trace_hook
                if tracer is not None:
                    tracer.on_fault_drop(self, packet)
                return
            delay += extra
        link.bytes_carried += packet.size
        link.packets_carried += 1
        tracer = link.trace_hook
        if tracer is not None:
            tracer.on_forward(self, packet, delay)
        peer = self._peer
        peer_face = self._peer_face
        if peer is None or peer_face is None:  # face not wired via Link()
            peer = self.peer
            peer_face = self.peer_face
        # Arrivals tie-break by the *sender's* rank and execute under the
        # *receiver's* — the content-based ordering the sharded executor
        # reproduces (see repro.sim.engine module docs).
        link.sim.schedule_link(
            delay, self.node.rank, peer.rank, peer.receive, packet, peer_face
        )

    def __repr__(self) -> str:
        return f"Face({self.node.name}#{self.face_id}->{self.peer.name})"


class Link:
    """Bidirectional point-to-point link with fixed propagation delay (ms).

    Bandwidth is intentionally not modelled: the paper's microbenchmark
    explicitly excludes "bandwidth and congestion related latency issues"
    because they affect all candidate solutions equally.  Processing and
    queueing happen inside nodes.
    """

    __slots__ = (
        "sim",
        "delay",
        "_ends",
        "bytes_carried",
        "packets_carried",
        "name",
        "fault_hook",
        "trace_hook",
    )

    def __init__(self, sim: Simulator, a: "Node", b: "Node", delay: float, name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"link delay must be >= 0, got {delay}")
        if a is b:
            raise ValueError("cannot link a node to itself")
        self.sim = sim
        self.delay = delay
        self.name = name or f"{a.name}<->{b.name}"
        face_a = a._attach(self)
        face_b = b._attach(self)
        self._ends: Tuple[Tuple[Node, Face], Tuple[Node, Face]] = ((a, face_a), (b, face_b))
        face_a._peer, face_a._peer_face = b, face_b
        face_b._peer, face_b._peer_face = a, face_a
        self.bytes_carried: int = 0
        self.packets_carried: int = 0
        # Per-packet fault decision installed by a FaultInjector:
        # ``hook(face, packet) -> None`` drops, ``-> float`` adds jitter.
        # None (the default) is the nil fast path.
        self.fault_hook: Optional[Callable[[Face, Packet], Optional[float]]] = None
        # Egress observer installed by a PacketTracer (repro.obs): read-only,
        # same nil-fast-path contract as the fault hook.
        self.trace_hook = None

    def peer_of(self, node: "Node") -> "Node":
        """The other endpoint of this link."""
        (a, _), (b, _) = self._ends
        if node is a:
            return b
        if node is b:
            return a
        raise ValueError(f"{node} is not an endpoint of {self}")

    def face_of(self, node: "Node") -> Face:
        for end_node, face in self._ends:
            if end_node is node:
                return face
        raise ValueError(f"{node} is not an endpoint of {self}")

    def transmit(self, sender: "Node", packet: Packet) -> None:
        """Carry ``packet`` from ``sender`` to the opposite endpoint.

        Delegates to :meth:`Face.send` on the sender's face so counters
        accrue in exactly one place and the fault hook applies uniformly
        no matter which entry point transmitted.
        """
        self.face_of(sender).send(packet)

    def __repr__(self) -> str:
        return f"Link({self.name}, {self.delay}ms)"


class Node:
    """A network element: router, rendezvous point, server, broker or host.

    Subclasses implement :meth:`receive`.  The base class manages faces,
    offers :meth:`send`, owns the shared :class:`~repro.sim.stats.NodeStats`
    counter block, and carries attachable :class:`~repro.sim.roles.Role`
    objects — behavioral units (RP, relay, broker, hybrid edge) composed
    onto a node instead of baked into a subclass hierarchy.
    """

    #: Marker for the COPSS data plane's peer checks (a router only
    #: replicates down-tree when the packet arrived from another COPSS
    #: router).  A class attribute rather than an ``isinstance`` probe so
    #: the plane modules need no import cycle with the engine.
    is_copss_router = False

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.sim = network.sim
        self.name = name
        self.faces: Dict[int, Face] = {}
        self._next_face_id = 0
        self.stats = NodeStats()
        self.roles: Dict[str, "Role"] = {}
        # Dispatch-side observer installed by a PacketTracer (repro.obs):
        # engines report enqueue/service/delivery when this is set.
        self.trace_hook = None
        # Global event-ordering identity, assigned by registration order
        # (see Network._register).  Worker processes override it with the
        # serial-world rank so tie-breaking matches across executors.
        self.rank = -1
        network._register(self)

    # ------------------------------------------------------------------
    # Counters (backed by the shared stats block)
    # ------------------------------------------------------------------
    @property
    def packets_received(self) -> int:
        return self.stats.packets_received

    @packets_received.setter
    def packets_received(self, value: int) -> None:
        self.stats.packets_received = value

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    def attach_role(self, role: "Role") -> "Role":
        """Attach a behavioral role; returns it for chained assignment."""
        name = role.ROLE_NAME
        if name in self.roles:
            raise ValueError(f"{self.name} already has a {name!r} role")
        self.roles[name] = role
        role.attach(self)
        return role

    def detach_role(self, name: str) -> "Role":
        role = self.roles.pop(name)
        role.detach(self)
        return role

    def get_role(self, name: str) -> "Role | None":
        return self.roles.get(name)

    def has_role(self, name: str) -> bool:
        return name in self.roles

    def _attach(self, link: Link) -> Face:
        face = Face(self, self._next_face_id, link)
        self.faces[self._next_face_id] = face
        self._next_face_id += 1
        return face

    def face_toward(self, neighbor: "Node") -> Face:
        """The local face whose link leads directly to ``neighbor``."""
        for face in self.faces.values():
            if face.peer is neighbor:
                return face
        raise ValueError(f"{self.name} has no face toward {neighbor.name}")

    def send(self, face: Face, packet: Packet) -> None:
        if face.node is not self:
            raise ValueError(f"face {face} does not belong to {self.name}")
        face.send(packet)

    def receive(self, packet: Packet, face: Face) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Network:
    """Container for nodes and links, with routing helpers.

    Keeps a :mod:`networkx` view of the topology (edge weight = propagation
    delay) for shortest-path route computation.  Routes are cached per
    (src, dst) pair; the cache is invalidated when topology changes.
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self._graph: Optional[nx.Graph] = None
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        node.rank = len(self.nodes)
        self.nodes[node.name] = node
        self._invalidate()

    def connect(self, a: "Node | str", b: "Node | str", delay: float) -> Link:
        """Create a bidirectional link between two nodes (delay in ms)."""
        node_a = self.nodes[a] if isinstance(a, str) else a
        node_b = self.nodes[b] if isinstance(b, str) else b
        link = Link(self.sim, node_a, node_b, delay)
        self.links.append(link)
        self._invalidate()
        return link

    def _invalidate(self) -> None:
        self._graph = None
        self._path_cache.clear()

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(self.nodes)
            for link in self.links:
                (a, _), (b, _) = link._ends
                graph.add_edge(a.name, b.name, weight=link.delay, link=link)
            self._graph = graph
        return self._graph

    def shortest_path(self, src: "Node | str", dst: "Node | str") -> List[str]:
        """Delay-weighted shortest path as a list of node names."""
        src_name = src if isinstance(src, str) else src.name
        dst_name = dst if isinstance(dst, str) else dst.name
        key = (src_name, dst_name)
        if key not in self._path_cache:
            self._path_cache[key] = nx.shortest_path(
                self.graph, src_name, dst_name, weight="weight"
            )
        return self._path_cache[key]

    def path_delay(self, src: "Node | str", dst: "Node | str") -> float:
        path = self.shortest_path(src, dst)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.graph.edges[a, b]["weight"]
        return total

    def next_hop(self, src: "Node | str", dst: "Node | str") -> Node:
        """First node after ``src`` on the shortest path to ``dst``."""
        path = self.shortest_path(src, dst)
        if len(path) < 2:
            raise ValueError(f"{src} and {dst} are the same node")
        return self.nodes[path[1]]

    def neighbors(self, node: "Node | str") -> Iterable[Node]:
        name = node if isinstance(node, str) else node.name
        return (self.nodes[n] for n in self.graph.neighbors(name))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Aggregate network load: bytes carried summed over every link."""
        return sum(link.bytes_carried for link in self.links)

    @property
    def total_packets(self) -> int:
        return sum(link.packets_carried for link in self.links)

    def reset_counters(self) -> None:
        for link in self.links:
            link.bytes_carried = 0
            link.packets_carried = 0

    def for_each_node(self, fn: Callable[[Node], None]) -> None:
        for node in self.nodes.values():
            fn(node)
