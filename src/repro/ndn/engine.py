"""NDN forwarding engine: routers, hosts and static route installation.

:class:`NdnRouter` wires the FIB, PIT and Content Store behind a
single-server processing queue (the microbenchmark's router service time).
:class:`NdnHost` is the end-system library: express Interests with
callbacks and timeouts, and serve prefixes as a producer.

Route installation is static shortest-path (:func:`install_routes`),
standing in for a routing protocol like NLSR — the paper's testbed also
used manually configured FIBs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.names import Name
from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.packets import Data, Interest
from repro.ndn.pit import InterestAction, Pit
from repro.packets import Packet
from repro.sim.engine import EventHandle
from repro.sim.network import Face, Network, Node, PacketDispatcher
from repro.sim.queues import ServiceQueue
from repro.sim.routing import network_next_hops

__all__ = ["NdnRouter", "NdnHost", "install_routes"]

#: Default per-packet router processing time (ms).  Calibrated so that the
#: 6-router microbenchmark topology reproduces the paper's G-COPSS mean
#: update latency regime (a few ms end-to-end without queueing).
DEFAULT_ROUTER_SERVICE_MS = 0.05

DataHandler = Callable[[Data], None]
TimeoutHandler = Callable[[Name], None]
ProducerHandler = Callable[[Interest], Optional[Data]]


class NdnRouter(Node):
    """An NDN forwarding node.

    Every received packet passes through a FIFO processing queue with a
    deterministic per-packet service time, then is dispatched by type
    through a :class:`~repro.sim.network.PacketDispatcher`.  Interests
    take the CS -> PIT -> FIB pipeline; Data takes the PIT-reverse-path
    pipeline.  Subclasses (the G-COPSS router) *register* handlers for
    their own packet types — this is the "is a NDN pkt?" demultiplexer of
    the paper's Fig. 2, as a table instead of an ``isinstance`` ladder.
    """

    def __init__(
        self,
        network: Network,
        name: str,
        service_time: float = DEFAULT_ROUTER_SERVICE_MS,
        cs_capacity: int = 4096,
    ) -> None:
        super().__init__(network, name)
        self.fib: Fib[Face] = Fib()
        self.pit: Pit[Face] = Pit()
        self.cs = ContentStore(cs_capacity)
        self.service_time = service_time
        self.queue = ServiceQueue(self.sim, name=f"{name}.proc")
        self.dispatcher = PacketDispatcher(stats=self.stats, owner=name)
        self.dispatcher.register(Interest, self._handle_interest)
        self.dispatcher.register(Data, self._handle_data)

    # ------------------------------------------------------------------
    # Packet pipeline
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, face: Face) -> None:
        self.stats.packets_received += 1
        tracer = self.trace_hook
        if tracer is not None:
            tracer.on_enqueue(self, packet)
        self.queue.submit((packet, face), self.service_time, self._serve)

    def _serve(self, item: Tuple[Packet, Face]) -> None:
        packet, face = item
        tracer = self.trace_hook
        if tracer is not None:
            tracer.on_service(self, packet)
        self.dispatcher.dispatch(packet, face)

    def _handle_interest(self, interest: Interest, face: Face) -> None:
        cached = self.cs.match(interest.name, self.sim.now)
        if cached is not None:
            self.send(face, cached)
            return
        action = self.pit.insert(
            interest.name, face, interest.nonce, self.sim.now, interest.lifetime
        )
        if action is not InterestAction.FORWARD:
            return
        out_face = self._choose_upstream(interest.name, face)
        if out_face is None:
            self.stats.interests_dropped_no_route += 1
            return
        self.send(out_face, interest)

    def _choose_upstream(self, name: Name, arrival: Face) -> Optional[Face]:
        """Best-route strategy: one deterministic upstream, not the arrival."""
        candidates = self.fib.lookup(name)
        candidates.discard(arrival)
        if not candidates:
            return None
        return min(candidates, key=lambda f: f.face_id)

    def _handle_data(self, data: Data, face: Face) -> None:
        downstream = self.pit.satisfy(data.name, self.sim.now)
        if not downstream:
            self.stats.data_dropped_unsolicited += 1
            return
        self.cs.insert(data, self.sim.now)
        for out_face in downstream:
            if out_face is not face:
                self.send(out_face, data)

    def crash_reset(self) -> None:
        """Lose all volatile state, as a process crash would.

        Called by the fault injector at both edges of a crash window: the
        processing queue (including the packet in service), PIT and CS are
        memory and vanish; the FIB is kept — it models configured routes
        (:func:`install_routes` stands in for a routing protocol whose
        re-convergence is out of scope).  Subclasses extend this with
        their own soft state.
        """
        self.queue.flush()
        self.pit = Pit()
        self.cs = ContentStore(self.cs.capacity)


class NdnHost(Node):
    """An end system speaking NDN: consumer and/or producer.

    Consumers call :meth:`express_interest`; producers call :meth:`serve`.
    A host hangs off exactly one access router (one face), mirroring the
    testbed layout where all clients attach at edge routers.
    """

    def __init__(self, network: Network, name: str) -> None:
        super().__init__(network, name)
        self._pending: Dict[Name, List[DataHandler]] = {}
        self._timeouts: Dict[Name, List[EventHandle]] = {}
        self._producers: Fib[ProducerHandler] = Fib()
        self.dispatcher = PacketDispatcher(stats=self.stats, owner=name)
        self.dispatcher.register(Data, self._receive_data)
        self.dispatcher.register(Interest, self._receive_interest)

    @property
    def access_face(self) -> Face:
        if len(self.faces) != 1:
            raise RuntimeError(
                f"host {self.name} must have exactly one access face, has {len(self.faces)}"
            )
        return self.faces[0]

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def express_interest(
        self,
        name: "Name | str",
        on_data: DataHandler,
        lifetime: float = 4000.0,
        on_timeout: Optional[TimeoutHandler] = None,
    ) -> Interest:
        """Send an Interest; ``on_data`` fires when matching Data returns.

        If no Data arrives within ``lifetime`` ms, ``on_timeout`` (when
        given) fires once and the pending callback is discarded.
        """
        name = Name.coerce(name)
        interest = Interest(name=name, lifetime=lifetime, created_at=self.sim.now)
        self._pending.setdefault(name, []).append(on_data)
        if on_timeout is not None:
            handle = self.sim.schedule(lifetime, self._fire_timeout, name, on_data, on_timeout)
            self._timeouts.setdefault(name, []).append(handle)
        self.stats.interests_sent += 1
        self.send(self.access_face, interest)
        return interest

    def _fire_timeout(
        self, name: Name, on_data: DataHandler, on_timeout: TimeoutHandler
    ) -> None:
        callbacks = self._pending.get(name)
        if callbacks and on_data in callbacks:
            callbacks.remove(on_data)
            if not callbacks:
                del self._pending[name]
            self.stats.timeouts_fired += 1
            on_timeout(name)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def serve(self, prefix: "Name | str", handler: ProducerHandler) -> None:
        """Register a producer handler for ``prefix``.

        The handler maps an Interest to a Data packet (or None to stay
        silent).  Route installation toward this host is done separately
        via :func:`install_routes`.
        """
        self._producers.add(prefix, handler)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, face: Face) -> None:
        """Consume Data for pending Interests; answer served prefixes."""
        self.stats.packets_received += 1
        self.dispatcher.dispatch(packet, face)

    def _receive_data(self, data: Data, face: Face) -> None:
        self._consume(data)

    def _receive_interest(self, interest: Interest, face: Face) -> None:
        self._produce(interest, face)

    def _consume(self, data: Data) -> None:
        callbacks = self._pending.pop(data.name, [])
        for handle in self._timeouts.pop(data.name, []):
            handle.cancel()
        if callbacks:
            self.stats.data_received += 1
        for callback in callbacks:
            callback(data)

    def _produce(self, interest: Interest, face: Face) -> None:
        handlers = self._producers.lookup(interest.name)
        for handler in sorted(handlers, key=repr):
            data = handler(interest)
            if data is not None:
                self.send(face, data)
                return


def install_routes(
    network: Network,
    prefix: "Name | str",
    producer: "Node | str",
    routers: Optional[List[NdnRouter]] = None,
) -> None:
    """Install shortest-path FIB entries for ``prefix`` toward ``producer``.

    For every router (all :class:`NdnRouter` nodes by default), the entry
    is the router's own unicast route toward the producer, taken from the
    producer's column of :func:`~repro.sim.routing.next_hop_table` over
    the network as it is now.  Unreachable routers are skipped.
    """
    prefix = Name.coerce(prefix)
    producer_name = producer if isinstance(producer, str) else producer.name
    if routers is None:
        routers = [n for n in network.nodes.values() if isinstance(n, NdnRouter)]
    others = [router for router in routers if router.name != producer_name]
    table = network_next_hops(network, [producer_name])
    for router in others:
        router.add_routes(table.get(router.name, {}))
        face = router.routes.get(producer_name)
        if face is not None:
            router.fib.add(prefix, face)
