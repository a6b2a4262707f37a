"""IP client/server gaming baseline (paper §V-A "a server-based solution").

Players send every update to a game server as a unicast datagram; the
server decides who must see it (visibility over the shared hierarchical
map) and unicasts a copy to each such player.  "All the machines use an
application-level forwarding engine ... forwarding packets based on the
destination address."

The server is the bottleneck the paper measures: its per-update service
time covers game bookkeeping (location translation, collision detection)
plus a per-recipient send cost, so service time grows with the player
population — the cause of the Fig. 6a hockey stick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.names import Name
from repro.packets import Packet
from repro.sim.network import Face, Network, Node, PacketDispatcher
from repro.sim.queues import ServiceQueue
from repro.sim.routing import network_next_hops

__all__ = [
    "DatagramPacket",
    "IpRouter",
    "GameServerNode",
    "IpClientNode",
    "install_ip_routes",
    "UDP_HEADER_BYTES",
    "DEFAULT_IP_SERVICE_MS",
    "DEFAULT_SERVER_BASE_MS",
    "DEFAULT_SERVER_PER_RECIPIENT_MS",
]

#: IP + UDP header overhead per datagram.
UDP_HEADER_BYTES = 28

#: Per-packet forwarding time of a plain IP router.  The paper notes "IP
#: routers are much more efficient than the G-COPSS routers".
DEFAULT_IP_SERVICE_MS = 0.02

#: Fixed per-update server work (location translation, collision
#: detection, deciding the recipient set).
DEFAULT_SERVER_BASE_MS = 2.0

#: Additional server work per unicast recipient.  With the 414-player
#: trace (~25 recipients per update on average) total service lands near
#: the paper's ~6 ms server processing time.
DEFAULT_SERVER_PER_RECIPIENT_MS = 0.16


@dataclass
class DatagramPacket(Packet):
    """A unicast datagram: src/dst addresses plus a game payload.

    ``cd`` rides along as application payload so the server can compute
    visibility; it does not affect forwarding.
    """

    src: str = ""
    dst: str = ""
    payload_size: int = 0
    cd: Name = field(default_factory=Name)
    sequence: int = -1

    def __post_init__(self) -> None:
        self.cd = Name.coerce(self.cd)
        if not self.dst:
            raise ValueError("datagram needs a destination")
        if self.size == 0:
            self.size = UDP_HEADER_BYTES + self.payload_size
        super().__post_init__()


class IpRouter(Node):
    """Destination-address forwarding with a FIFO processing queue.

    Forwards from its own table (:attr:`routes`, installed by
    :func:`install_ip_routes`); a destination it has no route to is
    counted in ``stats.dropped_no_route``.
    """

    def __init__(
        self,
        network: Network,
        name: str,
        service_time: float = DEFAULT_IP_SERVICE_MS,
    ) -> None:
        super().__init__(network, name)
        self.service_time = service_time
        self.queue = ServiceQueue(self.sim, name=f"{name}.proc")
        self.dispatcher = PacketDispatcher(stats=self.stats, owner=name)
        self.dispatcher.register(DatagramPacket, self._forward_datagram)

    def receive(self, packet: Packet, face: Face) -> None:
        self.stats.packets_received += 1
        self.queue.submit(packet, self.service_time, self._forward)

    def _forward(self, packet: Packet) -> None:
        # Forwarding runs post-queue; the arrival face plays no role in
        # destination-address routing.
        self.dispatcher.dispatch(packet, None)

    def _forward_datagram(self, packet: DatagramPacket, face: Optional[Face]) -> None:
        if packet.dst == self.name:
            return  # routers are never datagram endpoints; swallow quietly
        out = self.routes.get(packet.dst)
        if out is None:
            self.stats.dropped_no_route += 1
            return
        self.send(out, packet)


def install_ip_routes(network: Network) -> None:
    """Give every :class:`IpRouter` its unicast table toward every node.

    Build time, once the last node is attached: the forwarding table a
    real IP router has, one row of
    :func:`~repro.sim.routing.next_hop_table`.
    """
    table = network_next_hops(network, list(network.nodes))
    for node in network.nodes.values():
        if isinstance(node, IpRouter):
            node.add_routes(table.get(node.name, {}))


class GameServerNode(Node):
    """A game server: receives updates, unicasts them to the viewers.

    ``subscribers_of`` maps a CD to the player names that must receive
    updates published under it; the experiment harness keeps it in sync
    with player positions (in a real deployment this is the server's
    player-management state).  Per-update service time is
    ``base + per_recipient * len(recipients)``.
    """

    def __init__(
        self,
        network: Network,
        name: str,
        base_service_ms: float = DEFAULT_SERVER_BASE_MS,
        per_recipient_ms: float = DEFAULT_SERVER_PER_RECIPIENT_MS,
    ) -> None:
        super().__init__(network, name)
        self.base_service_ms = base_service_ms
        self.per_recipient_ms = per_recipient_ms
        self.queue = ServiceQueue(self.sim, name=f"{name}.proc")
        self._subscribers: Dict[Name, Set[str]] = {}
        # Dispatch runs at receive time (pre-queue): the service time of
        # an update depends on its recipient fan-out, so the handler must
        # compute recipients before the queue submission.
        self.dispatcher = PacketDispatcher(stats=self.stats, owner=name)
        self.dispatcher.register(DatagramPacket, self._enqueue_update)

    # ------------------------------------------------------------------
    # Visibility management
    # ------------------------------------------------------------------
    def set_subscribers(self, cd: "Name | str", players: Iterable[str]) -> None:
        self._subscribers[Name.coerce(cd)] = set(players)

    def recipients_for(self, cd: Name, exclude: str) -> List[str]:
        names = self._subscribers.get(cd, set())
        return sorted(n for n in names if n != exclude)

    # ------------------------------------------------------------------
    # Update pipeline
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, face: Face) -> None:
        """Queue an incoming update; service time scales with fan-out."""
        self.stats.packets_received += 1
        self.dispatcher.dispatch(packet, face)

    def _enqueue_update(self, packet: DatagramPacket, face: Face) -> None:
        recipients = self.recipients_for(packet.cd, exclude=packet.src)
        service = self.base_service_ms + self.per_recipient_ms * len(recipients)
        self.queue.submit((packet, recipients), service, self._disseminate)

    def _disseminate(self, item: Tuple[DatagramPacket, List[str]]) -> None:
        packet, recipients = item
        self.stats.updates_handled += 1
        out_face = next(iter(self.faces.values()))
        for player in recipients:
            copy = DatagramPacket(
                src=self.name,
                dst=player,
                payload_size=packet.payload_size,
                cd=packet.cd,
                sequence=packet.sequence,
                created_at=packet.created_at,
            )
            self.stats.fanout_sent += 1
            self.send(out_face, copy)


class IpClientNode(Node):
    """A player endpoint in the client/server architecture.

    ``server_for_cd`` (CD -> server name) is assigned once the servers
    are placed; until then :meth:`publish` refuses.
    """

    def __init__(self, network: Network, name: str) -> None:
        super().__init__(network, name)
        self.server_for_cd: Optional[Callable[[Name], str]] = None
        self.on_update: List[Callable[["IpClientNode", DatagramPacket], None]] = []
        # Lenient: a client silently ignores stray non-datagram traffic
        # (counted in stats.unknown_packets, never raised).
        self.dispatcher = PacketDispatcher(stats=self.stats, owner=name, strict=False)
        self.dispatcher.register(DatagramPacket, self._handle_update)

    @property
    def access_face(self) -> Face:
        if len(self.faces) != 1:
            raise RuntimeError(f"client {self.name} must have exactly one access face")
        return self.faces[0]

    def publish(
        self,
        cd: "Name | str",
        payload_size: int,
        sequence: int = -1,
    ) -> DatagramPacket:
        """Send one update to the server responsible for ``cd``."""
        if self.server_for_cd is None:
            raise RuntimeError(f"client {self.name} has no server mapping")
        cd = Name.coerce(cd)
        packet = DatagramPacket(
            src=self.name,
            dst=self.server_for_cd(cd),
            payload_size=payload_size,
            cd=cd,
            sequence=sequence,
            created_at=self.sim.now,
        )
        self.stats.published += 1
        self.send(self.access_face, packet)
        return packet

    def receive(self, packet: Packet, face: Face) -> None:
        """Deliver a server fan-out datagram to the update callbacks."""
        self.stats.packets_received += 1
        self.dispatcher.dispatch(packet, face)

    def _handle_update(self, packet: DatagramPacket, face: Face) -> None:
        self.stats.updates_received += 1
        for callback in self.on_update:
            callback(self, packet)
