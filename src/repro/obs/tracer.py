"""Causal packet tracer: per-hop span events keyed by a stable trace id.

Every :class:`~repro.packets.Packet` already carries a process-unique
``uid``.  The trace id of a packet is the uid of the *innermost* payload:
a ``/rp/<RP>`` tunnel Interest carrying a multicast traces under the
multicast's uid, so one id follows an update from the publisher's access
link, through encapsulation toward the RP, decapsulation, down-tree
replication, and delivery (or a drop, with its reason).

Hook points (all single-slot, ``None`` by default):

* ``Link.trace_hook`` — :meth:`Face.send` reports every forward and every
  fault-injected egress drop;
* ``Node.trace_hook`` — routers report enqueue (``receive``) and service
  start (``_serve``); the forwarding plane reports decapsulation and
  protocol drops (no-RP, duplicate); hosts report publish, delivery and
  local suppression (own-echo, duplicate).

The tracer never mutates packets, nodes or the schedule: with it
installed, forwarding is bit-identical to an untraced run.  Sampling is
deterministic — ``sample_every=k`` traces exactly the packets whose trace
id is divisible by ``k`` — so two runs of the same workload record the
same events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packets import Packet
    from repro.sim.faults import FaultStats
    from repro.sim.network import Face, Network, Node

__all__ = ["TraceEvent", "PacketTracer", "trace_id_of", "KINDS"]

#: Span-event kinds, in roughly the order a packet meets them.
KINDS = (
    "publish",
    "forward",
    "enqueue",
    "service",
    "decap",
    "deliver",
    "drop",
    "fault_drop",
)


def trace_id_of(packet: "Packet") -> int:
    """The causal trace id: the innermost payload's uid.

    An ``/rp/<RP>`` tunnel Interest gets a fresh uid per encapsulation;
    tracing under the carried multicast's uid instead keeps the whole
    publisher-to-subscriber journey on one id.
    """
    payload = getattr(packet, "payload", None)
    uid = getattr(payload, "uid", None)
    return uid if uid is not None else packet.uid


def _cd_of(packet: "Packet") -> str:
    payload = getattr(packet, "payload", None)
    inner = payload if getattr(payload, "uid", None) is not None else packet
    cd = getattr(inner, "cd", None)
    if cd is not None:
        return str(cd)
    name = getattr(inner, "name", None)
    return str(name) if name is not None else ""


@dataclass(frozen=True)
class TraceEvent:
    """One hop-level observation of a traced packet."""

    t: float          # sim time, ms
    trace_id: int     # innermost payload uid (stable across encap/decap)
    uid: int          # uid of the carrier packet at this hop
    node: str         # where it happened
    kind: str         # one of KINDS
    ptype: str        # carrier packet class name
    cd: str           # content descriptor (or NDN name) of the payload
    peer: str = ""    # forward: the receiving node
    detail: str = ""  # drop reason / decap serving prefix

    def as_dict(self) -> dict:
        """JSONL row; empty ``peer``/``detail`` are omitted."""
        row = {
            "t": self.t,
            "trace_id": self.trace_id,
            "uid": self.uid,
            "node": self.node,
            "kind": self.kind,
            "ptype": self.ptype,
            "cd": self.cd,
        }
        if self.peer:
            row["peer"] = self.peer
        if self.detail:
            row["detail"] = self.detail
        return row


class PacketTracer:
    """Records :class:`TraceEvent` rows from the fabric's trace hooks.

    ``sample_every=1`` traces everything; ``k > 1`` deterministically
    samples trace ids divisible by ``k``.  ``max_events`` bounds memory
    with a ring buffer (oldest events evicted first).
    """

    def __init__(self, sample_every: int = 1, max_events: Optional[int] = None) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        self._links: List[object] = []
        self._nodes: List["Node"] = []
        self._fault_stats: Optional["FaultStats"] = None
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(
        self, network: "Network", fault_stats: Optional["FaultStats"] = None
    ) -> "PacketTracer":
        """Occupy every ``trace_hook`` slot in ``network``.

        ``fault_stats`` (the armed injector's) lets egress drops carry
        the injector's reason ("random", "burst", "down", "node_down")
        instead of a generic "fault".
        """
        if self._installed:
            return self
        self._installed = True
        self._fault_stats = fault_stats
        for link in network.links:
            if link.trace_hook is not None:
                raise RuntimeError(f"link {link.name} already has a trace hook")
            link.trace_hook = self
            self._links.append(link)
        for node in network.nodes.values():
            if node.trace_hook is not None:
                raise RuntimeError(f"node {node.name} already has a trace hook")
            node.trace_hook = self
            self._nodes.append(node)
        return self

    def uninstall(self) -> None:
        """Release only the slots this tracer set (recorded events stay)."""
        for link in self._links:
            link.trace_hook = None
        self._links.clear()
        for node in self._nodes:
            node.trace_hook = None
        self._nodes.clear()
        self._fault_stats = None
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    # ------------------------------------------------------------------
    # Emit paths (called from the fabric hook sites)
    # ------------------------------------------------------------------
    def _emit(
        self,
        sim_now: float,
        packet: "Packet",
        node: str,
        kind: str,
        peer: str = "",
        detail: str = "",
    ) -> None:
        tid = trace_id_of(packet)
        if tid % self.sample_every:
            return
        self.events.append(
            TraceEvent(
                t=sim_now,
                trace_id=tid,
                uid=packet.uid,
                node=node,
                kind=kind,
                ptype=type(packet).__name__,
                cd=_cd_of(packet),
                peer=peer,
                detail=detail,
            )
        )

    def on_forward(self, face: "Face", packet: "Packet", delay: float) -> None:
        """A packet left ``face.node`` toward ``face.peer`` (Face.send)."""
        self._emit(
            face.link.sim.now, packet, face.node.name, "forward", peer=face.peer.name
        )

    def on_fault_drop(self, face: "Face", packet: "Packet") -> None:
        """The fault hook vetoed this egress; reason from the injector."""
        stats = self._fault_stats
        reason = stats.last_drop_reason if stats is not None else ""
        self._emit(
            face.link.sim.now,
            packet,
            face.node.name,
            "fault_drop",
            peer=face.peer.name,
            detail=reason or "fault",
        )

    def on_enqueue(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node.name, "enqueue")

    def on_service(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node.name, "service")

    def on_decap(self, node: "Node", packet: "Packet", serving) -> None:
        self._emit(node.sim.now, packet, node.name, "decap", detail=str(serving))

    def on_drop(self, node: "Node", packet: "Packet", reason: str) -> None:
        self._emit(node.sim.now, packet, node.name, "drop", detail=reason)

    def on_publish(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node.name, "publish")

    def on_deliver(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node.name, "deliver")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def trace_ids(self) -> List[int]:
        return sorted({event.trace_id for event in self.events})

    def events_for(self, trace_id: int) -> List[TraceEvent]:
        """All events of one trace, in recording (= causal time) order."""
        return [event for event in self.events if event.trace_id == trace_id]

    def drop_summary(self) -> Dict[str, int]:
        """Drop reason -> count over every recorded drop event."""
        return summarize_drops(self.events)

    def hop_chain(self, trace_id: int, receiver: Optional[str] = None) -> List[TraceEvent]:
        """The per-hop story of one trace id.

        Without ``receiver``: every event of the trace (the full
        replication tree).  With ``receiver``: only the publisher-to-
        ``receiver`` branch — forward events are walked backward from the
        receiver through each hop's upstream, then the node-local events
        along that path are kept.
        """
        events = self.events_for(trace_id)
        if receiver is None:
            return events
        return chain_to(events, receiver)


def chain_to(events: Iterable[TraceEvent], receiver: str) -> List[TraceEvent]:
    """Filter one trace's events down to the branch that reaches ``receiver``.

    Works on any event iterable (live tracer or re-read JSONL).  The
    walk uses the *earliest* forward into each node, which is the branch
    that actually drove the first delivery; a multicast visits each node
    of its tree once per uid (the dedup window enforces this), so the
    upstream map is well-defined.

    If nothing ever reached ``receiver`` — the packet died en route, the
    very case a missed-delivery diagnosis cares about — the branch filter
    would erase the story, so the full trace (fault/protocol drops
    included) is returned instead.
    """
    events = list(events)
    upstream: Dict[str, str] = {}
    for event in events:
        if event.kind == "forward" and event.peer not in upstream:
            upstream[event.peer] = event.node
    path_nodes = [receiver]
    seen = {receiver}
    node = receiver
    while node in upstream:
        node = upstream[node]
        if node in seen:  # defensive: a cyclic forward would loop forever
            break
        seen.add(node)
        path_nodes.append(node)
    path = set(path_nodes)
    chain = [
        event
        for event in events
        if event.node in path
        and (event.kind != "forward" or event.peer in path)
    ]
    return chain if chain else events


def summarize_drops(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Drop reason -> count for every drop/fault_drop event."""
    out: Dict[str, int] = {}
    for event in events:
        if event.kind in ("drop", "fault_drop"):
            reason = event.detail or event.kind
            out[reason] = out.get(reason, 0) + 1
    return dict(sorted(out.items()))


def render_chain(events: Iterable[TraceEvent]) -> List[str]:
    """Human-readable one-line-per-event rendering of a hop chain."""
    lines = []
    for event in events:
        arrow = f" -> {event.peer}" if event.peer else ""
        detail = f" [{event.detail}]" if event.detail else ""
        lines.append(
            f"{event.t:10.3f}ms  {event.node:>8}{arrow:<12} "
            f"{event.kind:<10} {event.ptype:<16} {event.cd}{detail}"
        )
    return lines
