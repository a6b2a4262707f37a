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

from array import array
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packets import Packet
    from repro.sim.faults import FaultStats
    from repro.sim.network import Face, Network, Node

__all__ = ["TraceEvent", "EventLog", "PacketTracer", "trace_id_of", "KINDS"]

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


#: :class:`TraceEvent` fields = :class:`EventLog` columns, in order.
_COLUMNS = ("t", "trace_id", "uid", "node", "kind", "ptype", "cd", "peer", "detail")


class EventLog:
    """The recorded events as nine parallel columns, read as a sequence.

    A row is nine 8-byte slots: ``array`` columns for the numbers, and
    reference lists for values that already exist (node and peer names,
    the kind constant, the packet *class*, the payload's interned
    ``Name``), so an event allocates nothing and the garbage collector
    walks nothing.  The packet itself is never stored: packets are
    mutable, and a held one keeps its payload alive.  A
    :class:`TraceEvent` is built only when a row is read.  Readers see
    the last ``max_events`` rows; the writer trims behind them in bulk.
    """

    __slots__ = _COLUMNS + ("max_events", "limit", "_columns", "_rows_by_trace")

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.max_events = max_events  # exact for readers; ``limit`` is for the writer
        self.limit = inf if max_events is None else max_events + max_events // 4 + 16
        self.t, self.trace_id, self.uid = array("d"), array("q"), array("q")
        self.node, self.kind, self.ptype = [], [], []
        self.cd, self.peer, self.detail = [], [], []
        self._columns = tuple(getattr(self, name) for name in _COLUMNS)
        self._rows_by_trace: Tuple[int, Dict[int, List[int]]] = (0, {})

    def trim(self) -> None:
        """Drop the rows that have fallen behind the ring."""
        excess = self.first_row()
        for column in self._columns:
            del column[:excess]
        self._rows_by_trace = (0, {})

    def first_row(self) -> int:
        """Index of the oldest row still inside the ring."""
        bound = self.max_events
        return 0 if bound is None else max(0, len(self.t) - bound)

    def append(self, event: TraceEvent) -> None:
        """Store an already-built event (a re-read log, a test fixture)."""
        for column, name in zip(self._columns, _COLUMNS):
            column.append(getattr(event, name))
        if len(self.t) > self.limit:
            self.trim()

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.append(event)

    def row(self, i: int) -> TraceEvent:
        """Row ``i`` of the columns as an event; names are rendered here."""
        t, trace_id, uid, node, kind, ptype, cd, peer, detail = (
            column[i] for column in self._columns
        )
        if ptype.__class__ is not str:
            ptype = ptype.__name__
        cd = "" if cd is None else str(cd)
        return TraceEvent(t, trace_id, uid, node, kind, ptype, cd, peer, str(detail))

    def __len__(self) -> int:
        return len(self.t) - self.first_row()

    def __getitem__(self, index: int) -> TraceEvent:
        return self.row(range(self.first_row(), len(self.t))[index])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self.row, range(self.first_row(), len(self.t)))

    def rows_of(self, trace_id: int) -> List[int]:
        """Rows of one trace, from an index built on the first query."""
        rows, index = self._rows_by_trace
        if rows != len(self.t):  # appended to since it was built
            index = {}
            first = self.first_row()
            for i, tid in enumerate(self.trace_id[first:], first):
                index.setdefault(tid, []).append(i)
            self._rows_by_trace = len(self.t), index
        return index.get(trace_id, [])


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
        self.events = EventLog(max_events)
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
        payload = getattr(packet, "payload", None)
        inner = payload if getattr(payload, "uid", None) is not None else packet
        tid = inner.uid  # == trace_id_of(packet)
        if tid % self.sample_every:
            return
        cd = getattr(inner, "cd", None)
        log = self.events
        log.t.append(sim_now)
        log.trace_id.append(tid)
        log.uid.append(packet.uid)
        log.node.append(node)
        log.kind.append(kind)
        log.ptype.append(type(packet))
        log.cd.append(cd if cd is not None else getattr(inner, "name", None))
        log.peer.append(peer)
        log.detail.append(detail)
        if len(log.t) > log.limit:
            log.trim()

    def on_forward(self, face: "Face", packet: "Packet", delay: float) -> None:
        """A packet left ``face.node`` toward ``face.peer`` (Face.send)."""
        self._emit(
            face.node.sim.now, packet, face.node.name, "forward", peer=face.peer.name
        )

    def on_fault_drop(self, face: "Face", packet: "Packet") -> None:
        """The fault hook vetoed this egress; reason from the injector."""
        stats = self._fault_stats
        reason = stats.last_drop_reason if stats is not None else ""
        self._emit(
            face.node.sim.now,
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
        self._emit(node.sim.now, packet, node.name, "decap", detail=serving)

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
        log = self.events
        return sorted(set(log.trace_id[log.first_row() :]))

    def events_for(self, trace_id: int) -> List[TraceEvent]:
        """All events of one trace, in recording (= causal time) order."""
        return list(map(self.events.row, self.events.rows_of(trace_id)))

    def drop_summary(self) -> Dict[str, int]:
        """Drop reason -> count over every recorded drop event."""
        log = self.events
        first = log.first_row()
        return _count_drops(zip(log.kind[first:], log.detail[first:]))

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
    return _count_drops((event.kind, event.detail) for event in events)


def _count_drops(kinds_and_details: Iterable[Tuple[str, object]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for kind, detail in kinds_and_details:
        if kind in ("drop", "fault_drop"):
            reason = str(detail) or kind
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
