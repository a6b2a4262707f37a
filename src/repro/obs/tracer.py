"""Causal packet tracer: per-hop span events keyed by a stable trace id.

Every :class:`~repro.packets.Packet` already carries a process-unique
``uid``.  The trace id of a packet is the uid of the *innermost* payload:
a ``/rp/<RP>`` tunnel Interest carrying a multicast traces under the
multicast's uid, so one id follows an update from the publisher's access
link, through encapsulation toward the RP, decapsulation, down-tree
replication, and delivery (or a drop, with its reason).

Hook points (all single-slot, ``None`` by default):

* ``Link.trace_hook`` — :meth:`Face.send` reports every forward and every
  fault-injected egress drop, and :func:`~repro.sim.network.send_all`
  each forward of a burst;
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
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import inf
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.sim.network import Face

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packets import Packet
    from repro.sim.faults import FaultStats
    from repro.sim.network import Network, Node

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
# Every symbol table starts with the kinds, so their codes are constants.
_PUBLISH, _FORWARD, _ENQUEUE, _SERVICE, _DECAP, _DELIVER, _DROP, _FAULT_DROP = range(8)
#: Code of the blank that an absent CD, peer or detail reads as.
_BLANK = len(KINDS)


def trace_id_of(packet: "Packet") -> int:
    """The causal trace id: the innermost payload's uid.

    An ``/rp/<RP>`` tunnel Interest gets a fresh uid per encapsulation;
    tracing under the carried multicast's uid instead keeps the whole
    publisher-to-subscriber journey on one id.
    """
    payload = getattr(packet, "payload", None)
    uid = getattr(payload, "uid", None)
    return uid if uid is not None else packet.uid


@dataclass(frozen=True, slots=True)
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
#: The columns that hold symbol codes wider than a kind's.
_CODED = ("node", "ptype", "cd", "peer", "detail")


class EventLog:
    """The recorded events as nine parallel columns, read as a sequence.

    A row is 35 bytes of packed arrays: ``t``, ``trace_id`` and ``uid``
    as numbers, and every other field as a code into the log's one
    symbol table — ``codes`` maps a recorded object (a node name, the
    packet *class*, the payload's interned ``Name``, a drop reason) to
    its code, ``text`` maps the code to the string a row reads.  The
    kinds hold codes 0-7 in a one-byte column; the other five columns
    are two-byte and widen to four the first time the table passes
    65,535 symbols.  A symbol is rendered once, when first recorded, so
    an event allocates nothing and the garbage collector walks nothing;
    the packet itself is never stored (packets are mutable, and a held
    one keeps its payload alive).  ``None`` reads as the blank.  A
    :class:`TraceEvent` is built only when a row is read; a slice reads
    a list of them.  Readers see the last ``max_events`` rows; the
    writer trims behind them in bulk, and the symbol table keeps every
    symbol it was ever given.
    """

    __slots__ = _COLUMNS + ("codes", "text", "max_events", "limit", "_rows_by_trace")

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.max_events = max_events  # exact for readers; ``limit`` is for the writer
        self.limit = inf if max_events is None else max_events + max_events // 4 + 16
        self.t, self.trace_id, self.uid = array("d"), array("Q"), array("Q")
        self.kind = array("B")
        self.node, self.ptype, self.cd = array("H"), array("H"), array("H")
        self.peer, self.detail = array("H"), array("H")
        self.codes: Dict[object, int] = {kind: code for code, kind in enumerate(KINDS)}
        self.codes[None] = self.codes[""] = _BLANK
        self.text: List[str] = [*KINDS, ""]
        self._rows_by_trace: Tuple[int, Dict[int, List[int]]] = (0, {})

    def code(self, symbol: object) -> int:
        """The code of ``symbol``, assigned and rendered on first sight."""
        code = self.codes.get(symbol)
        if code is None:
            code = self.codes[symbol] = len(self.text)
            self.text.append(symbol.__name__ if isinstance(symbol, type) else str(symbol))
            if code == 0x10000:  # past what two bytes hold
                for name in _CODED:
                    setattr(self, name, array("I", getattr(self, name)))
        return code

    def trim(self) -> None:
        """Drop the rows that have fallen behind the ring."""
        excess = self.first_row()
        for name in _COLUMNS:
            del getattr(self, name)[:excess]
        self._rows_by_trace = (0, {})

    def first_row(self) -> int:
        """Index of the oldest row still inside the ring."""
        bound = self.max_events
        return 0 if bound is None else max(0, len(self.t) - bound)

    def append(self, event: TraceEvent) -> None:
        """Store an already-built event (a re-read log, a test fixture)."""
        if event.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {event.kind!r}")
        code = self.code
        codes = [code(getattr(event, name)) for name in _CODED]
        self.t.append(event.t)
        self.trace_id.append(event.trace_id)
        self.uid.append(event.uid)
        self.kind.append(self.codes[event.kind])
        for name, value in zip(_CODED, codes):
            getattr(self, name).append(value)
        if len(self.t) > self.limit:
            self.trim()

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.append(event)

    def row(self, i: int) -> TraceEvent:
        """Row ``i`` of the columns as an event."""
        text = self.text
        return TraceEvent(
            self.t[i],
            self.trace_id[i],
            self.uid[i],
            text[self.node[i]],
            text[self.kind[i]],
            text[self.ptype[i]],
            text[self.cd[i]],
            text[self.peer[i]],
            text[self.detail[i]],
        )

    def __len__(self) -> int:
        return len(self.t) - self.first_row()

    def __getitem__(self, index):
        picked = range(self.first_row(), len(self.t))[index]
        return list(map(self.row, picked)) if isinstance(index, slice) else self.row(picked)

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

    def trace_ids_of(self, kind: str) -> Set[int]:
        """The trace ids with at least one ``kind`` row inside the ring."""
        first = self.first_row()
        is_kind = KINDS.index(kind).__eq__
        return set(compress(self.trace_id[first:], map(is_kind, self.kind[first:])))


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
        # Node -> (its name's code, blank); Face -> (its two ends' codes).
        # Resolved on first use: a hook may fire on an uninstalled tracer.
        self._ends: Dict["Node | Face", Tuple[int, int]] = {}
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

    # ------------------------------------------------------------------
    # Emit paths (called from the fabric hook sites)
    # ------------------------------------------------------------------
    def _ends_of(self, where: "Node | Face") -> Tuple[int, int]:
        """Codes of the node a row is at and of the peer a forward left for."""
        code = self.events.code
        if isinstance(where, Face):
            ends = (code(where.node.name), code(where.peer.name))
        else:
            ends = (code(where.name), _BLANK)
        self._ends[where] = ends
        return ends

    def _emit(
        self,
        sim_now: float,
        packet: "Packet",
        where: "Node | Face",
        kind: int,
        detail: int = _BLANK,
    ) -> None:
        """Append one row at ``where``; ``kind`` and ``detail`` are codes."""
        payload = getattr(packet, "payload", None)
        inner = payload if getattr(payload, "uid", None) is not None else packet
        tid = inner.uid  # == trace_id_of(packet)
        if tid % self.sample_every:
            return
        cd = getattr(inner, "cd", None)
        if cd is None:
            cd = getattr(inner, "name", None)
        log = self.events
        codes = log.codes
        try:
            node, peer = self._ends[where]
            ptype = codes[type(packet)]
            cd = codes[cd]
        except KeyError:
            node, peer = self._ends_of(where)
            ptype = log.code(type(packet))
            cd = log.code(cd)
        log.t.append(sim_now)
        log.trace_id.append(tid)
        log.uid.append(packet.uid)
        log.node.append(node)
        log.kind.append(kind)
        log.ptype.append(ptype)
        log.cd.append(cd)
        log.peer.append(peer)
        log.detail.append(detail)
        if len(log.t) > log.limit:
            log.trim()

    def on_forward(self, face: "Face", packet: "Packet", delay: float) -> None:
        """A packet left ``face.node`` toward ``face.peer`` (Face.send)."""
        self._emit(face.node.sim.now, packet, face, _FORWARD)

    def on_fault_drop(self, face: "Face", packet: "Packet") -> None:
        """The fault hook vetoed this egress; reason from the injector."""
        stats = self._fault_stats
        reason = stats.last_drop_reason if stats is not None else ""
        detail = self.events.code(reason or "fault")
        self._emit(face.node.sim.now, packet, face, _FAULT_DROP, detail)

    def on_enqueue(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node, _ENQUEUE)

    def on_service(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node, _SERVICE)

    def on_decap(self, node: "Node", packet: "Packet", serving) -> None:
        self._emit(node.sim.now, packet, node, _DECAP, self.events.code(serving))

    def on_drop(self, node: "Node", packet: "Packet", reason: str) -> None:
        self._emit(node.sim.now, packet, node, _DROP, self.events.code(reason))

    def on_publish(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node, _PUBLISH)

    def on_deliver(self, node: "Node", packet: "Packet") -> None:
        self._emit(node.sim.now, packet, node, _DELIVER)

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
        text = log.text
        pairs = Counter(zip(log.kind[first:], log.detail[first:]))
        return _count_drops(
            ((text[kind], text[detail]), count) for (kind, detail), count in pairs.items()
        )

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
    return _count_drops(Counter((event.kind, event.detail) for event in events).items())


def _count_drops(counted: Iterable[Tuple[Tuple[str, str], int]]) -> Dict[str, int]:
    """Reason -> count from ``((kind, detail), count)`` pairs."""
    out: Dict[str, int] = {}
    for (kind, detail), count in counted:
        if kind in ("drop", "fault_drop"):
            reason = detail or kind
            out[reason] = out.get(reason, 0) + count
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
