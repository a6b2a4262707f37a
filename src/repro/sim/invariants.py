"""Runtime invariant monitor: protocol safety and liveness over trace hooks.

The chaos harness (PR 3) checked its delivery invariant with bookkeeping
hand-rolled for one workload, and its "what counts as recovered" window
was a plan-name lookup.  This module generalises both halves into a
reusable monitor that any experiment can install:

**Safety** — checked online, at the instant a host-level trace event
fires:

* *at-most-once delivery*: no host sees the same logical update (the
  packet's trace id — the innermost payload uid) twice;
* *no phantom deliveries*: a host only receives updates for CDs covered
  by a subscription it actually held at some point while the packet was
  in flight (the interval from ``created_at`` to the delivery instant —
  a delivery racing a move is legitimate, a delivery to a host that
  never subscribed is the data plane leaking);
* *no orphaned ST entries*: at verdict time, a router's subscription
  table holds no host-facing entry for a CD the host dropped longer ago
  than the soft-state TTL plus two sweep periods (checked by
  :meth:`InvariantMonitor.check_subscription_tables`);
* *single RP ownership + region coverage*: at verdict time, no two
  routers serve nesting prefixes (the PR-8 dual-ownership bug class) and
  every workload CD family still resolves to an owner, directly or via a
  bounded relay chain (checked by
  :meth:`InvariantMonitor.check_ownership`).

**Liveness** — computed at verdict time from the ground-truth
:class:`SubscriptionLedger` the experiment maintains:

* *zero permanent delivery loss* after the per-(scenario, plan) recovery
  margin: every update published after ``check_after_ms`` reaches every
  stable subscribed host;
* *recovery time*: the publish time of the last missed delivery, minus
  the instant the plan's data blackout cleared;
* *bounded re-Subscribe churn*: the summed refresh counter stays under a
  declared budget (checked by the caller via :func:`refresh_budget`).

The monitor implements the same hook protocol as
:class:`~repro.obs.tracer.PacketTracer` but occupies only **node** slots
(its checks are entirely host/router-local).  When a slot is already
held — a chaos run recording telemetry — the monitor chains behind the
incumbent through a :class:`_TeeHook`, and :meth:`uninstall` restores
the incumbent.  Like the tracer, the monitor never mutates packets,
nodes or the schedule: a monitored run is bit-identical to an
unmonitored one, which ``test_cell_smoke_and_monitor_parity`` in
``tests/test_scenarios.py`` asserts end-to-end.  Uninstalled, the fabric
pays the usual single ``None`` check per hook site — the monitor is
nil-cost when disabled.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.names import Name
from repro.obs.tracer import trace_id_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packets import Packet
    from repro.sim.network import Network, Node

__all__ = [
    "SubscriptionLedger",
    "Violation",
    "InvariantMonitor",
    "InvariantVerdict",
    "covered",
    "expected_deliveries",
    "refresh_budget",
]


def covered(cd: Name, subscriptions: Iterable[Name]) -> bool:
    """Does any held subscription entitle the holder to updates under ``cd``?

    COPSS ST matching is hierarchical: a subscription to a CD receives
    publications to it and to anything beneath it.
    """
    return any(sub == cd or sub.is_prefix_of(cd) for sub in subscriptions)


class SubscriptionLedger:
    """Ground truth of who was subscribed to what, when.

    Experiments append an *epoch* — ``(time, subscription set, online)``
    — every time they change a host's subscriptions or connectivity; the
    monitor reads the epochs back to judge deliveries.  Epochs must be
    appended in non-decreasing time order per host (the natural order,
    since the experiment appends from inside scheduled callbacks).
    """

    def __init__(self) -> None:
        self._epochs: Dict[str, List[Tuple[float, FrozenSet[Name], bool]]] = {}

    def hosts(self) -> List[str]:
        return sorted(self._epochs)

    def note(
        self, host: str, t: float, cds: Iterable["Name | str"], online: bool = True
    ) -> None:
        """Record that ``host``'s subscription set became ``cds`` at ``t``."""
        epochs = self._epochs.setdefault(host, [])
        if epochs and t < epochs[-1][0]:
            raise ValueError(
                f"ledger epochs for {host} must be time-ordered: "
                f"{t} < {epochs[-1][0]}"
            )
        epochs.append((t, frozenset(Name.coerce(cd) for cd in cds), online))

    def note_offline(self, host: str, t: float) -> None:
        """The host went dark: no subscriptions, not reachable."""
        self.note(host, t, (), online=False)

    def epochs_overlapping(
        self, host: str, start: float, end: float
    ) -> List[Tuple[float, FrozenSet[Name], bool]]:
        """Epochs whose active interval intersects ``[start, end]``."""
        epochs = self._epochs.get(host, [])
        if not epochs:
            return []
        # Epoch i is active on [t_i, t_{i+1}); the last one runs forever.
        times = [t for t, _, _ in epochs]
        lo = max(0, bisect_right(times, start) - 1)
        hi = bisect_right(times, end)
        return epochs[lo:hi]

    def covered_in_window(self, host: str, cd: Name, start: float, end: float) -> bool:
        """Was ``cd`` covered by any epoch overlapping ``[start, end]``?"""
        return any(
            online and covered(cd, subs)
            for _, subs, online in self.epochs_overlapping(host, start, end)
        )

    def stable_through(self, host: str, cd: Name, start: float, end: float) -> bool:
        """One covering subscription held through every epoch of ``[start, end]``.

        The liveness bar only holds hosts to updates they were entitled
        to for the packet's whole (bounded) lifetime: a host that moved
        away or went offline mid-flight may legitimately miss it.

        The *same* subscription name must provide the coverage across
        the whole window: coverage stitched from different names spans a
        fresh wire Subscribe (e.g. a move from zone ``/3/5`` to region
        ``/3`` keeps ``/3/5`` publications covered, but through a brand
        new subscription), and under loss that Subscribe may be in
        flight or awaiting the next refresh retransmit — soft state
        guarantees nothing until it lands.
        """
        epochs = self.epochs_overlapping(host, start, end)
        if not epochs or epochs[0][0] > start:
            return False  # the window head predates the host's first epoch
        if not all(online for _, _, online in epochs):
            return False
        _, first_subs, _ = epochs[0]
        return any(
            all(sub in subs for _, subs, _ in epochs)
            for sub in first_subs
            if sub == cd or sub.is_prefix_of(cd)
        )

    def uncovered_since(self, host: str, cd: Name) -> Optional[float]:
        """Instant the host last stopped covering ``cd`` (None if covered).

        Returns the start time of the first epoch of the current
        trailing run of non-covering epochs — the moment an ST entry for
        ``(host, cd)`` became garbage the soft-state sweep must reap.
        For a host with no covering history, that is its first epoch.
        """
        epochs = self._epochs.get(host, [])
        if not epochs:
            return None
        since: Optional[float] = None
        for t, subs, online in epochs:
            if online and covered(cd, subs):
                since = None
            elif since is None:
                since = t
        return since


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    t: float       # sim time of detection, ms
    kind: str      # duplicate_delivery | phantom_delivery | orphaned_st | ...
    host: str      # host (or router) involved
    detail: str    # human-readable specifics

    def as_dict(self) -> dict:
        return {"t": self.t, "kind": self.kind, "host": self.host, "detail": self.detail}


@dataclass
class InvariantVerdict:
    """The monitor's judgement of one run."""

    safety_ok: bool
    liveness_ok: bool
    violations: List[Violation]
    deliveries_expected: int
    deliveries_got: int
    #: Deliveries made inside the window ``deliveries_expected`` counts, so
    #: ``deliveries_got_checked + permanent_misses == deliveries_expected``.
    deliveries_got_checked: int
    events_checked: int
    permanent_misses: int
    missed_sample: List[Tuple[int, str]]
    check_after_ms: float
    last_miss_ms: Optional[float]
    recovery_time_ms: Optional[float]

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.liveness_ok

    def as_dict(self) -> dict:
        """JSON-serialisable verdict (violations capped to a sample)."""
        kinds: Dict[str, int] = {}
        for violation in self.violations:
            kinds[violation.kind] = kinds.get(violation.kind, 0) + 1
        return {
            "ok": self.ok,
            "safety_ok": self.safety_ok,
            "liveness_ok": self.liveness_ok,
            "violation_kinds": kinds,
            "violations_sample": [v.as_dict() for v in self.violations[:20]],
            "deliveries_expected": self.deliveries_expected,
            "deliveries_got": self.deliveries_got,
            "deliveries_got_checked": self.deliveries_got_checked,
            "events_checked": self.events_checked,
            "permanent_misses": self.permanent_misses,
            "missed_sample": self.missed_sample[:50],
            "check_after_ms": self.check_after_ms,
            "last_miss_ms": self.last_miss_ms,
            "recovery_time_ms": self.recovery_time_ms,
        }


def expected_deliveries(
    ledger: SubscriptionLedger,
    publishes: Iterable[Tuple[int, float, Name, str]],
    stability_window_ms: float,
    horizon_ms: float,
    join_margin_ms: float = 0.0,
) -> List[Tuple[int, float, str]]:
    """``(sequence, publish time, receiver)`` triples a correct run delivers.

    ``publishes`` is ``(sequence, publish time, cd, publisher)``.  A host
    is expected to receive an update iff it is online and covering the
    CD through the whole window ``[publish - join_margin, publish +
    stability_window]`` (clamped to the horizon) — the pure function
    both the monitor verdict and the unmonitored harness path share, so
    a monitored and an unmonitored run derive the identical expectation
    set.

    ``join_margin_ms`` is the subscription-propagation allowance: a
    soft-state pub/sub plane guarantees nothing for a join racing a
    publish (the Subscribe may still be in flight, or lost and waiting
    on a retransmit/refresh round), so a host only *owes* the invariant
    deliveries for subscriptions that predate the publish by the
    margin.  The paper's lossless-handover claim is about established
    subscribers, and that is exactly who this selects.
    """
    out: List[Tuple[int, float, str]] = []
    hosts = ledger.hosts()
    for sequence, t_pub, cd, publisher in publishes:
        until = min(t_pub + stability_window_ms, horizon_ms)
        for host in hosts:
            if host == publisher:
                continue  # publishers suppress their own echo
            if ledger.stable_through(host, cd, t_pub - join_margin_ms, until):
                out.append((sequence, t_pub, host))
    return out


def refresh_budget(
    hosts: int, window_ms: float, refresh_interval_ms: float, churn_factor: float
) -> float:
    """Upper bound on summed re-Subscribe counters for a healthy run.

    A quiet host refreshes once per interval; routers re-propagating and
    recovery retransmissions multiply that, bounded by the scenario's
    declared ``churn_factor``.  Exceeding the budget means subscription
    state is thrashing (e.g. an expiry/refresh livelock).
    """
    if refresh_interval_ms <= 0:
        raise ValueError("refresh_interval_ms must be positive")
    rounds = max(1.0, window_ms / refresh_interval_ms)
    return churn_factor * hosts * rounds


class _TeeHook:
    """Fans one trace-hook slot out to two hooks, incumbent first.

    Only the node-side methods matter to the monitor, but all eight are
    forwarded so a tee'd tracer keeps its full event stream.
    """

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def on_forward(self, face, packet, delay) -> None:
        self.first.on_forward(face, packet, delay)
        self.second.on_forward(face, packet, delay)

    def on_fault_drop(self, face, packet) -> None:
        self.first.on_fault_drop(face, packet)
        self.second.on_fault_drop(face, packet)

    def on_enqueue(self, node, packet) -> None:
        self.first.on_enqueue(node, packet)
        self.second.on_enqueue(node, packet)

    def on_service(self, node, packet) -> None:
        self.first.on_service(node, packet)
        self.second.on_service(node, packet)

    def on_decap(self, node, packet, serving) -> None:
        self.first.on_decap(node, packet, serving)
        self.second.on_decap(node, packet, serving)

    def on_drop(self, node, packet, reason) -> None:
        self.first.on_drop(node, packet, reason)
        self.second.on_drop(node, packet, reason)

    def on_publish(self, node, packet) -> None:
        self.first.on_publish(node, packet)
        self.second.on_publish(node, packet)

    def on_deliver(self, node, packet) -> None:
        self.first.on_deliver(node, packet)
        self.second.on_deliver(node, packet)


class InvariantMonitor:
    """Checks protocol invariants live, through the node trace hooks.

    The monitor watches ``publish`` and ``deliver`` events (the other
    six hook methods are no-ops kept for protocol compatibility), checks
    the two online safety invariants at each delivery, and accumulates
    the raw material — publish records, delivery records — the verdict
    later turns into liveness numbers.
    """

    def __init__(
        self,
        ledger: Optional[SubscriptionLedger] = None,
        phantom_grace_ms: float = 0.0,
    ) -> None:
        self.ledger = ledger if ledger is not None else SubscriptionLedger()
        #: Soft-state allowance for the phantom check: an Unsubscribe
        #: lost to a fault leaves the upstream ST entry live until the
        #: TTL reaps it, and deliveries through that window are protocol
        #: residue, not a leak.  Callers set this to the same TTL+sweep
        #: bound the orphan audit uses; past it, a delivery to a
        #: non-covering host is a genuine phantom.
        self.phantom_grace_ms = phantom_grace_ms
        self.violations: List[Violation] = []
        #: (trace id, host) -> delivery count; >1 is a duplicate breach.
        self._delivered_ids: Dict[Tuple[int, str], int] = {}
        #: (sequence, host) -> delivery sim time, for sequenced updates.
        self.deliveries: Dict[Tuple[int, str], float] = {}
        #: sequence -> (publish time, cd, publisher) observed via on_publish.
        self.publishes: Dict[int, Tuple[float, Name, str]] = {}
        self.deliveries_seen = 0
        self.publishes_seen = 0
        self._nodes: List["Node"] = []
        self._previous: List[Optional[object]] = []
        self._installed = False
        self._installed_at: float = 0.0

    # ------------------------------------------------------------------
    # Installation (node slots only; chains behind an incumbent hook)
    # ------------------------------------------------------------------
    def install(self, network: "Network") -> "InvariantMonitor":
        """Occupy every node's trace slot, tee-chaining behind incumbents."""
        if self._installed:
            return self
        self._installed = True
        self._installed_at = network.sim.now
        for node in network.nodes.values():
            incumbent = node.trace_hook
            self._nodes.append(node)
            self._previous.append(incumbent)
            node.trace_hook = self if incumbent is None else _TeeHook(incumbent, self)
        return self

    def uninstall(self) -> None:
        """Restore every slot to its pre-install occupant."""
        for node, incumbent in zip(self._nodes, self._previous):
            node.trace_hook = incumbent
        self._nodes.clear()
        self._previous.clear()
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    # ------------------------------------------------------------------
    # Hook protocol
    # ------------------------------------------------------------------
    def on_publish(self, node: "Node", packet: "Packet") -> None:
        """Record a sequenced publication as liveness ground truth."""
        self.publishes_seen += 1
        sequence = getattr(packet, "sequence", -1)
        if sequence >= 0:
            self.publishes[sequence] = (
                node.sim.now,
                getattr(packet, "cd", None),
                getattr(packet, "publisher", node.name),
            )

    def on_deliver(self, node: "Node", packet: "Packet") -> None:
        """Check the two online safety invariants at a host delivery."""
        now = node.sim.now
        self.deliveries_seen += 1
        key = (trace_id_of(packet), node.name)
        count = self._delivered_ids.get(key, 0) + 1
        self._delivered_ids[key] = count
        if count > 1:
            self.violations.append(
                Violation(
                    t=now,
                    kind="duplicate_delivery",
                    host=node.name,
                    detail=f"trace {key[0]} delivered {count} times",
                )
            )
        cd = getattr(packet, "cd", None)
        if cd is not None:
            created = getattr(packet, "created_at", now)
            window_start = created - self.phantom_grace_ms
            if not self.ledger.covered_in_window(node.name, cd, window_start, now):
                self.violations.append(
                    Violation(
                        t=now,
                        kind="phantom_delivery",
                        host=node.name,
                        detail=f"update for {cd} without a covering subscription",
                    )
                )
        sequence = getattr(packet, "sequence", -1)
        if sequence >= 0:
            self.deliveries.setdefault((sequence, node.name), now)

    # The monitor has no use for the path-level events; the no-ops keep
    # it a drop-in occupant of the shared trace-hook protocol.
    def on_forward(self, face, packet, delay) -> None:
        pass

    def on_fault_drop(self, face, packet) -> None:
        pass

    def on_enqueue(self, node, packet) -> None:
        pass

    def on_service(self, node, packet) -> None:
        pass

    def on_decap(self, node, packet, serving) -> None:
        pass

    def on_drop(self, node, packet, reason) -> None:
        pass

    # ------------------------------------------------------------------
    # Verdict-time checks
    # ------------------------------------------------------------------
    def check_subscription_tables(
        self, network: "Network", now: float, grace_ms: float
    ) -> int:
        """Flag host-facing ST entries the sweep should have reaped.

        An entry ``(face -> host, cd)`` is an orphan when the host
        stopped covering ``cd`` more than ``grace_ms`` ago — one TTL for
        the entry to stop being refreshed plus sweep slack, so a healthy
        soft-state plane never trips this.  Returns the orphan count.
        """
        found = 0
        for node in network.nodes.values():
            table = getattr(node, "st", None)
            if table is None or not hasattr(table, "entries"):
                continue
            for face, cd, count in table.entries():
                peer = getattr(face, "peer", None)
                if peer is None or not hasattr(peer, "subscriptions"):
                    continue  # router-to-router aggregate state
                since = self.ledger.uncovered_since(peer.name, cd)
                if since is None:
                    continue  # host (still) covers it; entry is live
                since = max(since, self._installed_at)
                if now - since > grace_ms:
                    found += 1
                    self.violations.append(
                        Violation(
                            t=now,
                            kind="orphaned_st",
                            host=node.name,
                            detail=(
                                f"ST entry for {cd} toward {peer.name} "
                                f"(count {count}) uncovered for {now - since:.0f}ms"
                            ),
                        )
                    )
        return found

    def check_ownership(
        self,
        network: "Network",
        now: float,
        expected_cover: Iterable[Name] = (),
        max_relay_hops: int = 8,
    ) -> int:
        """The RP-ownership invariants: single owner, full coverage.

        *Single owner* — "exactly one RP owns each prefix at any
        instant": no two routers' served-prefix sets may hold nesting or
        equal prefixes (the PR-8 dual-ownership bug class: a replayed
        CdHandoff resurrecting a prefix its new RP had already
        relinquished onward).

        *Region coverage* — every prefix in ``expected_cover`` (the CD
        families the workload publishes under) must be served by some
        router, **and** every relay entry covering it must chain to a
        serving router within ``max_relay_hops``: publications arriving
        at a historical holder follow those pointers, so a stale, cyclic
        or over-long chain black-holes them even while an owner exists
        (the failure mode the relay-safety rule in
        :mod:`repro.core.federation` prevents).

        Appends ``dual_owner`` / ``coverage_gap`` / ``relay_black_hole``
        violations; returns how many were found.  A global read: call it
        at quiescent points (verdict time) or under serial execution
        only.
        """
        served: List[Tuple[Name, str]] = []
        for name in sorted(network.nodes):
            node = network.nodes[name]
            prefixes = getattr(node, "rp_prefixes", None)
            if prefixes:
                for prefix in sorted(prefixes):
                    served.append((prefix, name))
        found = 0
        for i, (prefix, owner) in enumerate(served):
            for other_prefix, other_owner in served[i + 1:]:
                if owner != other_owner and (
                    prefix.is_prefix_of(other_prefix)
                    or other_prefix.is_prefix_of(prefix)
                ):
                    found += 1
                    self.violations.append(
                        Violation(
                            t=now,
                            kind="dual_owner",
                            host=owner,
                            detail=(
                                f"{owner} serves {prefix} while "
                                f"{other_owner} serves {other_prefix}"
                            ),
                        )
                    )
        owners_by_prefix = {prefix: owner for prefix, owner in served}

        def serves(node, cd: Name) -> bool:
            role_prefixes = getattr(node, "rp_prefixes", None) or ()
            return any(p == cd or p.is_prefix_of(cd) for p in role_prefixes)

        def relay_next(node, cd: Name) -> Optional[str]:
            # Longest-prefix match over the relay map, mirroring how the
            # relay role picks an onward hop for an arriving packet.
            relinquished = getattr(node, "relinquished", None) or {}
            matches = [p for p in relinquished if p == cd or p.is_prefix_of(cd)]
            if not matches:
                return None
            return relinquished[max(matches, key=lambda p: (len(p.components), p))]

        for cd in expected_cover:
            cd = Name.coerce(cd)
            if not any(p == cd or p.is_prefix_of(cd) for p in owners_by_prefix):
                found += 1
                self.violations.append(
                    Violation(
                        t=now,
                        kind="coverage_gap",
                        host="-",
                        detail=f"no router serves {cd}",
                    )
                )
                continue
            # An owner exists — but publications arriving at a historical
            # holder follow its relay pointer, so every relay chain
            # covering the CD must reach a serving router within the hop
            # bound; a stale, cyclic or over-long chain is a black hole.
            for holder_name in sorted(network.nodes):
                holder = network.nodes[holder_name]
                if serves(holder, cd) or relay_next(holder, cd) is None:
                    continue
                onward = relay_next(holder, cd)
                hops = 0
                resolved = False
                while onward is not None and hops < max_relay_hops:
                    node = network.nodes.get(onward)
                    if node is not None and serves(node, cd):
                        resolved = True
                        break
                    onward = None if node is None else relay_next(node, cd)
                    hops += 1
                if not resolved:
                    found += 1
                    self.violations.append(
                        Violation(
                            t=now,
                            kind="relay_black_hole",
                            host=holder_name,
                            detail=(
                                f"relay chain for {cd} from {holder_name} "
                                f"reaches no owner within {max_relay_hops} hops"
                            ),
                        )
                    )
        return found

    def verdict(
        self,
        publishes: Iterable[Tuple[int, float, Name, str]],
        check_after_ms: float,
        horizon_ms: float,
        stability_window_ms: float,
        fault_clear_ms: float = 0.0,
        deliveries: Optional[Dict[Tuple[int, str], float]] = None,
        join_margin_ms: float = 0.0,
    ) -> InvariantVerdict:
        """Judge the run: safety from the live checks, liveness from here.

        ``publishes`` is the ground-truth schedule ``(sequence, time,
        cd, publisher)``; ``deliveries`` defaults to the monitor's own
        record (callers running unmonitored pass their own).  Misses are
        *checked* (counted against the invariant) only for updates
        published at or after ``check_after_ms``; all misses feed the
        recovery-time SLO.
        """
        if deliveries is None:
            deliveries = self.deliveries
        expected = expected_deliveries(
            self.ledger,
            publishes,
            stability_window_ms,
            horizon_ms,
            join_margin_ms=join_margin_ms,
        )
        expected_checked = 0
        got = 0
        missed_checked: List[Tuple[int, str]] = []
        last_miss: Optional[float] = None
        checked_sequences = set()
        for sequence, t_pub, receiver in expected:
            in_window = t_pub >= check_after_ms
            if in_window:
                expected_checked += 1
                checked_sequences.add(sequence)
            if (sequence, receiver) in deliveries:
                got += 1
                continue
            if last_miss is None or t_pub > last_miss:
                last_miss = t_pub
            if in_window:
                missed_checked.append((sequence, receiver))
        missed_checked.sort()
        recovery_time: Optional[float] = None
        if last_miss is not None:
            recovery_time = max(0.0, last_miss - fault_clear_ms)
        return InvariantVerdict(
            safety_ok=not self.violations,
            liveness_ok=not missed_checked,
            violations=list(self.violations),
            deliveries_expected=expected_checked,
            deliveries_got=got,
            deliveries_got_checked=expected_checked - len(missed_checked),
            events_checked=len(checked_sequences),
            permanent_misses=len(missed_checked),
            missed_sample=missed_checked,
            check_after_ms=check_after_ms,
            last_miss_ms=last_miss,
            recovery_time_ms=recovery_time,
        )
