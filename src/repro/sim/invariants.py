"""Runtime invariant monitor: protocol safety and liveness from the delivery record.

The chaos harness (PR 3) checked its delivery invariant with bookkeeping
hand-rolled for one workload, and its "what counts as recovered" window
was a plan-name lookup.  This module generalises both halves into a
reusable monitor that any experiment can install:

**Safety** — the monitor records each host-level delivery during the
run (an append into packed columns) and judges the record once, after
it, replaying every delivery against the ledger epochs the host had at
that instant:

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
:class:`SubscriptionLedger` the experiment maintains, through one
lazily built per-``(host, cd)`` index of its epochs:

* *zero permanent delivery loss* after the per-(scenario, plan) recovery
  margin: every update published after ``check_after_ms`` reaches every
  stable subscribed host;
* *recovery time*: the publish time of the last missed delivery, minus
  the instant the plan's data blackout cleared;
* *bounded re-Subscribe churn*: the summed refresh counter stays under a
  declared budget (checked by the caller via :func:`refresh_budget`).

The monitor is the run's one delivery record.  :meth:`~InvariantMonitor
.install` appends :meth:`~InvariantMonitor.on_deliver` to every host's
``on_update`` list, which each host runs once per accepted delivery,
after its echo and duplicate filters; the trace-hook slots stay with the
telemetry tracer.  Harnesses read their delivery set and latencies back
from the record, and :meth:`~InvariantMonitor.check_delivery_count` holds
it to the hosts' own ``updates_received`` counters.  The monitor never
mutates packets, nodes or the schedule, so a run recorded with telemetry
beside it keeps its digest (``test_cell_smoke_and_monitor_parity`` in
``tests/test_scenarios.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.names import Name
from repro.obs.tracer import trace_id_of
from repro.sim.stats import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packets import Packet
    from repro.sim.network import Network, Node

__all__ = [
    "SubscriptionLedger",
    "Violation",
    "InvariantMonitor",
    "InvariantVerdict",
    "expected_deliveries",
    "refresh_budget",
]

#: A relay chain that reaches no serving router within this many hops is
#: a black hole (:meth:`InvariantMonitor.check_ownership`).
MAX_RELAY_HOPS = 8


def _span(times: List[float], start: float, end: float, n: int) -> Tuple[int, int]:
    """Indices ``[lo, hi)`` of the first ``n`` epochs meeting ``[start, end]``.

    ``times`` are one host's epoch start times; epoch i is active on
    ``[t_i, t_{i+1})`` and the last one runs forever.  An empty span
    (``hi <= lo``) means no epoch overlaps.
    """
    lo = bisect_right(times, start, 0, n) - 1
    return (lo if lo > 0 else 0), bisect_right(times, end, 0, n)


def _any_covered(
    times: List[float], counts: List[int], start: float, end: float, n: int
) -> bool:
    """Does one of the first ``n`` epochs meeting ``[start, end]`` cover the CD?"""
    lo, hi = _span(times, start, end, n)
    return hi > lo and counts[hi] > counts[lo]


def _stable(times: List[float], reach: List[int], start: float, end: float) -> bool:
    """Is ``[start, end]`` inside one epoch run of a single covering name?

    False when no epoch meets the window or its head predates the
    host's first epoch.  The liveness bar only holds hosts to updates
    they were entitled to for the packet's whole (bounded) lifetime: a
    host that moved away or went offline mid-flight may legitimately
    miss it.

    The *same* subscription name must provide the coverage across the
    whole window: coverage stitched from different names spans a fresh
    wire Subscribe (e.g. a move from zone ``/3/5`` to region ``/3`` keeps
    ``/3/5`` publications covered, but through a brand new subscription),
    and under loss that Subscribe may be in flight or awaiting the next
    refresh retransmit — soft state guarantees nothing until it lands.
    """
    lo, hi = _span(times, start, end, len(times))
    return hi > lo and times[lo] <= start and reach[lo] >= hi - 1


class SubscriptionLedger:
    """Ground truth of who was subscribed to what, when.

    Experiments append an *epoch* — ``(time, subscription set, online)``
    — every time they change a host's subscriptions or connectivity; the
    monitor reads the epochs back to judge deliveries.  Epochs must be
    appended in non-decreasing time order per host (the natural order,
    since the experiment appends from inside scheduled callbacks).

    Every ``(host, cd)`` query reads one lazily built index (see
    :meth:`_coverage`), dropped whenever the host notes a new epoch.
    """

    def __init__(self) -> None:
        self._epochs: Dict[str, List[Tuple[float, FrozenSet[Name], bool]]] = {}
        #: host -> epoch start times, kept beside the epochs for bisecting.
        self._times: Dict[str, List[float]] = {}
        #: name -> hosts that held it while online, in any epoch.
        self._holders: Dict[Name, Set[str]] = {}
        #: host -> cd -> (covered-epoch prefix counts, stable run reach).
        self._index: Dict[str, Dict[Name, Tuple[List[int], List[int]]]] = {}

    def note(
        self, host: str, t: float, cds: Iterable["Name | str"], online: bool = True
    ) -> None:
        """Record that ``host``'s subscription set became ``cds`` at ``t``."""
        times = self._times.setdefault(host, [])
        if times and t < times[-1]:
            raise ValueError(
                f"ledger epochs for {host} must be time-ordered: "
                f"{t} < {times[-1]}"
            )
        subs = frozenset(Name.coerce(cd) for cd in cds)
        self._epochs.setdefault(host, []).append((t, subs, online))
        times.append(t)
        if online:
            for sub in subs:
                self._holders.setdefault(sub, set()).add(host)
        self._index.pop(host, None)

    def note_offline(self, host: str, t: float) -> None:
        """The host went dark: no subscriptions, not reachable."""
        self.note(host, t, (), online=False)

    def hosts_covering(self, cd: Name) -> List[str]:
        """Hosts that covered ``cd`` while online in at least one epoch."""
        found: Set[str] = set()
        for prefix in cd.prefixes():
            found.update(self._holders.get(prefix, ()))
        return sorted(found)

    def _coverage(self, host: str, cd: Name) -> Tuple[List[int], List[int]]:
        """The ``(host, cd)`` index: ``(counts, reach)`` over the host's epochs.

        ``counts[i]`` is how many of the first ``i`` epochs cover ``cd``
        while online.  ``reach[i]`` is the last epoch ``j >= i`` such
        that one covering name is held, online, through every epoch of
        ``i..j`` (``i - 1`` when epoch ``i`` covers nothing) — the runs
        :func:`_stable` reads.
        """
        per_host = self._index.get(host)
        if per_host is None:
            per_host = self._index[host] = {}
        else:
            index = per_host.get(cd)
            if index is not None:
                return index
        names = cd.prefixes()
        epochs = self._epochs[host]
        n = len(epochs)
        reach = [0] * n
        # Walk backwards so each covering name's run end is known at its
        # start: a name held at i and at i + 1 inherits i + 1's end.
        run_end: Dict[Name, int] = {}
        for i in range(n - 1, -1, -1):
            _, subs, online = epochs[i]
            held = [sub for sub in names if sub in subs] if online else []
            run_end = {sub: run_end.get(sub, i) for sub in held}
            reach[i] = max(run_end.values()) if held else i - 1
        counts = [0] * (n + 1)
        for i in range(n):
            counts[i + 1] = counts[i] + (reach[i] >= i)
        index = per_host[cd] = (counts, reach)
        return index

    def uncovered_since(self, host: str, cd: Name) -> Optional[float]:
        """Instant the host last stopped covering ``cd`` (None if covered).

        Returns the start time of the first epoch of the current
        trailing run of non-covering epochs — the moment an ST entry for
        ``(host, cd)`` became garbage the soft-state sweep must reap.
        For a host with no covering history, that is its first epoch.
        """
        times = self._times.get(host)
        if not times:
            return None
        counts = self._coverage(host, cd)[0]
        n = len(times)
        if counts[n] > counts[n - 1]:
            return None
        # The first prefix holding every covered epoch ends at the last
        # covered one; the epoch after it opens the trailing run.
        return times[bisect_left(counts, counts[n])]


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
    :meth:`InvariantMonitor.verdict` judges liveness by.

    ``join_margin_ms`` is the subscription-propagation allowance: a
    soft-state pub/sub plane guarantees nothing for a join racing a
    publish (the Subscribe may still be in flight, or lost and waiting
    on a retransmit/refresh round), so a host only *owes* the invariant
    deliveries for subscriptions that predate the publish by the
    margin.  The paper's lossless-handover claim is about established
    subscribers, and that is exactly who this selects.

    Only hosts that ever covered a publish's CD online are visited: no
    other host can be stable through any window.
    """
    out: List[Tuple[int, float, str]] = []
    # cd -> (host, epoch times, stable run reach) for every coverer,
    # each the input of one _stable call.
    coverers: Dict[Name, List[Tuple[str, List[float], List[int]]]] = {}
    for sequence, t_pub, cd, publisher in publishes:
        until = min(t_pub + stability_window_ms, horizon_ms)
        hosts = coverers.get(cd)
        if hosts is None:
            hosts = coverers[cd] = [
                (host, ledger._times[host], ledger._coverage(host, cd)[1])
                for host in ledger.hosts_covering(cd)
            ]
        for host, times, reach in hosts:
            if host == publisher:
                continue  # publishers suppress their own echo
            if _stable(times, reach, t_pub - join_margin_ms, until):
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


class InvariantMonitor:
    """Records every host delivery from ``on_update``; judges after the run.

    Each delivery is appended to packed columns; the duplicate and
    phantom checks run once over them, in delivery order, the first time
    :attr:`violations` is read — normally from :meth:`verdict`.
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
        #: Verdict-time audit findings (orphaned ST, ownership, and what
        #: the caller adds), reported after the safety findings.
        self.audits: List[Violation] = []
        #: (sequence, host) -> delivery sim time, for sequenced updates.
        self.deliveries: Dict[Tuple[int, str], float] = {}
        # The delivery record, one row per accepted delivery: trace id,
        # update sequence, (host, cd) pair id, created_at, delivery time,
        # and how many ledger epochs the host had at that instant.
        self._trace_ids = array("q")
        self._sequences = array("q")
        self._pair_ids = array("l")
        self._created = array("d")
        self._delivered_at = array("d")
        self._epochs_at = array("l")
        self._pairs: Dict[Tuple[str, Optional[Name]], int] = {}
        self._pair_list: List[Tuple[str, Optional[Name]]] = []
        # Safety-pass state: rows judged so far, (trace id, host) counts,
        # and the findings in delivery order.
        self._judged = 0
        self._counts: Dict[Tuple[int, str], int] = {}
        self._safety: List[Violation] = []
        # Installation: the hosts and the callback appended to their
        # ``on_update`` lists, and the record and the hosts' delivery
        # counters at that instant.
        self._hosts: List["Node"] = []
        self._callback = None
        self._rows_at_install = 0
        self._received_at_install = 0
        self._installed_at: float = 0.0

    # ------------------------------------------------------------------
    # Installation (the hosts' ``on_update`` lists)
    # ------------------------------------------------------------------
    def install(self, network: "Network") -> "InvariantMonitor":
        """Record every delivery the network's hosts accept from now on."""
        if self._callback is not None:
            return self
        self._callback = self.on_deliver
        self._installed_at = network.sim.now
        self._hosts = [
            node for node in network.nodes.values() if hasattr(node, "on_update")
        ]
        for host in self._hosts:
            host.on_update.append(self._callback)
        self._rows_at_install = len(self._delivered_at)
        self._received_at_install = self._received()
        return self

    def uninstall(self) -> None:
        """Remove the callbacks :meth:`install` appended, and only those."""
        for host in self._hosts:
            host.on_update.remove(self._callback)
        self._hosts = []
        self._callback = None

    def _received(self) -> int:
        return sum(host.stats.updates_received for host in self._hosts)

    # ------------------------------------------------------------------
    # The delivery record
    # ------------------------------------------------------------------
    def on_deliver(self, node: "Node", packet: "Packet") -> None:
        """Record a host delivery for the post-run safety pass."""
        now = node.sim.now
        host = node.name
        pair = (host, getattr(packet, "cd", None))
        pair_id = self._pairs.get(pair)
        if pair_id is None:
            pair_id = self._pairs[pair] = len(self._pair_list)
            self._pair_list.append(pair)
        sequence = getattr(packet, "sequence", -1)
        self._trace_ids.append(trace_id_of(packet))
        self._sequences.append(sequence)
        self._pair_ids.append(pair_id)
        self._created.append(getattr(packet, "created_at", now))
        self._delivered_at.append(now)
        self._epochs_at.append(len(self.ledger._times.get(host, ())))
        if sequence >= 0:
            self.deliveries.setdefault((sequence, host), now)

    def on_publish(self, node, packet) -> None:
        """No-op (publishes are judged from the caller's schedule).

        Kept as one of the ``sim.invariants`` span targets in
        ``bench/spans.py``.
        """

    def latency(self, name: str) -> LatencyRecorder:
        """``delivered_at - created_at`` of the sequenced rows, in row order."""
        recorder = LatencyRecorder(name)
        for sequence, created, now in zip(
            self._sequences, self._created, self._delivered_at
        ):
            if sequence >= 0:
                recorder.record(now - created)
        return recorder

    # ------------------------------------------------------------------
    # Post-run safety pass
    # ------------------------------------------------------------------
    @property
    def violations(self) -> List[Violation]:
        """Safety findings in delivery order, then :attr:`audits`.

        A fresh list: add findings to :attr:`audits`, not to this.
        """
        self._judge_deliveries()
        return self._safety + self.audits

    def _judge_deliveries(self) -> None:
        """Check at-most-once and no-phantom over the rows not yet judged.

        Each row is judged as it would have been at its own instant: the
        phantom check reads only the ledger epochs the host had when the
        delivery happened, so an epoch noted later at the same sim time
        cannot excuse it.
        """
        start = self._judged
        if start == len(self._delivered_at):
            return
        ledger, grace = self.ledger, self.phantom_grace_ms
        pairs, counts, found = self._pair_list, self._counts, self._safety
        # pair id -> (epoch times, covered-epoch counts), looked up once
        # per pair for _any_covered.
        tables: Dict[int, Tuple[List[float], List[int]]] = {}
        for trace, pair_id, created, now, n_at in zip(
            self._trace_ids[start:],
            self._pair_ids[start:],
            self._created[start:],
            self._delivered_at[start:],
            self._epochs_at[start:],
        ):
            host, cd = pairs[pair_id]
            key = (trace, host)
            count = counts.get(key, 0) + 1
            counts[key] = count
            if count > 1:
                found.append(
                    Violation(
                        t=now,
                        kind="duplicate_delivery",
                        host=host,
                        detail=f"trace {trace} delivered {count} times",
                    )
                )
            if cd is None:
                continue
            if n_at:
                table = tables.get(pair_id)
                if table is None:
                    table = tables[pair_id] = (
                        ledger._times[host], ledger._coverage(host, cd)[0]
                    )
                if _any_covered(table[0], table[1], created - grace, now, n_at):
                    continue
            found.append(
                Violation(
                    t=now,
                    kind="phantom_delivery",
                    host=host,
                    detail=f"update for {cd} without a covering subscription",
                )
            )
        self._judged = len(self._delivered_at)

    # ------------------------------------------------------------------
    # Verdict-time checks
    # ------------------------------------------------------------------
    def check_delivery_count(self, now: float) -> int:
        """Hold the record to the hosts' own counters since :meth:`install`.

        A host bumps ``stats.updates_received`` once per accepted
        delivery, so a row recorded without one (or one accepted without
        a row) is a ``monitor_divergence``.  Returns how many were found
        (0 or 1).
        """
        rows = len(self._delivered_at) - self._rows_at_install
        received = self._received() - self._received_at_install
        if rows == received:
            return 0
        self.audits.append(
            Violation(
                t=now,
                kind="monitor_divergence",
                host="-",
                detail=f"{rows} deliveries recorded, hosts counted {received}",
            )
        )
        return 1

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
            plane = getattr(node, "forwarding", None)
            if plane is None:
                continue
            for face, cd, count in plane.st.entries():
                peer = getattr(face, "peer", None)
                if peer is None or not hasattr(peer, "subscriptions"):
                    continue  # router-to-router aggregate state
                since = self.ledger.uncovered_since(peer.name, cd)
                if since is None:
                    continue  # host (still) covers it; entry is live
                since = max(since, self._installed_at)
                if now - since > grace_ms:
                    found += 1
                    self.audits.append(
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
        serving router within :data:`MAX_RELAY_HOPS`: publications arriving
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
            rp = network.nodes[name].get_role("rp")
            if rp is not None:
                for prefix in sorted(rp.prefixes):
                    served.append((prefix, name))
        found = 0
        for i, (prefix, owner) in enumerate(served):
            for other_prefix, other_owner in served[i + 1:]:
                if owner != other_owner and (
                    prefix.is_prefix_of(other_prefix)
                    or other_prefix.is_prefix_of(prefix)
                ):
                    found += 1
                    self.audits.append(
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
            rp = node.get_role("rp")
            role_prefixes = rp.prefixes if rp is not None else ()
            return any(p == cd or p.is_prefix_of(cd) for p in role_prefixes)

        def relay_next(node, cd: Name) -> Optional[str]:
            # Longest-prefix match over the relay map, mirroring how the
            # relay role picks an onward hop for an arriving packet.
            relay = node.get_role("relay")
            relinquished = relay.relinquished if relay is not None else {}
            matches = [p for p in relinquished if p == cd or p.is_prefix_of(cd)]
            if not matches:
                return None
            return relinquished[max(matches, key=lambda p: (len(p.components), p))]

        for cd in expected_cover:
            cd = Name.coerce(cd)
            if not any(p == cd or p.is_prefix_of(cd) for p in owners_by_prefix):
                found += 1
                self.audits.append(
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
                while onward is not None and hops < MAX_RELAY_HOPS:
                    node = network.nodes.get(onward)
                    if node is not None and serves(node, cd):
                        resolved = True
                        break
                    onward = None if node is None else relay_next(node, cd)
                    hops += 1
                if not resolved:
                    found += 1
                    self.audits.append(
                        Violation(
                            t=now,
                            kind="relay_black_hole",
                            host=holder_name,
                            detail=(
                                f"relay chain for {cd} from {holder_name} "
                                f"reaches no owner within {MAX_RELAY_HOPS} hops"
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
        join_margin_ms: float = 0.0,
    ) -> InvariantVerdict:
        """Judge the run: the safety pass over the delivery record, then liveness.

        ``publishes`` is the ground-truth schedule ``(sequence, time,
        cd, publisher)``, judged against :attr:`deliveries`.  Misses are
        *checked* (counted against the invariant) only for updates
        published at or after ``check_after_ms``; all misses feed the
        recovery-time SLO.
        """
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
        violations = self.violations
        return InvariantVerdict(
            safety_ok=not violations,
            liveness_ok=not missed_checked,
            violations=violations,
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
