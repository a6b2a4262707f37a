"""The five reference workloads of the update path.

Each workload is one function ``(seed, size, clock, setup_only) ->
(inputs, result)``: it derives every input from ``seed``, builds its
world, calls ``clock.ready()`` where set-up ends and the timed phase
starts, replays the fixed input to completion and calls
``clock.done()``.  ``inputs`` is what :mod:`oracles` needs to say who
must have received what; ``result`` is what was observed.  With
``setup_only`` the function stops (and tears down) at ``ready`` — the
harness uses that to take several set-up samples per pass.

Why these five (one line each; the README has the full rationale):

* ``backbone_peak`` — the paper's Table I workload: read-only data plane
  after convergence; scheduler, link egress, planes and ST reads work,
  control plane, faults, codec and barriers are idle.
* ``chaos_matrix`` — every scenario x fault plan through ``run_scenario``:
  the same planes with writes beside reads, fault hooks and the
  invariant monitor armed, 25 world builds inside the timed phase.
* ``sharded_scale`` — ``run_scale`` under ``proc:2``: the only workload
  with ``parallel.*`` on the path, and 500-face fan-out per access router.
* ``live_wire`` — three router processes over loopback TCP+UDP: codec,
  transport, asyncio clock; ``sim.engine`` is not on the path at all.
* ``fig4_telemetry`` — the Fig. 4 testbed with a recording
  ``TelemetrySession``: the hook slots occupied, ``obs.*`` cost visible.

Everything is assembled from the public callables of ``src/repro``
listed in the README; a later refactor that moves one of them changes
this file in a benchmark PR of its own.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import GCopssHost, GCopssNetworkBuilder, GCopssRouter
from repro.core.packets import MulticastPacket
from repro.core.rp import RpTable
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.chaos import PLAN_NAMES
from repro.experiments.common import default_rp_assignment, pick_rp_sites
from repro.experiments.fig4_microbench import microbenchmark_placement
from repro.experiments.scenarios.harness import SCENARIO_NAMES, get_scenario, run_scenario
from repro.game.map import GameMap
from repro.names import ROOT, Name
from repro.net.testbed import LiveTestbed
from repro.net.world import compare_reports, make_trace, run_reference, smoke_spec
from repro.obs.session import TelemetrySession
from repro.parallel import scale as scale_mod
from repro.parallel.scale import ScaleSpec, run_scale, scale_events
from repro.sim.engine import SerialExecutor
from repro.sim.network import Network
from repro.topology.backbone import build_backbone
from repro.topology.benchmark import build_benchmark_topology
from repro.trace.generator import (
    CounterStrikeTraceGenerator,
    microbenchmark_spec,
    peak_trace_spec,
)

#: Input sizes.  The replayed input is the head of a seeded trace that
#: is due ``deliveries`` deliveries by the delivery rule, so every seed
#: asks for the same amount of work; ``trace`` is how much trace is
#: generated to cut that head from.  ``full`` gives a 5-7 s timed phase
#: on the 2-core reference box (the requester's 7-18 s sizes shrunk so
#: that 114 driver runs fit the 3420 s cap); ``quick`` is about 1/20 of
#: it and doubles as the warm-up pass.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "backbone_peak": {
        "full": {"deliveries": 550_000, "trace": 8000},
        "quick": {"deliveries": 27_500, "trace": 8000},
    },
    "chaos_matrix": {"full": {"scale": 1.3}, "quick": {"scale": 0.05}},
    "sharded_scale": {
        "full": {"players": 8000, "deliveries": 570_000, "trace": 500},
        "quick": {"players": 800, "deliveries": 28_500, "trace": 500},
    },
    "live_wire": {"full": {"events": 80_000}, "quick": {"events": 4000}},
    "fig4_telemetry": {
        "full": {"deliveries": 160_000, "trace": 1.0},
        "quick": {"deliveries": 8_000, "trace": 1.0},
    },
}


class PhaseClock:
    """Marks where set-up ends and where the timed phase ends.

    ``recorder`` (a :class:`spans.SpanRecorder`) is switched on for the
    timed phase only, so layer self times sum to the traced wall time.
    """

    def __init__(self, recorder: Any = None) -> None:
        self.recorder = recorder
        self.started = time.perf_counter()
        self.ready_at: Optional[float] = None
        self.done_at: Optional[float] = None

    def ready(self) -> None:
        self.ready_at = time.perf_counter()
        if self.recorder is not None:
            self.recorder.start()

    def done(self) -> None:
        if self.recorder is not None:
            self.recorder.stop()
        self.done_at = time.perf_counter()

    def wrap_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """The benchmark's own delivery callback, as a layer of its own."""
        if self.recorder is None:
            return fn
        return self.recorder.span(fn, "bench.callbacks")

    @property
    def setup_s(self) -> float:
        return self.ready_at - self.started

    @property
    def wall_s(self) -> float:
        return self.done_at - self.ready_at


@dataclass
class Result:
    """What one timed phase delivered, in the form the oracles check."""

    #: receiver -> delivery keys as received (sequence numbers; CD texts
    #: on ``live_wire``, whose routers report per-CD tallies).
    received: Dict[str, Sequence[Any]] = field(default_factory=dict)
    #: Simulated publish->delivery latency per delivery (empty on live_wire).
    latencies_ms: Sequence[float] = ()
    #: Public counters read after the run, by per-layer metric name; exact
    #: for a given seed.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Counters that depend on the host, not only the seed (UDP survival).
    readings: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific evidence for the oracle (digests, reports, cells).
    extra: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The delivery rule, and the head of a trace that is due a given work
# ----------------------------------------------------------------------
def audience(cd: Name, subscriptions: Dict[str, Any]) -> List[str]:
    """Hosts whose subscription set holds a prefix of ``cd``.

    An update under ``cd`` is due exactly once at each of them except its
    publisher; this is the rule the oracles check deliveries against.
    """
    prefixes = set(cd.prefixes())
    return [h for h, subs in subscriptions.items() if not prefixes.isdisjoint(subs)]


def head_due(
    events: Sequence[Tuple[Any, str, Name]], subscriptions: Dict[str, Any], deliveries: int
) -> int:
    """Length of the shortest head of ``events`` due ``deliveries`` deliveries."""
    audiences: Dict[Name, frozenset] = {}
    due = 0
    for n, (_key, publisher, cd) in enumerate(events, start=1):
        hosts = audiences.get(cd)
        if hosts is None:
            hosts = audiences[cd] = frozenset(audience(cd, subscriptions))
        due += len(hosts) - (publisher in hosts)
        if due >= deliveries:
            return n
    raise ValueError(f"trace of {len(events)} events is due only {due} deliveries")


# ----------------------------------------------------------------------
# Shared pieces of the simulator workloads
# ----------------------------------------------------------------------
def _attach_delivery_callbacks(
    hosts: Dict[str, GCopssHost], clock: PhaseClock
) -> Tuple[array, Dict[str, array]]:
    """One closure per host: append the latency, append the sequence."""
    latencies = array("d")
    received = {name: array("q") for name in hosts}
    record_latency = latencies.append
    for name, host in hosts.items():

        def on_update(h, packet, _seq=received[name].append):
            record_latency(h.sim.now - packet.created_at)
            _seq(packet.sequence)

        host.on_update.append(clock.wrap_callback(on_update))
    return latencies, received


def _raw_publisher(hosts: Dict[str, GCopssHost]) -> Callable[[int, Any], None]:
    """Table I's publish path: a bare MulticastPacket, no pub_seq stream."""

    def publish(i: int, event) -> None:
        host = hosts[event.player]
        host.published += 1
        host.send(
            host.access_face,
            MulticastPacket(
                cd=event.cd,
                payload_size=event.size,
                publisher=event.player,
                sequence=i,
                object_id=event.object_id,
                created_at=host.sim.now,
            ),
        )

    return publish


def _api_publisher(hosts: Dict[str, GCopssHost]) -> Callable[[int, Any], None]:
    """``GCopssHost.publish``: stamps pub_seq and emits the trace root event."""

    def publish(i: int, event) -> None:
        hosts[event.player].publish(event.cd, event.size, sequence=i)

    return publish


def _world_counts(networks: Sequence[Network]) -> Dict[str, float]:
    """The per-layer counts in-process simulator worlds expose, summed."""
    nodes = [n for network in networks for n in network.nodes.values()]
    routers = [n for n in nodes if isinstance(n, GCopssRouter)]
    rps = [r for r in routers if r.rp_prefixes]
    decaps = sum(r.decapsulations for r in routers)
    rp_served = sum(r.queue.served for r in rps)
    batch_pops = sum(network.sim.batch_pops for network in networks)
    return {
        "sim.engine.events": sum(network.sim.events_processed for network in networks),
        "sim.engine.batch_members_per_pop": (
            sum(network.sim.batch_members for network in networks) / batch_pops
            if batch_pops
            else 0.0
        ),
        "sim.network.packets": sum(network.total_packets for network in networks),
        "sim.network.bytes": sum(network.total_bytes for network in networks),
        "sim.queues.rp_mean_wait_ms": (
            sum(r.queue.total_wait_time for r in rps) / rp_served if rp_served else 0.0
        ),
        "core.planes.decapsulations": decaps,
        "core.planes.fanout_mean": (
            sum(r.multicasts_forwarded for r in routers) / decaps if decaps else 0.0
        ),
        "core.planes.control_retransmits": sum(n.stats.control_retransmits for n in nodes),
        "core.planes.subscription_refreshes": sum(
            n.stats.subscription_refreshes for n in nodes
        ),
        "core.subscriptions.false_positive_forwards": sum(
            r.st.false_positive_forwards for r in routers
        ),
        "core.subscriptions.entries_max_per_router": max(len(r.st) for r in routers),
        "core.rp.fib_relay_entries_max_per_router": max(
            len(r.cd_routes) + len(r.relinquished) for r in routers
        ),
        "core.engine.duplicates_suppressed": sum(
            n.stats.duplicates_suppressed for n in nodes
        ),
    }


def _head_of_trace(events, placement, hierarchy, deliveries: int):
    """Cut the trace to the head due ``deliveries``; its oracle inputs."""
    subscriptions = {p: hierarchy.subscriptions_for(a) for p, a in placement.items()}
    keyed = [(i, e.player, e.cd) for i, e in enumerate(events)]
    head = head_due(keyed, subscriptions, deliveries)
    return events[:head], {"events": keyed[:head], "subscriptions": subscriptions}


def _replay(
    network, hosts, events, subscriptions, clock, setup_only,
    make_publisher=_raw_publisher, telemetry=None,
):
    """Converge subscriptions, then replay ``events`` to exhaustion."""
    sim = network.sim
    for player, host in hosts.items():
        host.subscribe(subscriptions[player])
    sim.run()  # converge
    network.reset_counters()
    latencies, received = _attach_delivery_callbacks(hosts, clock)
    publish = make_publisher(hosts)
    offset = sim.now
    for i, event in enumerate(events):
        sim.schedule_at(offset + event.time_ms, publish, i, event)
    if telemetry is not None:
        horizon = offset + (events[-1].time_ms if events else 0.0)
        telemetry.install(network, metrics_until=horizon)
    events_before = sim.events_processed
    clock.ready()
    if setup_only:
        return None
    sim.run()
    clock.done()
    counts = _world_counts([network])
    counts["sim.engine.events"] -= events_before
    return Result(
        received=received,
        latencies_ms=latencies,
        counts=counts,
    )


# ----------------------------------------------------------------------
# backbone_peak
# ----------------------------------------------------------------------
def backbone_peak(seed: int, size: Dict[str, Any], clock: PhaseClock, setup_only=False):
    """414 players, 79-core backbone, 3 static RPs, head of the peak trace."""
    calibration = DEFAULT_CALIBRATION
    game_map = GameMap(seed=seed)
    generator = CounterStrikeTraceGenerator(
        game_map, peak_trace_spec(num_updates=size["trace"], seed=seed)
    )
    placement = generator.placement
    hierarchy = game_map.hierarchy
    events, inputs = _head_of_trace(
        generator.generate(), placement, hierarchy, size["deliveries"]
    )

    built = build_backbone(
        lambda net, name: GCopssRouter(
            net,
            name,
            service_time=calibration.copss_forward_ms,
            rp_service_time=calibration.rp_service_ms,
        )
    )
    network = built.network
    hosts = {
        h.name: h
        for h in built.attach_hosts(
            GCopssHost, sorted(placement), calibration.backbone_host_edge_delay_ms
        )
    }
    rp_table = default_rp_assignment(hierarchy, pick_rp_sites(built, 3))
    GCopssNetworkBuilder(network, rp_table).install()
    return inputs, _replay(
        network, hosts, events, inputs["subscriptions"], clock, setup_only
    )


# ----------------------------------------------------------------------
# fig4_telemetry
# ----------------------------------------------------------------------
def fig4_telemetry(seed: int, size: Dict[str, Any], clock: PhaseClock, setup_only=False):
    """The Fig. 4 testbed (62 players, RP at R1) under a recording session."""
    calibration = DEFAULT_CALIBRATION
    game_map = GameMap(seed=seed)
    placement = microbenchmark_placement(game_map)
    hierarchy = game_map.hierarchy
    generator = CounterStrikeTraceGenerator(
        game_map, microbenchmark_spec(scale=size["trace"], seed=seed), placement=placement
    )
    events, inputs = _head_of_trace(
        generator.generate(), placement, hierarchy, size["deliveries"]
    )

    topo = build_benchmark_topology(
        router_factory=lambda net, name: GCopssRouter(
            net,
            name,
            service_time=calibration.testbed_copss_forward_ms,
            rp_service_time=calibration.rp_service_ms,
        ),
        host_factory=GCopssHost,
        host_names=sorted(placement),
        inter_router_delay_ms=calibration.testbed_router_delay_ms,
        host_delay_ms=calibration.testbed_host_delay_ms,
    )
    network = topo.network
    rp_table = RpTable()
    rp_table.assign(ROOT, "R1")
    GCopssNetworkBuilder(network, rp_table).install()
    hosts = {h.name: h for h in topo.hosts}
    session = TelemetrySession()
    result = _replay(
        network, hosts, events, inputs["subscriptions"], clock, setup_only,
        make_publisher=_api_publisher, telemetry=session,
    )
    if result is not None:
        result.counts["obs.tracer.events_recorded"] = len(session.tracer.events)
    session.finish()
    return inputs, result


# ----------------------------------------------------------------------
# chaos_matrix
# ----------------------------------------------------------------------
def chaos_cells(seed: int) -> List[Tuple[str, str, int]]:
    """Every scenario x every fault plan: 25 cells.

    Each plan column replays scripts of its own seed (``seed``,
    ``seed + 1``, ...), so a run averages over 25 scripts rather than 5
    and its work depends less on which seed it was given.
    """
    return [
        (scenario, plan, seed + column)
        for scenario in SCENARIO_NAMES
        for column, plan in enumerate(PLAN_NAMES)
    ]


def run_cell(cell: Tuple[str, str, int], scale: float, networks: Optional[list] = None):
    """One matrix cell, recovery stack and invariant monitor on."""
    scenario, plan, seed = cell

    def executor_factory(network: Network) -> SerialExecutor:
        # The one public seam that hands the cell's network back, so its
        # counters can be read after the report is built.
        if networks is not None:
            networks.append(network)
        return SerialExecutor(network)

    return run_scenario(
        scenario, plan, seed=seed, scale=scale, executor_factory=executor_factory
    )


def chaos_matrix(seed: int, size: Dict[str, Any], clock: PhaseClock, setup_only=False):
    """5 scenarios x 5 fault plans; world builds are inside the timed phase."""
    scale = size["scale"]
    cells = chaos_cells(seed)
    # Set-up is what precedes the first cell: generating the scripts the
    # cells replay (run_scenario regenerates them from the same seeds).
    inputs = {
        "cells": cells,
        "scale": scale,
        "script_digests": {
            (scenario, cell_seed): get_scenario(scenario)(cell_seed, scale).digest()
            for scenario, _plan, cell_seed in cells
        },
    }
    clock.ready()
    if setup_only:
        return inputs, None
    networks: List[Network] = []
    reports = [run_cell(cell, scale, networks) for cell in cells]
    clock.done()

    latency_n = sum(r.latency.get("count", 0) for r in reports)
    recoveries = [
        r.slo["recovery_time_ms"]
        for r in reports
        if r.plan["name"] != "none" and r.slo["recovery_time_ms"] is not None
    ]
    counts = _world_counts(networks)
    counts["sim.faults.injected_drops"] = sum(r.fault_stats["dropped"] for r in reports)
    counts["sim.invariants.violations"] = sum(
        sum(r.verdict["violation_kinds"].values()) for r in reports
    )
    result = Result(
        counts=counts,
        extra={
            "reports": reports,
            "deliveries": sum(r.deliveries_got for r in reports),
            # Pooled mean and worst-cell p95 of the harness's own recorder.
            "latency_mean_ms": (
                sum(r.latency["mean"] * r.latency["count"] for r in reports if r.latency.get("count"))
                / latency_n
                if latency_n
                else 0.0
            ),
            "latency_p95_ms": max(
                (r.latency["p95"] for r in reports if r.latency.get("count")), default=0.0
            ),
            "latency_samples": latency_n,
            "recovery_ms_max": max(recoveries, default=0.0),
        },
    )
    return inputs, result


# ----------------------------------------------------------------------
# sharded_scale
# ----------------------------------------------------------------------
def scale_spec(seed: int, players: int, updates: int) -> ScaleSpec:
    return ScaleSpec(
        players=players, regions=4, access_per_region=4, updates=updates, seed=seed
    )


class _Captured:
    """Hooks two public ``repro.parallel`` callables for one ``run_scale``.

    ``run_scale`` is monolithic: workers build their slices and report
    READY inside it, and it returns only a digest and latency summary.
    The last ``wire.decode_ready`` call is where set-up ends (every
    worker has built its slice), and ``scale.latency_stats`` is handed
    the merged :class:`DeliveryLog` — the per-delivery record the oracle
    needs.  Both are wrapped for the duration of the call, not replaced.
    """

    def __init__(self, on_ready: Callable[[], None], workers: int) -> None:
        self.on_ready = on_ready
        self.workers = workers
        self.log = None

    def __enter__(self) -> "_Captured":
        from repro.parallel import procpool

        self._wire = procpool.wire
        self._decode_ready = self._wire.decode_ready
        self._latency_stats = scale_mod.latency_stats
        seen = [0]

        def decode_ready(buf):
            out = self._decode_ready(buf)
            seen[0] += 1
            if seen[0] == self.workers:
                self.on_ready()
            return out

        def latency_stats(log):
            self.log = log
            return self._latency_stats(log)

        self._wire.decode_ready = decode_ready
        scale_mod.latency_stats = latency_stats
        return self

    def __exit__(self, *exc) -> None:
        self._wire.decode_ready = self._decode_ready
        scale_mod.latency_stats = self._latency_stats


def _log_result(log, summary: Dict[str, Any]) -> Result:
    received: Dict[str, array] = {}
    latencies = array("d")
    for key, receiver, latency in log.entries:
        seqs = received.get(receiver)
        if seqs is None:
            seqs = received[receiver] = array("q")
        seqs.append(key)
        latencies.append(latency)
    executor = summary.get("executor", {})
    return Result(
        received=received,
        latencies_ms=latencies,
        counts={
            "sim.engine.events": summary["events_processed"],
            "sim.network.packets": summary["network_packets"],
            "sim.network.bytes": summary["network_bytes"],
            "parallel.executor.windows_run": executor.get("windows_run", 0),
            "parallel.executor.transit_messages": executor.get("transit_messages", 0),
        },
        extra={"digest": summary["digest"], "mode": summary["mode"]},
    )


def scale_inputs(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    """The spec whose publishes are due ``size["deliveries"]`` deliveries.

    ``scale_events`` draws publish by publish from one stream, so a spec
    with fewer updates replays exactly the head of a longer one.
    """
    longest = scale_spec(seed, size["players"], size["trace"])
    total_access = longest.regions * longest.access_per_region
    subscriptions = {}
    for i in range(longest.players):
        name = f"p{i:06d}"
        region = (i % total_access) // longest.access_per_region
        subscriptions[name] = frozenset(longest.subscriptions_for(region, name))
    keyed = [
        (i, player, Name.coerce(cd))
        for i, (_t, player, cd) in enumerate(scale_events(longest))
    ]
    head = head_due(keyed, subscriptions, size["deliveries"])
    return {
        "events": keyed[:head],
        "subscriptions": subscriptions,
        "spec": scale_spec(seed, size["players"], head),
    }


def sharded_scale(seed: int, size: Dict[str, Any], clock: PhaseClock, setup_only=False):
    """``run_scale(shards=2, workers=2)``: two forked slice workers."""
    inputs = scale_inputs(seed, size)
    spec = inputs["spec"]
    if setup_only:
        # Same world, empty trace: the workers build the identical slices
        # and report READY; the publish phase that follows is idle.
        spec = scale_spec(seed, size["players"], 0)
    with _Captured(clock.ready, workers=2) as captured:
        summary = run_scale(spec, shards=2, workers=2)
    if setup_only:
        return inputs, None
    clock.done()
    return inputs, _log_result(captured.log, summary)


def sharded_scale_inproc(spec: ScaleSpec, clock: PhaseClock) -> Result:
    """The ``inproc:2`` arm: same spec, window-synchronised in one process.

    Child processes are not traced, so the traced pass runs this arm too:
    it is where ``parallel.executor`` and the layers under it show up, and
    its digest must equal the ``proc:2`` digest.
    """
    with _Captured(lambda: None, workers=2) as captured:
        clock.ready()
        summary = run_scale(spec, shards=2, workers=1)
        clock.done()
    return _log_result(captured.log, summary)


# ----------------------------------------------------------------------
# live_wire
# ----------------------------------------------------------------------
def live_wire(seed: int, size: Dict[str, Any], clock: PhaseClock, setup_only=False):
    """``smoke_spec`` over real loopback sockets; timed phase is ``play``.

    Traffic crosses the host's loopback interface, not a link.
    """
    spec = smoke_spec()
    trace = make_trace(spec, seed=seed, events=size["events"])
    inputs = {
        "events": [(e["cd"], e["host"], Name.coerce(e["cd"])) for e in trace],
        "subscriptions": {
            h: frozenset(Name.coerce(cd) for cd in conf["subs"])
            for h, conf in spec["hosts"].items()
        },
        "spec": spec,
        "trace": trace,
    }
    with LiveTestbed(spec, time_scale=0.0) as bed:
        bed.quiesce()
        bed.subscribe_phase()
        clock.ready()
        if setup_only:
            return inputs, None
        perf = bed.play(trace)
        clock.done()
        report = bed.collect()
    received = {
        host: [cd for cd, n in per_cd.items() for _ in range(n)]
        for host, per_cd in report["delivered_by_host"].items()
    }
    nodes = report["nodes"].values()
    decaps = sum(n["decapsulations"] for n in nodes)
    counts = {
        "sim.network.packets": report["link_packets"],
        "sim.network.bytes": report["link_bytes"],
        "core.planes.decapsulations": decaps,
        "core.planes.fanout_mean": (
            sum(n["multicasts_forwarded"] for n in nodes) / decaps if decaps else 0.0
        ),
        "core.subscriptions.entries_max_per_router": max(
            sum(per_cd.values()) for per_cd in report["subscriptions"].values()
        ),
        "core.engine.duplicates_suppressed": sum(n["duplicates_suppressed"] for n in nodes),
    }
    return inputs, Result(
        received=received,
        counts=counts,
        readings={
            "net.transport.udp_received_frac": perf["udp_received"] / perf["events"],
            "net.transport.tcp_resent": perf["tcp_resent"],
        },
        extra={"report": report, "perf": perf},
    )


def live_reference_mismatches(inputs: Dict[str, Any], result: Result) -> List[str]:
    """``compare_reports`` of the live report against the simulator replay."""
    return compare_reports(
        result.extra["report"], run_reference(inputs["spec"], inputs["trace"])
    )


WORKLOADS: Dict[str, Callable[..., Tuple[Dict[str, Any], Optional[Result]]]] = {
    "backbone_peak": backbone_peak,
    "chaos_matrix": chaos_matrix,
    "sharded_scale": sharded_scale,
    "live_wire": live_wire,
    "fig4_telemetry": fig4_telemetry,
}
