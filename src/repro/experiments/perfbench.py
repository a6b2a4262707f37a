"""Forwarding fast-path microbenchmarks and perf-regression harness.

The paper's data plane lives or dies on per-hop cost (§III-C, Fig. 4):
ST lookup + replication must stay far cheaper than RP decapsulation for
the traffic-concentration results to hold at scale.  This module times
the layers of the fast path —

* **Name ops** — interned parse and cached prefix chains;
* **Bloom ops** — packed-mask membership vs per-index counter probes;
* **ST match** — memoized (warm) vs uncached reference scan (cold);
* **End-to-end** — a Fig. 6-style forwarding run with the ST memo on
  vs bypassed, asserting bit-identical delivery/accounting counters.

— and writes ``BENCH_fastpath.json`` at the repo root so perf changes
are visible across PRs.  Run via ``python -m repro.experiments perfbench``
or the ``perf``-marked benchmarks under ``benchmarks/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.bloom import CountingBloomFilter, indexes_for, mask_for
from repro.core.subscriptions import SubscriptionTable
from repro.names import Name

__all__ = [
    "bench_name_ops",
    "bench_bloom_ops",
    "bench_st_match",
    "bench_fault_overhead",
    "bench_trace_overhead",
    "bench_invariant_overhead",
    "bench_end_to_end",
    "run_perfbench",
    "default_output_path",
]


def default_output_path() -> Path:
    """``BENCH_fastpath.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "BENCH_fastpath.json"


def _rate(seconds: float, ops: int) -> Dict[str, float]:
    """Per-op microseconds and ops/s for one timed loop."""
    per_us = seconds / ops * 1e6
    return {"us_per_op": round(per_us, 4), "ops_per_s": round(ops / seconds)}


def _cd_universe(regions: int = 8, areas: int = 8, leaves: int = 4) -> List[Name]:
    """A hierarchical CD universe shaped like the game map's (depth 3)."""
    return [
        Name([str(r), str(a), str(l)])
        for r in range(regions)
        for a in range(areas)
        for l in range(leaves)
    ]


# ----------------------------------------------------------------------
# Name layer
# ----------------------------------------------------------------------

def bench_name_ops(rounds: int = 20_000) -> Dict[str, Dict[str, float]]:
    """Interned parse, cached prefix chains and cached str()."""
    texts = [str(cd) for cd in _cd_universe()]
    perf = time.perf_counter

    start = perf()
    for _ in range(rounds // len(texts) + 1):
        for text in texts:
            Name.parse(text)
    parse_warm = perf() - start
    parse_ops = (rounds // len(texts) + 1) * len(texts)

    names = [Name.parse(text) for text in texts]
    start = perf()
    for _ in range(rounds // len(names) + 1):
        for name in names:
            name.prefixes()
    prefixes_time = perf() - start

    start = perf()
    for _ in range(rounds // len(names) + 1):
        for name in names:
            str(name)
    str_time = perf() - start

    return {
        "parse_warm": _rate(parse_warm, parse_ops),
        "prefixes_cached": _rate(prefixes_time, parse_ops),
        "str_cached": _rate(str_time, parse_ops),
    }


# ----------------------------------------------------------------------
# Bloom layer
# ----------------------------------------------------------------------

def bench_bloom_ops(rounds: int = 20_000, num_bits: int = 2048, num_hashes: int = 4
                    ) -> Dict[str, Dict[str, float]]:
    """Packed-mask membership vs per-index counter probes."""
    universe = _cd_universe()
    bloom = CountingBloomFilter(num_bits, num_hashes)
    for cd in universe[::3]:
        bloom.add(cd)
    masks = [mask_for(cd, num_bits, num_hashes) for cd in universe]
    index_sets = [indexes_for(cd, num_bits, num_hashes) for cd in universe]
    perf = time.perf_counter
    loops = rounds // len(universe) + 1
    ops = loops * len(universe)

    start = perf()
    for _ in range(loops):
        for mask in masks:
            bloom.contains_mask(mask)
    packed = perf() - start

    start = perf()
    for _ in range(loops):
        for indexes in index_sets:
            bloom.contains_indexes(indexes)
    probed = perf() - start

    start = perf()
    for _ in range(loops):
        for cd in universe:
            cd in bloom
    contains = perf() - start

    return {
        "contains_mask": _rate(packed, ops),
        "contains_indexes": _rate(probed, ops),
        "contains_name": _rate(contains, ops),
        "mask_vs_index_speedup": round(probed / packed, 2),
    }


# ----------------------------------------------------------------------
# ST layer
# ----------------------------------------------------------------------

def bench_st_match(
    faces: int = 48,
    cds_per_face: int = 30,
    probe_rounds: int = 40,
    seed: int = 7,
) -> Dict[str, object]:
    """Memoized ``match`` (warm) vs the uncached reference scan (cold).

    The table shape mimics a loaded edge router: tens of faces, each
    subscribed to a few dozen hierarchical CDs; the probe set replays the
    full leaf-CD universe, as steady-state game forwarding does.
    """
    import random

    rng = random.Random(seed)
    universe = _cd_universe()
    table: SubscriptionTable[int] = SubscriptionTable()
    for face in range(faces):
        for cd in rng.sample(universe, cds_per_face):
            table.ensure(face, cd)
    probes = universe
    perf = time.perf_counter

    table.cache_enabled = False
    start = perf()
    for _ in range(probe_rounds):
        for cd in probes:
            table.match(cd)
    cold = perf() - start

    table.cache_enabled = True
    for cd in probes:  # fill
        table.match(cd)
    start = perf()
    for _ in range(probe_rounds):
        for cd in probes:
            table.match(cd)
    warm = perf() - start

    ops = probe_rounds * len(probes)
    return {
        "faces": faces,
        "cds_per_face": cds_per_face,
        "probes": len(probes),
        "cold": _rate(cold, ops),
        "warm": _rate(warm, ops),
        "warm_speedup": round(cold / warm, 2),
    }


# ----------------------------------------------------------------------
# End-to-end forwarding run
# ----------------------------------------------------------------------

def bench_end_to_end(
    players: int = 414,
    updates: int = 1_200,
    num_rps: int = 3,
    seed: int = 42,
) -> Dict[str, object]:
    """A Fig. 6-style forwarding run, ST memo on vs bypassed.

    Beyond wall clock, asserts the fast path changes nothing observable:
    delivery counts, duplicate drops, false-positive forwards and network
    byte/packet accounting must be identical in both arms.
    """
    from repro.experiments.common import run_gcopss_backbone
    from repro.game.map import GameMap
    from repro.trace.generator import CounterStrikeTraceGenerator, peak_trace_spec

    game_map = GameMap(seed=seed)
    base = CounterStrikeTraceGenerator(
        game_map, peak_trace_spec(num_updates=updates, seed=seed)
    )
    generator = base.rescale_players(players, scale_rate=False, num_updates=updates)
    events = generator.generate()
    perf = time.perf_counter

    def one_arm(use_st_cache: bool):
        start = perf()
        result = run_gcopss_backbone(
            events,
            game_map,
            generator.placement,
            num_rps=num_rps,
            use_st_cache=use_st_cache,
            label=f"perfbench {'cached' if use_st_cache else 'bypass'}",
        )
        return perf() - start, result

    bypass_s, bypass = one_arm(False)
    cached_s, cached = one_arm(True)

    def counters(result) -> Dict[str, object]:
        return {
            "deliveries": result.deliveries,
            "updates_received": result.extras["updates_received"],
            "false_positive_forwards": result.extras["false_positive_forwards"],
            "duplicate_multicasts_dropped": result.extras[
                "duplicate_multicasts_dropped"
            ],
            "network_bytes": result.network_bytes,
            "network_packets": result.extras["network_packets"],
            "latency_mean_ms": round(result.latency.mean, 6),
        }

    cached_counters = counters(cached)
    bypass_counters = counters(bypass)
    return {
        "players": players,
        "updates": updates,
        "num_rps": num_rps,
        "cached_s": round(cached_s, 3),
        "bypass_s": round(bypass_s, 3),
        "speedup": round(bypass_s / cached_s, 2),
        "counters_identical": cached_counters == bypass_counters,
        "counters": cached_counters,
        "counters_bypass": bypass_counters,
    }


# ----------------------------------------------------------------------
# Fault-injector overhead
# ----------------------------------------------------------------------

def bench_fault_overhead(sends: int = 100_000) -> Dict[str, object]:
    """Per-send cost of the fault hook: disabled (nil) vs armed paths.

    Every egress in the simulator now passes ``Link.fault_hook``; the
    contract is that with no plan installed this is one attribute load
    plus a ``None`` check.  Times three two-node micro-networks sending
    the same packet stream:

    * **disabled** — no injector; the nil fast path every run takes;
    * **armed_out_of_scope** — control-scoped spec, data packets (the
      realistic chaos arm: hook runs, scope gate passes them untouched);
    * **armed_bernoulli** — in-scope Bernoulli loss (full RNG draw).
    """
    from repro.ndn.packets import Interest
    from repro.sim.faults import FaultInjector, FaultPlan, LinkFaults
    from repro.sim.network import Network, Node

    class _Sink(Node):
        """Discards everything; only the egress path is under test."""

        def receive(self, packet, face) -> None:
            pass

    perf = time.perf_counter
    packet = Interest(name=Name(["bench", "fault"]))
    results: Dict[str, object] = {"sends": sends}

    def one_arm(spec: Optional[LinkFaults]) -> float:
        network = Network()
        a, b = _Sink(network, "a"), _Sink(network, "b")
        network.connect(a, b, delay=0.1)
        if spec is not None:
            plan = FaultPlan(seed=1, name="bench", links={"a<->b": spec})
            FaultInjector(network, plan).install()
        face = a.face_toward(b)
        # Drain in batches so heap growth doesn't pollute the send timing.
        batch = 10_000
        elapsed = 0.0
        done = 0
        while done < sends:
            n = min(batch, sends - done)
            start = perf()
            for _ in range(n):
                face.send(packet)
            elapsed += perf() - start
            done += n
            network.sim.run()
        return elapsed

    disabled = one_arm(None)
    out_of_scope = one_arm(LinkFaults(loss=0.5, scope="control"))
    bernoulli = one_arm(LinkFaults(loss=0.05, scope="all"))

    results["disabled"] = _rate(disabled, sends)
    results["armed_out_of_scope"] = _rate(out_of_scope, sends)
    results["armed_bernoulli"] = _rate(bernoulli, sends)
    results["armed_overhead_ratio"] = round(out_of_scope / disabled, 3)
    return results


# ----------------------------------------------------------------------
# Trace-hook overhead
# ----------------------------------------------------------------------

def bench_trace_overhead(sends: int = 100_000, e2e_scale: float = 0.05
                         ) -> Dict[str, object]:
    """Per-send cost of the trace hook: disabled (nil) vs armed paths.

    The telemetry plane shares the fault plane's contract: with no tracer
    installed, every egress pays one attribute load plus a ``None`` check.
    Micro arms over the two-node sink network:

    * **disabled** — no tracer; the nil fast path every run takes;
    * **armed_unsampled** — tracer installed but ``sample_every`` chosen
      so the bench packet is never sampled (hook call + modulo exit);
    * **armed_recording** — every send recorded into a bounded ring.

    The **e2e** block replays the same Fig. 4 schedule with telemetry off
    and fully on (tracing + metric ticks), asserting the observable run
    (deliveries, per-sample latencies, byte/packet accounting, summed
    counters) is bit-identical either way.
    """
    from repro.ndn.packets import Interest
    from repro.obs.tracer import PacketTracer
    from repro.sim.network import Network, Node

    class _Sink(Node):
        """Discards everything; only the egress path is under test."""

        def receive(self, packet, face) -> None:
            pass

    perf = time.perf_counter
    results: Dict[str, object] = {"sends": sends}

    def one_arm(make_tracer) -> float:
        network = Network()
        a, b = _Sink(network, "a"), _Sink(network, "b")
        network.connect(a, b, delay=0.1)
        packet = Interest(name=Name(["bench", "trace"]))
        if make_tracer is not None:
            make_tracer(packet).install(network)
        face = a.face_toward(b)
        # Drain in batches so heap growth doesn't pollute the send timing.
        batch = 10_000
        elapsed = 0.0
        done = 0
        while done < sends:
            n = min(batch, sends - done)
            start = perf()
            for _ in range(n):
                face.send(packet)
            elapsed += perf() - start
            done += n
            network.sim.run()
        return elapsed

    disabled = one_arm(None)
    # uid % (uid + 1) != 0 for uid >= 1: the hook runs, the modulo exits.
    unsampled = one_arm(lambda p: PacketTracer(sample_every=p.uid + 1))
    recording = one_arm(lambda p: PacketTracer(max_events=10_000))

    results["disabled"] = _rate(disabled, sends)
    results["armed_unsampled"] = _rate(unsampled, sends)
    results["armed_recording"] = _rate(recording, sends)
    results["recording_overhead_ratio"] = round(recording / disabled, 3)

    from repro.experiments.tracerun import run_fig4_traced
    from repro.obs.session import TelemetryConfig, TelemetrySession

    start = perf()
    off = run_fig4_traced(scale=e2e_scale)
    off_s = perf() - start
    session = TelemetrySession(TelemetryConfig(metrics_interval_ms=250.0))
    start = perf()
    on = run_fig4_traced(scale=e2e_scale, telemetry=session)
    on_s = perf() - start
    keys = (
        "deliveries",
        "latency_samples",
        "network_bytes",
        "network_packets",
        "counters",
    )
    results["e2e"] = {
        "scale": e2e_scale,
        "off_s": round(off_s, 3),
        "on_s": round(on_s, 3),
        "overhead_ratio": round(on_s / off_s, 3),
        "events_recorded": len(session.tracer.events),
        "counters_identical": all(off[k] == on[k] for k in keys),
    }
    return results


def bench_invariant_overhead(deliveries: int = 50_000, e2e_scale: float = 0.1
                             ) -> Dict[str, object]:
    """Cost of the invariant monitor: nil when absent, cheap when armed.

    Micro arms drive :meth:`GCopssHost._handle_update` directly with
    fresh multicast packets (the hot path the monitor's ``on_deliver``
    check rides on):

    * **disabled** — no hook installed; the single ``None`` check every
      unmonitored run pays;
    * **monitored** — :class:`~repro.sim.invariants.InvariantMonitor`
      installed with a covering ledger entry, so each delivery runs the
      full duplicate + phantom check.

    The **e2e** block replays one scenario × chaos cell with the monitor
    off and on, asserting the report digest and node counters are
    bit-identical — the monitor observes, never steers.
    """
    from repro.core.engine import GCopssHost, GCopssRouter
    from repro.core.packets import MulticastPacket
    from repro.sim.invariants import InvariantMonitor, SubscriptionLedger
    from repro.sim.network import Network

    perf = time.perf_counter
    cd = Name(["1", "2"])

    def one_arm(with_monitor: bool) -> float:
        network = Network()
        router = GCopssRouter(network, "R")
        host = GCopssHost(network, "h")
        network.connect(host, router, delay=0.1)
        face = host.face_toward(router)
        if with_monitor:
            ledger = SubscriptionLedger()
            ledger.note("h", 0.0, [cd])
            InvariantMonitor(ledger).install(network)
        batch = 10_000
        elapsed = 0.0
        done = 0
        while done < deliveries:
            n = min(batch, deliveries - done)
            packets = [
                MulticastPacket(cd=cd, payload_size=64, publisher="p", sequence=i)
                for i in range(done, done + n)
            ]
            start = perf()
            for packet in packets:
                host._handle_update(packet, face)
            elapsed += perf() - start
            done += n
        return elapsed

    disabled = one_arm(False)
    monitored = one_arm(True)
    results: Dict[str, object] = {
        "deliveries": deliveries,
        "disabled": _rate(disabled, deliveries),
        "monitored": _rate(monitored, deliveries),
        "monitored_overhead_ratio": round(monitored / disabled, 3),
    }

    from repro.experiments.scenarios import run_scenario

    start = perf()
    off = run_scenario("day-night", "rp-crash", scale=e2e_scale, monitor=False)
    off_s = perf() - start
    start = perf()
    on = run_scenario("day-night", "rp-crash", scale=e2e_scale, monitor=True)
    on_s = perf() - start
    results["e2e"] = {
        "cell": "day-night|rp-crash|1",
        "scale": e2e_scale,
        "off_s": round(off_s, 3),
        "on_s": round(on_s, 3),
        "overhead_ratio": round(on_s / off_s, 3),
        "digest_identical": off.digest() == on.digest(),
        "counters_identical": off.node_counters == on.node_counters,
        "invariant_ok": on.invariant_ok,
    }
    return results


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_perfbench(
    out_path: Optional[Path] = None,
    players: int = 414,
    updates: int = 1_200,
    quick: bool = False,
) -> Dict[str, object]:
    """Run every section and write ``BENCH_fastpath.json``.

    ``quick`` shrinks loop counts for smoke-test use (the JSON records
    which mode produced it, so trajectories stay comparable).
    """
    rounds = 4_000 if quick else 20_000
    report: Dict[str, object] = {
        "benchmark": "forwarding-fastpath",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "name_ops": bench_name_ops(rounds=rounds),
        "bloom_ops": bench_bloom_ops(rounds=rounds),
        "st_match": bench_st_match(probe_rounds=8 if quick else 40),
        "fault_overhead": bench_fault_overhead(sends=20_000 if quick else 100_000),
        "trace_overhead": bench_trace_overhead(
            sends=20_000 if quick else 100_000,
            e2e_scale=0.01 if quick else 0.05,
        ),
        "invariant_overhead": bench_invariant_overhead(
            deliveries=10_000 if quick else 50_000,
            e2e_scale=0.05 if quick else 0.2,
        ),
        "end_to_end": bench_end_to_end(
            players=players if not quick else 124,
            updates=updates if not quick else 400,
        ),
    }
    if out_path is None:
        out_path = default_output_path()
    out_path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return report


def render_perfbench(report: Dict[str, object]) -> str:
    """Human-readable summary of a perfbench report."""
    st = report["st_match"]
    e2e = report["end_to_end"]
    fault = report["fault_overhead"]
    trace = report["trace_overhead"]
    inv = report["invariant_overhead"]
    lines = [
        "Forwarding fast-path benchmark",
        f"  name parse (warm, interned): {report['name_ops']['parse_warm']['us_per_op']} us/op",
        f"  bloom contains (packed mask): {report['bloom_ops']['contains_mask']['us_per_op']} us/op"
        f" ({report['bloom_ops']['mask_vs_index_speedup']}x vs per-index probes)",
        f"  ST match cold: {st['cold']['us_per_op']} us/op"
        f"  warm: {st['warm']['us_per_op']} us/op"
        f"  ({st['warm_speedup']}x warm speedup)",
        f"  fault hook disabled: {fault['disabled']['us_per_op']} us/send"
        f"  armed (out of scope): {fault['armed_out_of_scope']['us_per_op']} us/send"
        f"  ({fault['armed_overhead_ratio']}x)",
        f"  trace hook disabled: {trace['disabled']['us_per_op']} us/send"
        f"  recording: {trace['armed_recording']['us_per_op']} us/send"
        f"  ({trace['recording_overhead_ratio']}x); e2e telemetry on/off"
        f" {trace['e2e']['overhead_ratio']}x, counters identical:"
        f" {trace['e2e']['counters_identical']}",
        f"  invariant monitor disabled: {inv['disabled']['us_per_op']} us/delivery"
        f"  monitored: {inv['monitored']['us_per_op']} us/delivery"
        f"  ({inv['monitored_overhead_ratio']}x); e2e digest identical:"
        f" {inv['e2e']['digest_identical']}, counters identical:"
        f" {inv['e2e']['counters_identical']}",
        f"  end-to-end ({e2e['players']} players, {e2e['updates']} updates):"
        f" cached {e2e['cached_s']}s vs bypass {e2e['bypass_s']}s"
        f" ({e2e['speedup']}x), counters identical: {e2e['counters_identical']}",
    ]
    return "\n".join(lines)
