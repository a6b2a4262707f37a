"""Command-line front end: regenerate any of the paper's artifacts.

Usage::

    python -m repro.experiments fig3
    python -m repro.experiments fig4 --scale 0.25
    python -m repro.experiments table1 --updates 6000
    python -m repro.experiments fig6
    python -m repro.experiments table2 --sample 0.01
    python -m repro.experiments table3 --moves 80
    python -m repro.experiments chaos --plan rp-crash --seed 3 --scale 0.02
    python -m repro.experiments scenarios --scenarios churn --plans rp-crash
    python -m repro.experiments scale --players 2000 --workers 1,2
    python -m repro.experiments federation --quick
    python -m repro.experiments live --routers 3 --events 80
    python -m repro.experiments trace record --workload fig4 --out trace-out
    python -m repro.experiments all

Each subcommand prints the regenerated table/figure in the same layout
the benchmarks use and exits non-zero on a digest mismatch, a broken
invariant or a failed gate.  None writes a file unless ``--out`` is
given; wall-clock performance is measured by ``bench/run.py`` only.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.report import render_cdf, render_series, render_table


def _cmd_fig3(args: argparse.Namespace) -> None:
    from repro.experiments.fig3_workload import run_fig3

    result = run_fig3(num_updates=args.updates)
    print(render_table("Fig. 3 workload characterization", ("metric", "value"), result.rows()))


def _cmd_fig4(args: argparse.Namespace) -> None:
    from repro.experiments.fig4_microbench import run_fig4

    result = run_fig4(scale=args.scale)
    print(render_cdf("Fig. 4 update-latency CDF (ms)", result.cdf_curves()))
    rows = [
        (r.label, r.latency.count, round(r.latency.mean, 2))
        for r in (result.gcopss, result.ip_server, result.ndn)
        if r.latency.count
    ]
    print(render_table("Fig. 4 summary", ("system", "deliveries", "mean ms"), rows))


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.experiments.table1_rp_count import run_table1

    result = run_table1(num_updates=args.updates)
    print(
        render_table(
            f"Table I ({args.updates} updates, 414 players)",
            ("type", "# RPs/servers", "update latency (ms)", "network load (GB)"),
            result.rows(),
        )
    )
    for key, title in (("3", "Fig. 5a (3 RPs)"), ("2", "Fig. 5b (2 RPs)"), ("auto", "Fig. 5c (auto)")):
        print()
        print(render_series(title, result.gcopss[key].series.envelope(), max_rows=12))


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.experiments.fig6_scalability import run_fig6, run_fig6_federated

    players = args.players or (
        "2000,10000,100000" if args.federated else "62,414,1200,2400"
    )
    if args.federated:
        sweep = tuple(int(x) for x in players.split(","))
        points = run_fig6_federated(
            player_counts=sweep, updates_per_point=args.updates
        )
        rows = [
            (
                p["players"],
                p["deliveries"],
                round(p["latency"]["mean_ms"], 2),
                round(p["latency"]["p95_ms"], 2),
                p["federation"]["actions"],
            )
            for p in points
        ]
        print(
            render_table(
                "Fig. 6 federated extension (latency ms, autoscaler live)",
                ("players", "deliveries", "mean", "p95", "actions"),
                rows,
            )
        )
        return
    sweep = tuple(int(x) for x in players.split(","))
    result = run_fig6(player_counts=sweep, updates_per_point=args.updates)
    rows = [(n, round(g, 2), round(s, 2)) for n, g, s in result.latency_series()]
    print(render_table("Fig. 6a response latency (ms)", ("players", "G-COPSS", "IP server"), rows))
    rows = [(n, round(g, 3), round(s, 3)) for n, g, s in result.load_series()]
    print(render_table("Fig. 6b network load (GB, normalized)", ("players", "G-COPSS", "IP server"), rows))


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.experiments.table2_hybrid import run_table2

    result = run_table2(sample=args.sample)
    print(
        render_table(
            f"Table II (full-trace equivalents, sample={args.sample})",
            ("type", "update latency (ms)", "network load (GB)"),
            result.rows(),
        )
    )


def _cmd_table3(args: argparse.Namespace) -> None:
    from repro.experiments.table3_movement import run_table3_all

    result = run_table3_all(num_players=args.players, num_moves=args.moves)
    labels = list(result.modes)
    print(
        render_table(
            f"Table III convergence ms ({args.moves} scheduled moves)",
            ("move type", "count", "leaf CDs", *labels),
            result.rows(),
        )
    )


def _cmd_scale(args: argparse.Namespace) -> None:
    from repro.parallel.scale import ScaleSpec, run_scale

    spec = ScaleSpec(
        players=args.players,
        regions=args.regions,
        access_per_region=args.access_per_region,
        updates=args.updates,
        seed=args.seed,
        world_fraction=args.world_fraction,
    )
    counts = sorted({int(x) for x in args.workers.split(",")} - {1})
    # Serial is ground truth; the in-process sharded executor at the widest
    # count checks the algorithm, one process per shard checks the plumbing.
    arms = [run_scale(spec)]
    if counts:
        arms.append(run_scale(spec, shards=counts[-1]))
    arms.extend(run_scale(spec, shards=n, workers=n) for n in counts)
    mismatched = [a["mode"] for a in arms if a["digest"] != arms[0]["digest"]]
    rows = [
        (
            arm["mode"],
            arm["deliveries"],
            arm["events_processed"],
            arm["digest"][:16],
            "MISMATCH" if arm["mode"] in mismatched else "OK",
        )
        for arm in arms
    ]
    print(
        render_table(
            f"Scale: {spec.players} players, {spec.updates} updates",
            ("mode", "deliveries", "events", "digest", "vs serial"),
            rows,
        )
    )
    if mismatched:
        print(f"DIGEST MISMATCH in arms: {mismatched}")
        raise SystemExit(1)


def _cmd_federation(args: argparse.Namespace) -> None:
    from repro.experiments.federation import render_saturation, run_saturation

    report = run_saturation(quick=args.quick, slo_p95_ms=args.slo)
    print(
        render_table(
            f"Federation: saturation SLO ({'quick' if args.quick else 'full'})",
            ("metric", "value"),
            render_saturation(report),
        )
    )
    if not report["ok"]:
        print("FEDERATION SLO GATE FAILED")
        raise SystemExit(1)


def _cmd_chaos(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.experiments.chaos import run_chaos

    telemetry = None
    if args.trace:
        from repro.obs.session import TelemetrySession

        telemetry = TelemetrySession()
    report = run_chaos(
        plan_name=args.plan,
        seed=args.seed,
        scale=args.scale,
        loss=args.loss,
        telemetry=telemetry,
        scenario=args.scenario or None,
    )
    body = report.as_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    kinds = sorted(body["verdict"]["violation_kinds"].items())
    rows = [
        ("workload", args.scenario or "fig4-trace"),
        ("plan", args.plan),
        ("seed", args.seed),
        ("events", body["events_total"]),
        ("checked", body["events_checked"]),
        ("expected deliveries", body["deliveries_expected"]),
        ("got (same window)", body["deliveries_got_checked"]),
        ("permanent misses", body["permanent_misses"]),
        ("safety violations", ", ".join(f"{k} {n}" for k, n in kinds) or 0),
        ("injected drops", body["fault_stats"]["dropped"]),
        ("control retransmits", body["node_counters"]["control_retransmits"]),
        ("subscriptions expired", body["node_counters"]["subscriptions_expired"]),
        ("tunnel bounces", body["node_counters"]["tunnel_bounces"]),
        ("invariant", "OK" if body["invariant_ok"] else "VIOLATED"),
        ("digest", body["digest"][:16]),
    ]
    print(render_table("Chaos: delivery under faults", ("metric", "value"), rows))
    if args.trace:
        # The injector's own tally, so the line sums to "injected drops";
        # the tracer also records protocol drops (own echo, no RP, ...).
        injected: dict = {}
        for key, count in body["fault_stats"]["drops_by_link"].items():
            reason = key.rsplit(":", 1)[1]
            injected[reason] = injected.get(reason, 0) + count
        other = {
            reason: count
            for reason, count in body["trace"]["drop_reasons"].items()
            if reason not in injected
        }
        print()
        print("injected drop reasons:", injected or "(none)")
        print("other recorded drop reasons:", other or "(none)")
        for item in body["trace"]["missed_chains"]:
            print(
                f"\nmissed update #{item['sequence']} -> {item['receiver']} "
                f"(trace id {item['trace_id']}):"
            )
            for line in item["chain"]:
                print(" ", line)
    if not body["invariant_ok"]:
        raise SystemExit(1)


def _cmd_scenarios(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.experiments.chaos import PLAN_NAMES
    from repro.experiments.scenarios import SCENARIO_NAMES, run_matrix

    def _csv(value: str, universe) -> list:
        if value == "all":
            return list(universe)
        names = [x.strip() for x in value.split(",") if x.strip()]
        for name in names:
            if name not in universe:
                raise SystemExit(f"unknown name {name!r}; choose from {universe}")
        return names

    scenario_names = _csv(args.scenarios, SCENARIO_NAMES)
    plan_names = _csv(args.plans, PLAN_NAMES)
    seeds = tuple(int(x) for x in args.seeds.split(","))
    # The matrix body is the pinned fixture schema; the deliveries made in
    # the window ``expected`` counts come from the reports as they finish.
    got_checked = {}

    def progress(key: str, report) -> None:
        got_checked[key] = report.deliveries_got_checked
        print(
            f"  {key:<40} {'ok' if report.invariant_ok else 'VIOLATED':<8} "
            f"misses={report.permanent_misses} digest={report.digest()[:12]}"
        )

    body = run_matrix(
        scenario_names,
        plan_names,
        seeds=seeds,
        scale=args.scale,
        loss=args.loss,
        progress=progress,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    rows = [
        (
            key,
            "OK" if cell["invariant_ok"] else "VIOLATED",
            cell["permanent_misses"],
            cell["deliveries_expected"],
            got_checked[key],
            round(cell["recovery_time_ms"] or 0.0, 1),
            cell["digest"][:12],
        )
        for key, cell in sorted(body["cells"].items())
    ]
    print(
        render_table(
            f"Scenario × chaos matrix (scale={args.scale}, loss={args.loss})",
            ("cell", "invariant", "misses", "expected", "got", "recovery ms", "digest"),
            rows,
        )
    )
    failed = [k for k, c in body["cells"].items() if not c["invariant_ok"]]
    if failed:
        print(f"INVARIANT VIOLATIONS in: {', '.join(sorted(failed))}")
        raise SystemExit(1)


def _cmd_live(args: argparse.Namespace) -> None:
    from repro.net.testbed import run_differential
    from repro.net.world import make_trace, spec_for

    spec = spec_for(args.routers)
    trace = make_trace(spec, seed=args.seed, events=args.events)
    result = run_differential(spec, trace, time_scale=args.time_scale)
    live, perf = result["live"], result["perf"]
    rows = [
        ("differential", "MATCH" if result["match"] else "MISMATCH"),
        ("deliveries", live["deliveries_total"]),
        ("drops", live["drops_total"]),
        ("link packets", live["link_packets"]),
        ("udp received / tcp resent",
         f"{perf['udp_received']} / {perf['tcp_resent']}"),
    ]
    title = (
        f"Live wire: {len(spec['routers'])} router processes, "
        f"{len(spec['hosts'])} hosts, {args.events} events vs simulator"
    )
    print(render_table(title, ("metric", "value"), rows))
    if not result["match"]:
        print("DIFFERENTIAL MISMATCH:")
        for line in result["mismatches"]:
            print("  ", line)
        raise SystemExit(1)


def _cmd_trace(args: argparse.Namespace) -> None:
    import json

    from repro.experiments import tracerun

    if args.trace_cmd == "record":
        summary = tracerun.record_run(
            out_dir=args.out,
            workload=args.workload,
            scale=args.scale,
            seed=args.seed,
            loss=args.loss,
            plan=args.plan,
            scenario=args.scenario or None,
            sample_every=args.sample_every,
            metrics_interval_ms=args.metrics_interval,
        )
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    events = tracerun.load_events(args.events)
    if args.trace_cmd == "drops":
        from repro.obs.tracer import summarize_drops

        rows = sorted(summarize_drops(events).items())
        print(render_table("Drop reasons", ("reason", "count"), rows or [("—", 0)]))
        return
    # query
    trace_id = args.id if args.id is not None else tracerun.pick_example_trace(events)
    if trace_id is None:
        print("no events recorded")
        raise SystemExit(1)
    chain, lines = tracerun.query_chain(events, trace_id, receiver=args.receiver)
    scope = f" -> {args.receiver}" if args.receiver else ""
    print(f"trace {trace_id}{scope}: {len(chain)} events")
    for line in lines:
        print(" ", line)


def _cmd_all(args: argparse.Namespace) -> None:
    for name in ("fig3", "fig4", "table1", "fig6", "table2", "table3"):
        print(f"\n===== {name} =====")
        started = time.time()
        _DISPATCH[name](_defaults_for(name))
        print(f"[{name} done in {time.time() - started:.0f}s]")


def _defaults_for(name: str) -> argparse.Namespace:
    parser = _build_parser()
    return parser.parse_args([name])


_DISPATCH = {
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "table1": _cmd_table1,
    "fig6": _cmd_fig6,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "scale": _cmd_scale,
    "federation": _cmd_federation,
    "chaos": _cmd_chaos,
    "scenarios": _cmd_scenarios,
    "live": _cmd_live,
    "trace": _cmd_trace,
    "all": _cmd_all,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig3", help="workload characterization (Fig. 3c/3d)")
    p.add_argument("--updates", type=int, default=30_000)

    p = sub.add_parser("fig4", help="microbenchmark latency CDF (Fig. 4)")
    p.add_argument("--scale", type=float, default=0.25,
                   help="fraction of the 12,440-event testbed trace")

    p = sub.add_parser("table1", help="latency/load vs #RPs (Table I + Fig. 5)")
    p.add_argument("--updates", type=int, default=6_000)

    p = sub.add_parser("fig6", help="scalability sweep (Fig. 6a/6b)")
    p.add_argument("--players", type=str, default="",
                   help="comma-separated sweep (default 62,414,1200,2400; "
                        "2000,10000,100000 with --federated)")
    p.add_argument("--updates", type=int, default=2_500)
    p.add_argument("--federated", action="store_true",
                   help="run the federated RP extension instead: the "
                        "region-ring world under FederationSpec with the "
                        "autoscaler live, out to 10⁵ players")

    p = sub.add_parser("table2", help="full-trace IP/G-COPSS/hybrid (Table II)")
    p.add_argument("--sample", type=float, default=0.01)

    p = sub.add_parser("table3", help="snapshot convergence (Table III)")
    p.add_argument("--players", type=int, default=62)
    p.add_argument("--moves", type=int, default=80)

    p = sub.add_parser(
        "scale", help="serial / in-process sharded / multiprocess digest equivalence"
    )
    p.add_argument("--workers", type=str, default="1,2,4",
                   help="comma-separated worker counts; serial baseline always runs")
    p.add_argument("--players", type=int, default=10_000)
    p.add_argument("--regions", type=int, default=4)
    p.add_argument("--access-per-region", type=int, default=8)
    p.add_argument("--updates", type=int, default=500)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--world-fraction", type=float, default=0.02,
                   help="fraction of publishes on the world-visible CD")

    p = sub.add_parser(
        "federation", help="federated RP layer: autoscaler saturation SLO"
    )
    p.add_argument("--quick", action="store_true",
                   help="CI-sized populations (the arms pinned in "
                        "tests/data/federation_saturation.json)")
    p.add_argument("--slo", type=float, default=30.0,
                   help="p95 delivery-latency SLO (ms) the federated "
                        "arms must hold")

    p = sub.add_parser(
        "chaos", help="fault-injection delivery-invariant check (lossless handover)"
    )
    from repro.experiments.chaos import PLAN_NAMES

    p.add_argument("--plan", type=str, default="rp-split-lossy", choices=PLAN_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=float, default=0.05,
                   help="fraction of the 12,440-event testbed trace")
    p.add_argument("--loss", type=float, default=0.05,
                   help="per-link loss probability (or burst entry probability)")
    p.add_argument("--out", type=str, default="",
                   help="write the full JSON report to this path")
    p.add_argument("--trace", action="store_true",
                   help="record telemetry; on a miss, print the packet's hop chain")
    from repro.experiments.scenarios import SCENARIO_NAMES

    p.add_argument("--scenario", type=str, default="",
                   choices=("", *SCENARIO_NAMES),
                   help="replay a registered scenario script instead of the "
                        "fig-4 trace")

    p = sub.add_parser(
        "scenarios",
        help="scenario × chaos matrix under the invariant monitor",
    )
    p.add_argument("--scenarios", type=str, default="all",
                   help=f"comma-separated subset of {SCENARIO_NAMES}, or 'all'")
    p.add_argument("--plans", type=str, default="all",
                   help=f"comma-separated subset of {PLAN_NAMES}, or 'all'")
    p.add_argument("--seeds", type=str, default="1",
                   help="comma-separated seeds, one matrix layer each")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplier on each scenario's publish count")
    p.add_argument("--loss", type=float, default=0.05,
                   help="per-link loss probability for lossy plans")
    p.add_argument("--out", type=str, default="",
                   help="write the matrix JSON (the format of "
                        "tests/data/scenario_matrix.json)")

    p = sub.add_parser(
        "live",
        help="live-wire testbed: real processes over TCP/UDP, "
             "differential-checked against the simulator",
    )
    p.add_argument("--routers", type=int, default=3, choices=(3, 5),
                   help="3 = smoke star topology, 5 = benchmark tree")
    p.add_argument("--events", type=int, default=60,
                   help="seeded trace length (publish events)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--time-scale", type=float, default=0.0,
                   help="wall seconds per sim ms (0 = as fast as possible)")

    p = sub.add_parser(
        "trace", help="causal packet tracing: record a run, query hop chains"
    )
    tsub = p.add_subparsers(dest="trace_cmd", required=True)

    tp = tsub.add_parser("record", help="replay a workload with telemetry on")
    tp.add_argument("--workload", type=str, default="fig4",
                    choices=("fig4", "chaos"))
    tp.add_argument("--out", type=str, default="trace-out",
                    help="directory for <workload>.events.jsonl / .chrome.json / .metrics.prom")
    tp.add_argument("--scale", type=float, default=0.05)
    tp.add_argument("--seed", type=int, default=7)
    tp.add_argument("--loss", type=float, default=0.05,
                    help="chaos only: per-link loss probability")
    tp.add_argument("--plan", type=str, default="rp-split-lossy",
                    choices=PLAN_NAMES, help="chaos only: fault plan")
    tp.add_argument("--scenario", type=str, default="",
                    choices=("", *SCENARIO_NAMES),
                    help="chaos only: record a scenario script instead of "
                         "the fig-4 trace")
    tp.add_argument("--sample-every", type=int, default=1,
                    help="trace only packets whose trace id divides by k")
    tp.add_argument("--metrics-interval", type=float, default=100.0,
                    help="metric sampling period, sim ms")

    tp = tsub.add_parser("query", help="reconstruct one trace id's hop chain")
    tp.add_argument("--events", type=str, required=True,
                    help="path to a recorded .events.jsonl")
    tp.add_argument("--id", type=int, default=None,
                    help="trace id (default: an exemplary delivered trace)")
    tp.add_argument("--receiver", type=str, default=None,
                    help="restrict to the branch reaching this node")

    tp = tsub.add_parser("drops", help="summarize drop reasons in a recording")
    tp.add_argument("--events", type=str, required=True)

    sub.add_parser("all", help="run every artifact at default scale")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    _DISPATCH[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
