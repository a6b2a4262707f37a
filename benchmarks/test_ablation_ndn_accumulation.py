"""Ablation — the NDN baseline's update-accumulation interval t.

Paper §V-A: "There is a tradeoff: if we set t large enough, more updates
are included which saves some bandwidth, but the update latency will be
longer.  If we set t too small, players can see the updates immediately
but incur a lot of overhead."  The trade-off is only measurable when the
routers are *not* saturated (in the full 62-player microbenchmark every
setting drowns in interest traffic — the paper's separate point), so
this ablation uses a small uncongested session: 6 players, each
publishing 10 updates/second.
"""

from repro.experiments.benchutil import full_scale, run_once
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.common import run_ndn_testbed
from repro.experiments.report import render_table
from repro.game.map import GameMap
from repro.names import Name
from repro.trace.generator import CounterStrikeTraceGenerator, TraceSpec


def _small_session(num_updates):
    game_map = GameMap(seed=42)
    zones = game_map.hierarchy.areas(2)
    placement = {f"p{i}": zones[i] for i in range(6)}
    spec = TraceSpec(
        num_players=6,
        num_updates=num_updates,
        mean_interarrival_ms=100.0 / 6,  # 10 updates/s per player
        activity_sigma=0.2,
        seed=42,
    )
    generator = CounterStrikeTraceGenerator(game_map, spec, placement=placement)
    return game_map, placement, generator.generate()


def test_ndn_accumulation_tradeoff(benchmark):
    num_updates = 3_000 if full_scale() else 1_200
    game_map, placement, events = _small_session(num_updates)

    def sweep():
        results = {}
        for t_ms in (25.0, 100.0, 400.0):
            calibration = DEFAULT_CALIBRATION.with_overrides(
                ndn_accumulation_ms=t_ms,
                # Keep the routers fast so queueing never masks the batching
                # effects in this small session.
                testbed_ndn_forward_ms=0.05,
                ndn_interest_lifetime_ms=4000.0,
            )
            results[t_ms] = run_ndn_testbed(
                events,
                game_map,
                placement,
                calibration,
                drain_ms=5_000.0,
            )
        return results

    results = run_once(benchmark, sweep)

    print()
    print(
        render_table(
            "NDN accumulation interval sweep (uncongested session)",
            ("t (ms)", "deliveries", "mean latency ms", "network MB"),
            [
                (
                    f"{t:g}",
                    r.deliveries,
                    round(r.latency.mean, 1) if r.latency.count else "-",
                    round(r.network_bytes / 1e6, 3),
                )
                for t, r in sorted(results.items())
            ],
        )
    )

    small, mid, big = results[25.0], results[100.0], results[400.0]

    # Bandwidth arm: batching more updates per version carries fewer bytes.
    assert big.network_bytes < small.network_bytes

    # Latency arm: the accumulation delay shows up directly in delivery
    # latency — larger t is strictly slower on average.
    assert small.latency.mean < mid.latency.mean < big.latency.mean
    # And the floor of the big-t distribution is bounded by its batching
    # delay mechanics: nothing can beat the wire faster than ~0 wait, but
    # the mean must sit near t/2 above the small-t mean.
    assert big.latency.mean - small.latency.mean > 100.0
