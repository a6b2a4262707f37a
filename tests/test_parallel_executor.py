"""Unit tests for the sharded-executor building blocks.

Partitioning (anchor Dijkstra, RP-derived plans, plan validation),
delivery digests, the window/barrier machinery, and the engine's
windowed-run semantics the executor depends on.  The end-to-end
bit-identity proofs live in test_parallel_differential.py and the
property suite; these tests pin the pieces in isolation so a
differential failure has small, named suspects.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import GCopssHost, GCopssNetworkBuilder, GCopssRouter, RpTable
from repro.core.packets import MulticastPacket
from repro.parallel import (
    DeliveryLog,
    ShardedExecutor,
    ShardPlan,
    canonical_digest,
    delivery_digest,
    partition_by_anchors,
    partition_by_rp,
)
from repro.parallel.executor import Egress, window_horizon
from repro.parallel.scale import ScaleSpec, run_scale
from repro.sim.engine import SerialExecutor, Simulator
from repro.sim.network import Network


def _line(*delays):
    """R0 - R1 - ... chained with the given per-hop delays."""
    net = Network()
    routers = [GCopssRouter(net, f"R{i}") for i in range(len(delays) + 1)]
    for i, delay in enumerate(delays):
        net.connect(routers[i], routers[i + 1], delay)
    return net


class TestPartitionByAnchors:
    def test_nodes_join_nearest_anchor(self):
        net = _line(1.0, 1.0, 1.0)
        plan = partition_by_anchors(net, ["R0", "R3"])
        assert plan.assignment == {"R0": 0, "R1": 0, "R2": 1, "R3": 1}
        assert plan.num_shards == 2
        assert plan.anchors == ("R0", "R3")

    def test_tie_breaks_to_lowest_anchor_index(self):
        net = _line(1.0, 1.0)  # R1 is exactly 1.0 from both anchors
        plan = partition_by_anchors(net, ["R0", "R2"])
        assert plan.shard_of("R1") == 0
        # Anchor order — not name order — decides the tie.
        plan = partition_by_anchors(net, ["R2", "R0"])
        assert plan.shard_of("R1") == 0
        assert plan.members(0) == ["R1", "R2"]

    def test_anchor_errors(self):
        net = _line(1.0)
        with pytest.raises(ValueError, match="at least one anchor"):
            partition_by_anchors(net, [])
        with pytest.raises(ValueError, match="duplicate"):
            partition_by_anchors(net, ["R0", "R0"])
        with pytest.raises(KeyError, match="nope"):
            partition_by_anchors(net, ["nope"])

    def test_unreachable_node_rejected(self):
        net = _line(1.0)
        GCopssRouter(net, "island")
        with pytest.raises(ValueError, match="unreachable"):
            partition_by_anchors(net, ["R0"])


class TestShardPlan:
    def test_validate_catches_bad_plans(self):
        net = _line(1.0)
        ShardPlan({"R0": 0, "R1": 0}, 1).validate(net)
        with pytest.raises(ValueError, match="misses nodes"):
            ShardPlan({"R0": 0}, 1).validate(net)
        with pytest.raises(ValueError, match="unknown nodes"):
            ShardPlan({"R0": 0, "R1": 0, "ghost": 0}, 1).validate(net)
        with pytest.raises(ValueError, match="out of range"):
            ShardPlan({"R0": 0, "R1": 3}, 2).validate(net)

    def test_boundary_links_and_lookahead(self):
        net = _line(1.0, 2.5, 1.0)
        plan = partition_by_anchors(net, ["R0", "R3"])
        assert plan.assignment == {"R0": 0, "R1": 0, "R2": 1, "R3": 1}
        cut = plan.boundary_links(net)
        assert [link.delay for link in cut] == [2.5]
        assert plan.lookahead_ms(net) == 2.5

    def test_no_boundary_means_infinite_lookahead(self):
        net = _line(1.0, 1.0)
        plan = partition_by_anchors(net, ["R0"])
        assert plan.boundary_links(net) == []
        assert plan.lookahead_ms(net) == float("inf")

    def test_zero_delay_boundary_rejected(self):
        net = Network()
        GCopssRouter(net, "R0")
        GCopssRouter(net, "R1")
        net.connect("R0", "R1", 0.0)
        plan = ShardPlan({"R0": 0, "R1": 1}, 2)
        with pytest.raises(ValueError, match="zero delay"):
            plan.lookahead_ms(net)

    def test_annotate_roles_stamps_shards(self):
        net = _line(1.0, 1.0, 1.0)
        table = RpTable()
        table.assign("/1", "R0")
        GCopssNetworkBuilder(net, table).install()
        plan = partition_by_anchors(net, ["R0", "R3"])
        plan.annotate_roles(net)
        for node in net.nodes.values():
            for role in node.roles.values():
                assert role.shard == plan.shard_of(node.name)
                assert role.telemetry().get("shard") == plan.shard_of(node.name)


class TestPartitionByRp:
    def test_rp_sites_become_anchors(self):
        net = _line(1.0, 1.0, 1.0)
        table = RpTable()
        table.assign("/1", "R0")
        table.assign("/2", "R3")
        GCopssNetworkBuilder(net, table).install()
        plan = partition_by_rp(net)
        assert plan.anchors == ("R0", "R3")
        assert plan.num_shards == 2
        capped = partition_by_rp(net, max_shards=1)
        assert capped.anchors == ("R0",)

    def test_requires_installed_rps(self):
        net = _line(1.0)
        with pytest.raises(ValueError, match="no RP prefixes"):
            partition_by_rp(net)


class TestDigests:
    def test_canonical_digest_ignores_key_order(self):
        assert canonical_digest({"a": 1, "b": [2, 3]}) == canonical_digest(
            {"b": [2, 3], "a": 1}
        )
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})

    def test_delivery_digest_is_order_insensitive(self):
        entries = [(1, "h0", 2.5), (0, "h1", 3.5)]
        assert delivery_digest(entries) == delivery_digest(entries[::-1])
        assert delivery_digest(entries) != delivery_digest(entries[:1])

    def test_delivery_log_merge(self):
        a, b = DeliveryLog(), DeliveryLog()
        a.record(0, "h0", 1.5)
        b.record(1, "h1", 2.5)
        merged = DeliveryLog()
        merged.merge(a)
        merged.merge(b)
        whole = DeliveryLog()
        whole.record(1, "h1", 2.5)
        whole.record(0, "h0", 1.5)
        assert len(merged) == 2
        assert merged.digest() == whole.digest()


_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from(["h0", "h1", "h 2", 'h"3', "\u00e9\u4e2d", ""]) | st.text(max_size=4),
        st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    ),
    max_size=40,
).flatmap(
    # Duplicate whole rows as well: retransmitted deliveries are a multiset.
    lambda rows: st.lists(st.sampled_from(rows), max_size=8).map(rows.__add__)
    if rows
    else st.just(rows)
)


def _logged(rows):
    log = DeliveryLog()
    for row in rows:
        log.record(*row)
    return log


class TestDeliveryLogColumns:
    """The packed columns are the tuples they replaced, bit for bit."""

    @given(rows=_ROWS)
    def test_columns_digest_like_tuples(self, rows):
        log = _logged(rows)
        assert len(log) == len(rows)
        assert list(log.entries) == rows
        assert list(log.entries) == rows  # a view, not a one-shot iterator
        assert log.digest() == delivery_digest(rows)
        # Compared as reprs: ``-0.0 == 0.0``, and both sorts are stable.
        assert list(map(repr, log.latencies())) == list(
            map(repr, sorted(latency for _, _, latency in rows))
        )

    @given(rows=_ROWS, cuts=st.lists(st.integers(0, 48), max_size=3), flip=st.booleans())
    def test_any_split_and_merge_order_is_the_same_log(self, rows, cuts, flip):
        bounds = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
        parts = [_logged(rows[a:b]) for a, b in zip(bounds, bounds[1:])]
        if flip:
            parts.reverse()
        merged = DeliveryLog()
        for part in parts:
            assert merged.merge(part) is merged
        assert merged.digest() == delivery_digest(rows)
        assert sorted(merged.entries) == sorted(rows)
        assert DeliveryLog.from_columns(**merged.columns()).digest() == merged.digest()

    def test_merging_a_log_into_itself_doubles_it(self):
        log = _logged([(0, "h0", 1.5), (1, "h1", 2.5)])
        log.merge(log)
        assert sorted(log.entries) == [(0, "h0", 1.5)] * 2 + [(1, "h1", 2.5)] * 2

    def test_keys_are_integers(self):
        log = DeliveryLog()
        for key in ("7", 7.0, None, 2**63):
            with pytest.raises((TypeError, OverflowError)):
                log.record(key, "h0", 1.0)
        assert len(log) == 0 and list(log.entries) == []

    def test_at_most_24_bytes_and_no_tracked_object_per_entry(self):
        receivers = [f"p{i:06d}" for i in range(500)]
        log = DeliveryLog()
        for i, receiver in enumerate(receivers):  # steady state: table filled
            log.record(i, receiver, 0.5)
        latencies = [4.6 + i / 7 for i in range(1000)]
        gc.collect()
        tracked = len(gc.get_objects())
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(200_000):
                log.record(i, receivers[i % 500], latencies[i % 1000])
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == 200_500
        assert (after - before) / 200_000 <= 24
        assert len(gc.get_objects()) - tracked <= 8


class TestWindowedEngineSemantics:
    """The two run() contracts the window loop leans on."""

    def test_exclusive_horizon_leaves_horizon_events_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(2.0, seen.append, "b")
        sim.run(until=2.0, inclusive=False)
        assert seen == ["a"]
        # The clock stays at the last executed event, not the horizon —
        # a fully drained shard must report the serial final time.
        assert sim.now == 1.0
        sim.run(until=2.0, inclusive=True)
        assert seen == ["a", "b"]
        assert sim.now == 2.0

    def test_inclusive_horizon_advances_idle_clock(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0


def _two_region_net():
    """Two cores, one cross-region link, a host on each side."""
    net = Network()
    GCopssRouter(net, "coreA")
    GCopssRouter(net, "coreB")
    net.connect("coreA", "coreB", 2.0)
    hosts = []
    for name, core in (("hA", "coreA"), ("hB", "coreB")):
        hosts.append(GCopssHost(net, name))
        net.connect(name, core, 0.5)
    table = RpTable()
    table.assign("/1", "coreA")
    GCopssNetworkBuilder(net, table).install()
    return net, hosts


class TestShardedExecutor:
    def test_rejects_network_with_pending_events(self):
        net, hosts = _two_region_net()
        hosts[0].subscribe(["/1"])  # schedules the Subscribe arrival
        plan = partition_by_anchors(net, ["coreA", "coreB"])
        with pytest.raises(RuntimeError, match="already pending"):
            ShardedExecutor(net, plan)

    def test_network_clock_reads_but_refuses_to_schedule(self):
        net, _hosts = _two_region_net()
        executor = ShardedExecutor(
            net, partition_by_anchors(net, ["coreA", "coreB"])
        )
        assert net.sim.now == 0.0
        assert net.sim.pending() == 0
        assert net.sim.telemetry()["events_pending"] == 0
        with pytest.raises(RuntimeError, match="schedule through the owning node"):
            net.sim.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError, match="schedule through the owning node"):
            net.sim.run()
        assert executor.lookahead_ms == 2.0

    def test_boundary_clock_refuses_timers(self):
        net, _hosts = _two_region_net()
        ShardedExecutor(net, partition_by_anchors(net, ["coreA", "coreB"]))
        boundary = next(
            link for link in net.links if link.delay == 2.0
        )
        with pytest.raises(RuntimeError, match="node's own shard clock"):
            boundary.sim.schedule(1.0, lambda: None)

    def test_schedule_external_requires_known_node(self):
        net, _hosts = _two_region_net()
        executor = ShardedExecutor(
            net, partition_by_anchors(net, ["coreA", "coreB"])
        )
        with pytest.raises(KeyError):
            executor.schedule_external("ghost", 1.0, lambda: None)

    def test_cross_shard_delivery_runs_windows(self):
        net, hosts = _two_region_net()
        executor = ShardedExecutor(
            net, partition_by_anchors(net, ["coreA", "coreB"])
        )
        got = []
        hosts[1].on_update.append(lambda h, p: got.append(p.sequence))
        hosts[1].subscribe(["/1"])
        executor.run(until=100.0)
        executor.schedule_external(
            "hA", 100.0, hosts[0].publish, "/1", 10, 7
        )
        executor.run(until=200.0)
        assert got == [7]
        assert executor.windows_run > 0
        assert executor.transit_messages > 0
        assert executor.now == 200.0
        stats = executor.telemetry()
        assert stats["shards"] == 2
        assert stats["lookahead_ms"] == 2.0
        assert stats["windows_run"] == executor.windows_run

    def test_record_in_flight_across_run_calls(self):
        """Converge-then-run in small steps: held records count as pending,
        and stopping with one in flight changes nothing."""
        def play(executor_of, steps):
            net, hosts = _two_region_net()
            executor, log, held = executor_of(net), DeliveryLog(), 0
            hosts[1].on_update.append(lambda h, p: log.record(p.sequence, h.name, h.sim.now))
            hosts[1].subscribe(["/1"])
            for i in range(5):
                executor.schedule_external("hA", 50.0 + i, hosts[0].publish, "/1", 10, i)
            for until in steps:
                executor.run(until=until)
                queued = sum(sim.pending() for sim in getattr(executor, "shard_sims", []))
                held = max(held, net.sim.pending() - queued)
            return log.digest(), held

        serial, _ = play(SerialExecutor, [100.0])
        sharded, held = play(
            lambda net: ShardedExecutor(net, partition_by_anchors(net, ["coreA", "coreB"])),
            [50.0 + 0.25 * i for i in range(1, 200)],
        )
        assert held > 0 and sharded == serial

    def test_idle_run_advances_all_shards(self):
        net, _hosts = _two_region_net()
        executor = ShardedExecutor(
            net, partition_by_anchors(net, ["coreA", "coreB"])
        )
        executor.run(until=50.0)
        assert all(sim.now == 50.0 for sim in executor.shard_sims)


class TestEgress:
    def test_collector_and_worker_sink_see_the_same_records(self):
        packets = [MulticastPacket(cd="/1", payload_size=n) for n in (10, 20, 30)]

        def send_all(net):
            r1, r2 = net.nodes["R1"], net.nodes["R2"]
            for packet, (src, dst) in zip(packets, [(r1, r2), (r2, r1), (r1, r2)]):
                src.face_toward(dst).send(packet)

        net = _line(1.0, 2.5, 1.0)
        plan = partition_by_anchors(net, ["R0", "R3"])
        executor = ShardedExecutor(net, plan)
        send_all(net)

        net = _line(1.0, 2.5, 1.0)
        worker = []
        egress = Egress(worker.append)
        for link in plan.boundary_links(net):
            link.sim = egress
        send_all(net)
        assert executor._outbox == worker == [
            (2.5, 1, 0, "R2", "R1", packets[0]),
            (2.5, 2, 1, "R1", "R2", packets[1]),
            (2.5, 1, 2, "R2", "R1", packets[2]),
        ]


class TestWindowRule:
    """Every window is ``[next, next + W)``: no wider, no extra barriers."""

    PUBLISHES = [100.0, 100.3, 101.9, 140.0, 141.5, 143.0, 190.0]

    def _play(self, executor_of):
        """Subscribe hB, publish from hA at the known times; no horizon."""
        net, hosts = _two_region_net()
        executor = executor_of(net)
        log = DeliveryLog()
        hosts[1].on_update.append(
            lambda host, packet: log.record(packet.sequence, host.name, host.sim.now)
        )
        hosts[1].subscribe(["/1"])
        for i, time in enumerate(self.PUBLISHES):
            executor.schedule_external("hA", time, hosts[0].publish, "/1", 10, i)
        return net, executor, log

    def test_windows_run_counts_the_busy_windows(self):
        # Serial twin, stepped one event at a time: every time anything ran.
        net, _serial, serial_log = self._play(SerialExecutor)
        busy_times = []
        while net.sim.step():
            busy_times.append(net.sim.now)
        assert busy_times == sorted(busy_times) and len(serial_log) == 7

        _net, sharded, sharded_log = self._play(
            lambda net: ShardedExecutor(net, partition_by_anchors(net, ["coreA", "coreB"]))
        )
        lookahead = sharded.lookahead_ms
        assert lookahead == 2.0
        sharded.run()

        # Greedy cover: a window opens at the earliest time not yet covered
        # and closes ``W`` later, exclusive.
        windows = 0
        closes = float("-inf")
        for time in busy_times:
            if time >= closes:
                windows += 1
                closes = time + lookahead
        assert sharded.windows_run == windows
        assert sharded_log.digest() == serial_log.digest()
        assert sharded.events_processed == len(busy_times)

    def test_window_horizon_cases(self):
        inf = float("inf")
        assert window_horizon(10.0, 2.0, None) == (12.0, False)
        assert window_horizon(10.0, 2.0, 12.0) == (12.0, False)
        # Overshooting the horizon: one inclusive pass to it.
        assert window_horizon(10.0, 2.0, 11.0) == (11.0, True)
        # No boundary at all: drain (or run to the horizon) in one pass.
        assert window_horizon(10.0, inf, None) == (None, True)
        assert window_horizon(10.0, inf, 50.0) == (50.0, True)


class _RecordingRegistry:
    def __init__(self):
        self.samples = []

    def sample(self, now):
        self.samples.append(now)


class TestBarrierMetrics:
    def test_ticks_fire_at_nominal_times(self):
        net, hosts = _two_region_net()
        executor = ShardedExecutor(
            net, partition_by_anchors(net, ["coreA", "coreB"])
        )
        registry = _RecordingRegistry()
        expected = executor.attach_metrics(registry, interval_ms=10.0, until=50.0)
        hosts[1].subscribe(["/1"])
        executor.run(until=50.0)
        # Samples are stamped with the nominal tick time, no matter which
        # barrier evaluated them.
        assert registry.samples == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert expected == len(registry.samples)

    def test_bad_interval_rejected(self):
        net, _hosts = _two_region_net()
        executor = ShardedExecutor(
            net, partition_by_anchors(net, ["coreA", "coreB"])
        )
        with pytest.raises(ValueError, match="interval_ms"):
            executor.attach_metrics(_RecordingRegistry(), 0.0, 100.0)


class TestScaleModes:
    """Cheap digest cross-checks; the big sweeps are slow-marked."""

    SPEC = ScaleSpec(
        players=48, regions=4, access_per_region=2, updates=60, seed=5
    )

    def test_inproc_sharding_matches_serial(self):
        serial = run_scale(self.SPEC)
        assert serial["mode"] == "serial"
        assert serial["deliveries"] > 0
        for shards in (2, 4):
            sharded = run_scale(self.SPEC, shards=shards)
            assert sharded["mode"] == f"inproc:{shards}"
            assert sharded["digest"] == serial["digest"]
            assert sharded["events_processed"] == serial["events_processed"]
            assert sharded["network_bytes"] == serial["network_bytes"]

    def test_sharded_run_is_repeatable(self):
        first = run_scale(self.SPEC, shards=2)
        second = run_scale(self.SPEC, shards=2)
        assert first["digest"] == second["digest"]

    def test_no_fork_fallback_is_labelled_inproc(self, monkeypatch):
        """Without a fork start method ``workers=N`` runs in this process."""
        import multiprocessing

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        result = run_scale(self.SPEC, workers=2)
        assert result["mode"] == "inproc:2"
        assert result["fallback"] == "in-process (no fork start method)"
        assert result["digest"] == run_scale(self.SPEC)["digest"]

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least one region"):
            ScaleSpec(regions=0)
        with pytest.raises(ValueError, match="player per region"):
            ScaleSpec(players=2, regions=4)
        with pytest.raises(ValueError, match="world_fraction"):
            ScaleSpec(world_fraction=1.5)
        with pytest.raises(ValueError, match="shards must be"):
            run_scale(self.SPEC, shards=5)
