"""Live testbed vs simulator: the differential that anchors live-wire mode.

One tier-1 smoke (3 routers, real processes, real TCP/UDP, < 5 s) proves
the live cluster and the discrete-event simulator agree *exactly* on
delivery counts, per-CD publication/subscription counters and drop
totals for the same seeded trace — and that the testbed shuts down
cleanly: no orphan processes, every ephemeral port released and
rebindable, also when a runner has died or the driver just goes away.
A ``slow``-marked sweep replays the 5-router benchmark topology across
seeds.

Also here: unit tests for :class:`~repro.net.clock.LiveClock` — the
timer wheel must pop in deadline order (ASAP mode) and honor
cancellation, because the differential's exactness argument leans on
timers firing with discrete-event semantics.
"""

import asyncio
import socket

import pytest

from repro.net.clock import LiveClock
from repro.net.testbed import LiveTestbed, run_differential
from repro.net.world import (
    compare_reports,
    make_trace,
    run_reference,
    smoke_spec,
    sweep_spec,
)


class TestLiveClock:
    def test_timers_pop_in_deadline_order_asap(self):
        clock = LiveClock(time_scale=0.0)
        fired = []

        async def scenario():
            clock.schedule(3.0, fired.append, "c")
            clock.schedule(1.0, fired.append, "a")
            clock.schedule(2.0, fired.append, "b")
            # A timer scheduled *by* a timer lands relative to its
            # parent's deadline — the discrete-event contract.
            clock.schedule(1.5, lambda: clock.schedule(0.2, fired.append, "a2"))
            task = asyncio.ensure_future(clock.run())
            while clock.pending():
                await asyncio.sleep(0)
            clock.stop()
            await task

        asyncio.run(scenario())
        assert fired == ["a", "a2", "b", "c"]

    def test_cancelled_timers_never_fire(self):
        clock = LiveClock(time_scale=0.0)
        fired = []

        async def scenario():
            keep = clock.schedule(1.0, fired.append, "keep")
            drop = clock.schedule(0.5, fired.append, "drop")
            drop.cancelled = True
            assert clock.pending() == 1
            task = asyncio.ensure_future(clock.run())
            while clock.pending():
                await asyncio.sleep(0)
            clock.stop()
            await task
            assert not keep.cancelled

        asyncio.run(scenario())
        assert fired == ["keep"]

    def test_negative_delay_is_rejected(self):
        clock = LiveClock(time_scale=0.0)
        with pytest.raises(ValueError):
            clock.schedule(-0.1, lambda: None)


def assert_ports_released(ports):
    """The OS lets us rebind each port at once.

    SO_REUSEADDR skips TIME_WAIT ghosts from the just-closed connections
    but still fails if a live listener held the port (asyncio.start_server
    binds with the same flag).
    """
    for tcp_port, udp_port in ports.values():
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", tcp_port))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.bind(("127.0.0.1", udp_port))


@pytest.mark.timeout(120)
class TestLiveSmoke:
    def test_three_router_differential_and_clean_shutdown(self):
        spec = smoke_spec()
        trace = make_trace(spec, seed=7, events=40)
        bed = LiveTestbed(spec)
        try:
            bed.start()
            ports = dict(bed.ports)
            bed.quiesce()
            bed.subscribe_phase()
            perf = bed.play(trace)
            live = bed.collect()
        except BaseException:
            bed.kill()
            raise
        else:
            bed.shutdown()  # raises on nonzero exit or hung runner

        # --port 0 handed every runner distinct, real ephemeral ports.
        assert len(ports) == len(spec["routers"])
        flat = [p for pair in ports.values() for p in pair]
        assert all(p > 0 for p in flat)
        assert len(set(flat)) == len(flat)

        # No orphans: every child has exited, and exited cleanly.
        for node, proc in bed.procs.items():
            assert proc.poll() == 0, f"{node} still running or died dirty"

        assert_ports_released(ports)

        # The differential proper: exact agreement with the simulator.
        sim = run_reference(spec, trace)
        assert compare_reports(live, sim) == []
        assert live["deliveries_total"] > 0
        assert live["published_total"] == len(trace)
        # Exactly-once injection: every trace event executed once, via
        # UDP or the TCP drain backstop, never twice.
        assert perf["udp_received"] + perf["tcp_resent"] == len(trace)


@pytest.mark.timeout(60)
class TestLiveTeardown:
    """A failed or abandoned cluster still ends with no child left."""

    @staticmethod
    def reaped_after(act):
        bed = LiveTestbed(smoke_spec())
        bed.start()
        procs, ports = dict(bed.procs), dict(bed.ports)
        try:
            act(bed)
        finally:
            bed.kill()
        assert all(proc.poll() is not None for proc in procs.values())
        assert_ports_released(ports)
        return procs

    def test_shutdown_reaps_every_runner_when_one_has_died(self):
        def act(bed):
            bed.procs["R2"].kill()
            bed.procs["R2"].wait(timeout=10)
            with pytest.raises(RuntimeError, match="R2") as failed:
                bed.shutdown()
            assert "R1" not in str(failed.value) and "R3" not in str(failed.value)
            assert bed._tmp is None

        procs = self.reaped_after(act)
        assert procs["R1"].returncode == procs["R3"].returncode == 0

    def test_runner_exits_when_its_driver_disconnects(self):
        def act(bed):
            for conn in bed.conns.values():
                conn.close()  # no shutdown op: the driver just goes away
            for proc in bed.procs.values():
                assert proc.wait(timeout=10) == 0

        self.reaped_after(act)


@pytest.mark.slow
@pytest.mark.timeout(300)
class TestLiveSweep:
    @pytest.mark.parametrize("seed", [1, 23])
    def test_five_router_differential(self, seed):
        spec = sweep_spec()
        trace = make_trace(spec, seed=seed, events=120)
        result = run_differential(spec, trace)
        assert result["mismatches"] == []
        assert result["match"]
        assert result["live"]["deliveries_total"] > 0
        assert result["perf"]["packets_per_s_per_core"] > 0
