"""Tests for the discrete-event simulator core."""

import gc

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(9.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_schedule_during_run(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, order.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        hit = []
        sim.schedule(0.0, hit.append, 1)
        sim.run()
        assert hit == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hit = []
        handle = sim.schedule(1.0, hit.append, "x")
        handle.cancel()
        sim.run()
        assert hit == []

    def test_cancel_inside_callback(self):
        sim = Simulator()
        hit = []
        later = sim.schedule(2.0, hit.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert hit == []

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        a = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        a.cancel()
        assert sim.peek_time() == 2.0


class TestRunControl:
    def test_until_horizon_leaves_future_events(self):
        sim = Simulator()
        hit = []
        sim.schedule(1.0, hit.append, 1)
        sim.schedule(10.0, hit.append, 2)
        sim.run(until=5.0)
        assert hit == [1]
        assert sim.now == 5.0
        sim.run()
        assert hit == [1, 2]

    def test_stop_from_callback(self):
        sim = Simulator()
        hit = []
        sim.schedule(1.0, lambda: (hit.append(1), sim.stop()))
        sim.schedule(2.0, hit.append, 2)
        sim.run()
        assert hit == [1]

    def test_max_events_bound(self):
        sim = Simulator()
        count = []

        def loop():
            count.append(1)
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        sim.run(max_events=25)
        assert len(count) == 25

    def test_zero_max_events_runs_nothing(self):
        sim = Simulator()
        hit = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, hit.append, tag)
        sim.run(max_events=0)
        assert hit == []
        assert sim.pending() == 3
        assert sim.events_processed == 0
        sim.run()
        assert hit == ["a", "b", "c"]

    def test_negative_max_events_rejected(self):
        sim = Simulator()
        hit = []
        sim.schedule(1.0, hit.append, "a")
        with pytest.raises(ValueError):
            sim.run(max_events=-5)
        assert hit == []
        sim.run()  # the rejected call must not leave the loop marked running
        assert hit == ["a"]

    def test_step_processes_one_event(self):
        sim = Simulator()
        hit = []
        sim.schedule(1.0, hit.append, "a")
        sim.schedule(2.0, hit.append, "b")
        assert sim.step()
        assert hit == ["a"]
        assert sim.step()
        assert not sim.step()

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            with pytest.raises(RuntimeError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 7


def _burst(sim, k, delay, sort_origin, log, on_fire=None):
    """k back-to-back arrivals from one sender on one tick (a fan-out)."""
    handles = []
    for i in range(k):
        def cb(i=i):
            log.append(f"m{i}")
            if on_fire is not None:
                on_fire(i)
        handles.append(sim.schedule_link(delay, sort_origin, sort_origin, cb))
    return handles


class TestSameTickBurstOrder:
    """The ``(time, origin, seq)`` contract on a same-(tick, sender) burst.

    The sharded executor relies on exactly this order to reproduce the
    serial schedule shard-locally.
    """

    def test_members_count_toward_max_events(self):
        sim = Simulator()
        log = []
        _burst(sim, 4, 1.0, 5, log)
        sim.run(max_events=2)
        assert log == ["m0", "m1"]
        assert sim.events_processed == 2
        assert sim.pending() == 2
        sim.run()
        assert log == ["m0", "m1", "m2", "m3"]
        assert sim.events_processed == 4
        assert sim.pending() == 0

    def test_cancelled_member_is_skipped_and_not_counted(self):
        sim = Simulator()
        log = []
        handles = _burst(sim, 3, 1.0, 5, log)
        handles[1].cancel()
        sim.run()
        assert log == ["m0", "m2"]
        assert sim.events_processed == 2
        assert sim.pending() == 0

    def test_member_callback_can_cancel_later_member(self):
        sim = Simulator()
        log = []
        handles = _burst(sim, 3, 1.0, 5, log, on_fire=lambda i: i == 0 and handles[2].cancel())
        sim.run()
        assert log == ["m0", "m1"]
        assert sim.events_processed == 2

    def test_same_tick_lower_origin_runs_before_remainder(self):
        # A member callback schedules a zero-delay arrival whose sender
        # rank sorts *before* the burst's: it runs next, mid-burst.
        sim = Simulator()
        log = []

        def on_fire(i):
            if i == 0:
                sim.schedule_link(0.0, 0, 0, lambda: log.append("preempt"))

        _burst(sim, 3, 1.0, 5, log, on_fire=on_fire)
        sim.run()
        assert log == ["m0", "preempt", "m1", "m2"]

    def test_same_tick_higher_origin_runs_after_burst(self):
        sim = Simulator()
        log = []

        def on_fire(i):
            if i == 0:
                sim.schedule_link(0.0, 9, 9, lambda: log.append("after"))

        _burst(sim, 3, 1.0, 5, log, on_fire=on_fire)
        sim.run()
        assert log == ["m0", "m1", "m2", "after"]

    def test_exclusive_horizon_excludes_tick(self):
        sim = Simulator()
        log = []
        _burst(sim, 3, 1.0, 5, log)
        sim.run(until=1.0, inclusive=False)
        assert log == []
        assert sim.pending() == 3
        sim.run(until=1.0, inclusive=True)
        assert log == ["m0", "m1", "m2"]

    def test_stop_mid_burst_resumes_in_order(self):
        sim = Simulator()
        log = []
        _burst(sim, 4, 1.0, 5, log, on_fire=lambda i: i == 1 and sim.stop())
        sim.run()
        assert log == ["m0", "m1"]
        assert sim.pending() == 2
        sim.run()
        assert log == ["m0", "m1", "m2", "m3"]
        assert sim.events_processed == 4


def _run_with_raising_callback(sim):
    sim.schedule(1.5, lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        sim.run()


#: Every way out of ``Simulator.run`` with events at t = 1, 2, 3 queued.
RUN_EXITS = {
    "drain": lambda sim: sim.run(),
    "inclusive horizon": lambda sim: sim.run(until=2.0),
    "exclusive horizon": lambda sim: sim.run(until=2.0, inclusive=False),
    "stop": lambda sim: (sim.schedule(1.5, sim.stop), sim.run()),
    "max_events": lambda sim: sim.run(max_events=1),
    "raising callback": _run_with_raising_callback,
}


class TestCollectorContract:
    """``run`` suspends the cyclic collector and restores the caller's state.

    Counts and booleans, so they gate where a timing cannot.
    """

    @staticmethod
    def _loaded():
        sim = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule(time, lambda: seen.append(gc.isenabled()))
        return sim, seen

    @pytest.fixture(params=[True, False], ids=["gc on", "gc off"])
    def collecting(self, request):
        """Run the test with the collector in one state; put it back after."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("exit_path", RUN_EXITS)
    def test_state_restored_on_every_exit(self, collecting, exit_path):
        sim, seen = self._loaded()
        RUN_EXITS[exit_path](sim)
        assert gc.isenabled() is collecting
        # Every callback that ran saw the collector off.
        assert seen and not any(seen)

    def test_rejected_runs_leave_the_collector_alone(self, collecting):
        sim, _ = self._loaded()
        with pytest.raises(ValueError):
            sim.run(max_events=-1)
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as error:
                errors.append(error)
            # The rejected inner call must not have re-enabled it mid-run.
            errors.append(gc.isenabled())

        sim.schedule(0.5, reenter)
        sim.run()
        assert isinstance(errors[0], RuntimeError) and errors[1] is False
        assert gc.isenabled() is collecting

    def test_no_full_collection_inside_a_long_run(self):
        """50,000 self-scheduling events over a 10^5-object ballast: the
        seed ran full passes here (each parks tracked handles, tuples and
        bound methods); now none fire until ``run`` returns."""
        ballast = [[i] for i in range(100_000)]
        sim = Simulator()
        remaining = [50_000]
        inside = []

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1.0, tick)
                # Keep survivors pending, as parked arrivals do.
                sim.schedule(1e9, ballast.append, [remaining[0]])
            else:
                inside.append(gc.get_stats()[2]["collections"])
                sim.stop()

        sim.schedule(1.0, tick)
        gc.collect()
        before = gc.get_stats()[2]["collections"]
        sim.run()
        assert sim.events_processed == 50_000
        assert inside == [before]
