"""Tests for the discrete-event simulator core."""

import gc
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim.engine import EXTERNAL_ORIGIN, Simulator


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
        sim.run(max_events=1)
        assert hit == ["a"] and sim.now == 1.0
        sim.run(max_events=1)
        assert hit == ["a", "b"]
        assert sim.peek_time() is None

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
        _burst(sim, 4, 1.0, 5, log)
        sim.run(max_events=2)
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

        sim.schedule(1.0, tick)
        gc.collect()
        before = gc.get_stats()[2]["collections"]
        sim.run(max_events=50_000)  # the ticks; the ballast events come after
        assert sim.events_processed == 50_000
        assert inside == [before]


class _World:
    """One simulator and the stand-in receivers a fan-out reaches.

    ``bursts`` picks how a fan-out is scheduled: one
    :meth:`Simulator.schedule_burst` entry, or the per-arrival
    :meth:`Simulator.schedule_link` calls it stands for.  Everything
    that runs appends ``(tag, now, origin)`` to ``log``.
    """

    def __init__(self, bursts: bool) -> None:
        self.sim = Simulator()
        self.bursts = bursts
        self.log = []
        self.arrivals = 0

    def fan_out(self, delay, sender, packet, members) -> None:
        sim = self.sim
        faces = [
            SimpleNamespace(peer=_Peer(self, rank, reactions), peer_face=None)
            for rank, reactions in members
        ]
        if self.bursts:
            sim.schedule_burst(sim.now + delay, sender, packet, faces)
        else:
            for face in faces:
                peer = face.peer
                sim.schedule_link(delay, sender, peer.rank, peer.receive, packet, face.peer_face)

    def note(self, tag) -> None:
        self.log.append((tag, self.sim.now, self.sim.origin))


class _Peer:
    """A receiver that logs each arrival, then replays its reactions:
    zero-delay arrivals from any origin, zero-delay and later timers of
    its own, or a zero-delay fan-out of its own."""

    def __init__(self, world, rank, reactions) -> None:
        self.world = world
        self.rank = rank
        self.reactions = reactions

    def receive(self, packet, face) -> None:
        world = self.world
        sim = world.sim
        world.arrivals += 1
        tag = f"{packet}>{self.rank}"
        world.note(tag)
        for n, (kind, origin) in enumerate(self.reactions):
            sub = f"{tag}.{n}"
            if kind == "arrival":
                sim.schedule_link(0.0, origin, origin, world.note, sub)
            elif kind == "timer":
                sim.schedule(0.0, world.note, sub)
            elif kind == "later":
                sim.schedule(0.5, world.note, sub)
            else:
                world.fan_out(0.0, self.rank, sub, [(origin, ()), (origin + 1, ())])


_RANKS = st.integers(0, 6)
_REACTIONS = st.lists(
    st.tuples(st.sampled_from(["arrival", "timer", "later", "fan-out"]), _RANKS), max_size=3
)
_MEMBERS = st.lists(st.tuples(_RANKS, _REACTIONS), min_size=1, max_size=5)
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


class BurstsMatchPerArrivalEntries(RuleBasedStateMachine):
    """A simulator fed bursts behaves as its twin fed one entry per member.

    Reactions put events inside a running burst's ``(time, origin)`` key
    range — lower, equal and higher origins at the same time — so the
    order guard and its re-push are exercised; the runs cut bursts by
    ``max_events`` and by horizons.
    """

    def __init__(self) -> None:
        super().__init__()
        self.bursts = _World(bursts=True)
        self.twin = _World(bursts=False)
        self.fan_outs = 0

    def _both(self, act) -> None:
        act(self.bursts)
        act(self.twin)

    @rule(delay=_DELAYS, sender=st.integers(EXTERNAL_ORIGIN, 6), members=_MEMBERS)
    def fan_out(self, delay, sender, members):
        self.fan_outs += 1
        packet = f"f{self.fan_outs}"
        self._both(lambda world: world.fan_out(delay, sender, packet, members))

    @rule(delay=_DELAYS, origin=st.integers(EXTERNAL_ORIGIN, 6))
    def arrival(self, delay, origin):
        tag = f"a{self.fan_outs}.{origin}"
        self._both(
            lambda world: world.sim.schedule_link(delay, origin, origin, world.note, tag)
        )

    @rule(max_events=st.integers(0, 6))
    def run_some(self, max_events):
        self._both(lambda world: world.sim.run(max_events=max_events))

    @rule(ahead=_DELAYS, inclusive=st.booleans())
    def run_until(self, ahead, inclusive):
        until = self.twin.sim.now + ahead
        self._both(lambda world: world.sim.run(until=until, inclusive=inclusive))

    @rule()
    def drain(self):
        self._both(lambda world: world.sim.run())

    @invariant()
    def same_history(self):
        burst_sim, twin_sim = self.bursts.sim, self.twin.sim
        assert self.bursts.log == self.twin.log
        assert burst_sim.now == twin_sim.now
        assert burst_sim.origin == twin_sim.origin
        assert burst_sim.events_processed == twin_sim.events_processed
        assert burst_sim.pending() == twin_sim.pending()
        assert burst_sim.telemetry() == twin_sim.telemetry()
        assert burst_sim.peek_time() == twin_sim.peek_time()
        assert burst_sim.batch_members == self.bursts.arrivals
        assert twin_sim.batch_pops == twin_sim.batch_members == 0


TestBurstsMatchPerArrivalEntries = BurstsMatchPerArrivalEntries.TestCase


class TestBurstEntry:
    def test_members_run_in_send_order_under_the_receivers_rank(self):
        world = _World(bursts=True)
        world.fan_out(1.0, 5, "p", [(3, ()), (1, ()), (2, ())])
        assert world.sim.pending() == 3
        world.sim.run()
        assert world.log == [("p>3", 1.0, 3), ("p>1", 1.0, 1), ("p>2", 1.0, 2)]
        assert (world.sim.events_processed, world.sim.batch_pops, world.sim.batch_members) == (3, 1, 3)

    def test_a_raising_member_is_consumed_and_the_rest_stay_queued(self):
        world = _World(bursts=True)
        world.fan_out(1.0, 5, "p", [(1, ()), (2, ()), (3, ())])
        faces = world.sim._heap[0][3].faces
        faces[1].peer.receive = lambda packet, face: 1 / 0
        with pytest.raises(ZeroDivisionError):
            world.sim.run()
        assert world.sim.events_processed == 1
        assert world.sim.pending() == 1
        world.sim.run()
        assert [tag for tag, _, _ in world.log] == ["p>1", "p>3"]
        assert world.sim.events_processed == 2
