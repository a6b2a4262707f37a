"""Tests for the seeded fault-injection plane (`repro.sim.faults`)."""

import pytest

from repro.packets import Packet
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    LinkFaults,
    NodeFaults,
)
from repro.sim.network import Network, Node


class Sink(Node):
    """Test node recording everything it receives."""

    def __init__(self, network, name):
        super().__init__(network, name)
        self.inbox = []
        self.resets = 0

    def receive(self, packet, face):
        self.inbox.append((self.sim.now, packet))

    def crash_reset(self):
        self.resets += 1
        self.inbox.clear()


class ControlPkt(Packet):
    """A bare packet marked as control-plane traffic."""

    is_control = True


def make_pair(delay=1.0):
    net = Network()
    a = Sink(net, "a")
    b = Sink(net, "b")
    link = net.connect(a, b, delay)
    return net, a, b, link


def blast(net, a, b, n, make_packet=lambda i: Packet(size=10), spacing=1.0):
    """Schedule ``n`` sends from a to b, run, return packets b received."""
    face = a.face_toward(b)
    for i in range(n):
        net.sim.schedule_at(net.sim.now + i * spacing, face.send, make_packet(i))
    net.sim.run()
    return [p for _, p in b.inbox]


class TestSpecValidation:
    def test_probabilities_checked(self):
        with pytest.raises(ValueError):
            LinkFaults(loss=1.5)
        with pytest.raises(ValueError):
            GilbertElliott(p_good_to_bad=-0.1)
        with pytest.raises(ValueError):
            LinkFaults(jitter_ms=-1.0)
        with pytest.raises(ValueError):
            LinkFaults(scope="sometimes")
        with pytest.raises(ValueError):
            LinkFaults(down=((5.0, 5.0),))

    def test_node_faults_ordering(self):
        with pytest.raises(ValueError):
            NodeFaults(crash_at=-1.0)
        with pytest.raises(ValueError):
            NodeFaults(crash_at=10.0, restart_at=10.0)

    def test_install_rejects_unknown_names(self):
        net, *_ = make_pair()
        with pytest.raises(ValueError, match="unknown links"):
            FaultInjector(net, FaultPlan(links={"nope": LinkFaults(loss=0.5)})).install()
        with pytest.raises(ValueError, match="unknown nodes"):
            FaultInjector(net, FaultPlan(nodes={"ghost": NodeFaults(crash_at=1)})).install()

    def test_double_arming_one_link_raises(self):
        net, *_ = make_pair()
        plan = FaultPlan(links={"a<->b": LinkFaults(loss=0.5)})
        FaultInjector(net, plan).install()
        with pytest.raises(RuntimeError, match="already has a fault hook"):
            FaultInjector(net, plan).install()


class TestArming:
    def test_no_plan_leaves_nil_fast_path(self):
        net, a, b, link = make_pair()
        assert link.fault_hook is None
        assert blast(net, a, b, 5) and len(b.inbox) == 5

    def test_noop_spec_is_not_armed(self):
        net, _, _, link = make_pair()
        plan = FaultPlan(links={"a<->b": LinkFaults()})
        FaultInjector(net, plan).install()
        assert link.fault_hook is None

    def test_uninstall_restores_nil_path(self):
        net, a, b, link = make_pair()
        injector = FaultInjector(
            net, FaultPlan(links={"a<->b": LinkFaults(loss=1.0)})
        ).install()
        assert link.fault_hook is not None
        injector.uninstall()
        assert link.fault_hook is None
        assert len(blast(net, a, b, 4)) == 4

    def test_transmit_entry_point_passes_through_hook(self):
        # Face.send is the one entry point onto a link: a drop there
        # leaves no wire trace.
        net, a, b, link = make_pair()
        FaultInjector(net, FaultPlan(links={"a<->b": LinkFaults(loss=1.0)})).install()
        a.face_toward(b).send(Packet(size=10))
        net.sim.run()
        assert b.inbox == []
        assert link.packets_carried == 0  # dropped at egress: no wire trace


class TestBernoulli:
    def test_loss_rate_and_counters(self):
        net, a, b, link = make_pair()
        injector = FaultInjector(
            net, FaultPlan(seed=5, links={"a<->b": LinkFaults(loss=0.3)})
        ).install()
        got = blast(net, a, b, 2000)
        lost = 2000 - len(got)
        assert injector.stats.dropped == lost
        assert injector.stats.drops_by_link[(("a", "b"), "random")] == lost
        assert 0.25 < lost / 2000 < 0.35
        assert link.packets_carried == len(got)

    def test_same_seed_same_drop_pattern(self):
        def run(seed):
            net, a, b, _ = make_pair()
            FaultInjector(
                net, FaultPlan(seed=seed, links={"a<->b": LinkFaults(loss=0.3)})
            ).install()
            packets = [Packet(size=10) for _ in range(300)]
            got = set(
                id(p) for p in blast(net, a, b, 300, make_packet=lambda i: packets[i])
            )
            return [i for i, p in enumerate(packets) if id(p) not in got]

        assert run(seed=9) == run(seed=9)
        assert run(seed=9) != run(seed=10)


class TestScope:
    def test_control_scope_spares_data(self):
        net, a, b, _ = make_pair()
        injector = FaultInjector(
            net,
            FaultPlan(links={"a<->b": LinkFaults(loss=1.0, scope="control")}),
        ).install()
        got = blast(
            net, a, b, 40,
            make_packet=lambda i: ControlPkt(size=1) if i % 2 else Packet(size=1),
        )
        assert all(not p.is_control for p in got)
        assert len(got) == 20
        assert injector.stats.dropped == 20

    def test_data_scope_spares_control(self):
        net, a, b, _ = make_pair()
        FaultInjector(
            net, FaultPlan(links={"a<->b": LinkFaults(loss=1.0, scope="data")})
        ).install()
        got = blast(
            net, a, b, 40,
            make_packet=lambda i: ControlPkt(size=1) if i % 2 else Packet(size=1),
        )
        assert all(p.is_control for p in got)

    def test_out_of_scope_packets_do_not_advance_rng(self):
        # The control-drop pattern must be invariant to how much data
        # traffic shares the link.
        def control_fates(data_between):
            net, a, b, _ = make_pair()
            FaultInjector(
                net,
                FaultPlan(seed=3, links={"a<->b": LinkFaults(loss=0.4, scope="control")}),
            ).install()
            controls = [ControlPkt(size=1) for _ in range(100)]

            def make(i):
                if i % (data_between + 1) == 0:
                    return controls[i // (data_between + 1)]
                return Packet(size=1)

            n = 100 * (data_between + 1)
            got = set(id(p) for p in blast(net, a, b, n, make_packet=make))
            return [id(c) in got for c in controls]

        assert control_fates(data_between=0) == control_fates(data_between=7)


class TestDownWindowsAndJitter:
    def test_down_window_drops_everything_in_scope_or_not(self):
        net, a, b, _ = make_pair(delay=0.5)
        injector = FaultInjector(
            net,
            FaultPlan(
                links={"a<->b": LinkFaults(down=((10.0, 20.0),), scope="control")}
            ),
        ).install()
        got = blast(net, a, b, 30, make_packet=lambda i: Packet(size=1), spacing=1.0)
        # sends at t=0..29; t in [10, 20) are dropped regardless of scope
        assert len(got) == 20
        assert injector.stats.drops_by_link[(("a", "b"), "down")] == 10

    def test_jitter_delays_within_bound(self):
        net, a, b, _ = make_pair(delay=2.0)
        injector = FaultInjector(
            net, FaultPlan(links={"a<->b": LinkFaults(jitter_ms=5.0)})
        ).install()
        face = a.face_toward(b)
        for _ in range(50):
            face.send(Packet(size=1))
        net.sim.run()
        assert len(b.inbox) == 50
        arrival_delays = [t - 0.0 for t, _ in b.inbox]
        assert all(2.0 <= d < 7.0 for d in arrival_delays)
        assert injector.stats.delayed == 50
        assert injector.stats.extra_delay_ms > 0


class TestGilbertElliott:
    def test_bursts_cluster_losses(self):
        net, a, b, _ = make_pair()
        burst = GilbertElliott(p_good_to_bad=0.05, p_bad_to_good=0.25)
        FaultInjector(
            net, FaultPlan(seed=2, links={"a<->b": LinkFaults(burst=burst)})
        ).install()
        packets = [Packet(size=1) for _ in range(2000)]
        got = set(
            id(p) for p in blast(net, a, b, 2000, make_packet=lambda i: packets[i])
        )
        fates = [id(p) not in got for p in packets]  # True = lost
        losses = sum(fates)
        assert losses > 50
        # Mean run length of consecutive losses must exceed 1.5 packets —
        # the signature of bursts vs independent 5%-ish Bernoulli drops.
        runs = []
        run = 0
        for lost in fates:
            if lost:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        if run:
            runs.append(run)
        assert losses / len(runs) > 1.5


class TestNodeCrash:
    def test_blackout_and_reset_on_both_edges(self):
        net, a, b, link = make_pair(delay=0.5)
        injector = FaultInjector(
            net, FaultPlan(nodes={"b": NodeFaults(crash_at=10.0, restart_at=20.0)})
        ).install()
        assert link.fault_hook is not None  # watch hook armed without link spec
        got = blast(net, a, b, 30, spacing=1.0)
        # crash_reset wiped the 10 pre-crash deliveries; the 10 sends
        # during [10, 20) were black-holed; only post-restart ones remain.
        assert len(got) == 10
        assert all(t >= 20.0 for t, _ in b.inbox)
        assert injector.stats.crashes == 1
        assert injector.stats.restarts == 1
        assert injector.stats.drops_by_link[(("a", "b"), "node_down")] == 10
        assert b.resets == 2  # once going down, once coming back up

    def test_crashed_node_cannot_send_either(self):
        net, a, b, _ = make_pair(delay=0.5)
        FaultInjector(net, FaultPlan(nodes={"b": NodeFaults(crash_at=5.0)})).install()
        face = b.face_toward(a)
        net.sim.schedule_at(4.0, face.send, Packet(size=1))
        net.sim.schedule_at(6.0, face.send, Packet(size=1))
        net.sim.run()
        assert len(a.inbox) == 1

    def test_uninstall_cancels_pending_crash(self):
        net, a, b, _ = make_pair()
        injector = FaultInjector(
            net, FaultPlan(nodes={"b": NodeFaults(crash_at=50.0)})
        ).install()
        injector.uninstall()
        got = blast(net, a, b, 100, spacing=1.0)
        assert len(got) == 100
        assert injector.stats.crashes == 0
        assert b.resets == 0
