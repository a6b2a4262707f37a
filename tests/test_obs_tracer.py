"""Tests for the causal packet tracer (`repro.obs.tracer`)."""

import pytest

from repro.obs.tracer import (
    KINDS,
    PacketTracer,
    TraceEvent,
    chain_to,
    render_chain,
    summarize_drops,
    trace_id_of,
)
from repro.packets import Packet
from repro.sim.faults import FaultInjector, FaultPlan, LinkFaults
from repro.sim.network import Network, Node


class Sink(Node):
    def __init__(self, network, name):
        super().__init__(network, name)
        self.inbox = []

    def receive(self, packet, face):
        self.inbox.append(packet)


def make_pair(delay=1.0):
    net = Network()
    a = Sink(net, "a")
    b = Sink(net, "b")
    link = net.connect(a, b, delay)
    return net, a, b, link


class TestTraceId:
    def test_plain_packet_uses_own_uid(self):
        packet = Packet(size=10)
        assert trace_id_of(packet) == packet.uid

    def test_tunnel_interest_uses_payload_uid(self):
        from repro.core.packets import MulticastPacket
        from repro.ndn.packets import Interest
        from repro.names import Name

        mcast = MulticastPacket(cd=Name(["cs", "a"]), payload_size=100)
        tunnel = Interest(name=Name(["rp", "R1"]), payload=mcast)
        assert trace_id_of(tunnel) == mcast.uid
        assert trace_id_of(tunnel) != tunnel.uid


class TestInstallation:
    def test_install_occupies_every_slot_and_uninstall_releases(self):
        net, a, b, link = make_pair()
        tracer = PacketTracer().install(net)
        assert link.trace_hook is tracer
        assert a.trace_hook is tracer and b.trace_hook is tracer
        tracer.uninstall()
        assert link.trace_hook is None
        assert a.trace_hook is None and b.trace_hook is None

    def test_second_install_on_occupied_slot_rejected(self):
        net, *_ = make_pair()
        PacketTracer().install(net)
        with pytest.raises(RuntimeError):
            PacketTracer().install(net)

    def test_uninstalled_run_records_nothing_and_forwards_normally(self):
        net, a, b, _ = make_pair()
        tracer = PacketTracer().install(net)
        tracer.uninstall()
        a.face_toward(b).send(Packet(size=10))
        net.sim.run()
        assert len(b.inbox) == 1
        assert len(tracer.events) == 0


class TestRecording:
    def test_forward_event_per_send(self):
        net, a, b, _ = make_pair()
        tracer = PacketTracer().install(net)
        packet = Packet(size=10)
        a.face_toward(b).send(packet)
        net.sim.run()
        (event,) = tracer.events
        assert event.kind == "forward"
        assert (event.node, event.peer) == ("a", "b")
        assert event.trace_id == packet.uid
        assert event.kind in KINDS

    def test_fault_drop_carries_injector_reason(self):
        net, a, b, _ = make_pair()
        injector = FaultInjector(
            net, FaultPlan(seed=1, links={"a<->b": LinkFaults(loss=1.0)})
        ).install()
        tracer = PacketTracer().install(net, fault_stats=injector.stats)
        a.face_toward(b).send(Packet(size=10))
        net.sim.run()
        (event,) = tracer.events
        assert event.kind == "fault_drop"
        assert event.detail == "random"
        assert b.inbox == []

    def test_sampling_is_deterministic_by_trace_id(self):
        net, a, b, _ = make_pair()
        tracer = PacketTracer(sample_every=2).install(net)
        packets = [Packet(size=10) for _ in range(8)]
        face = a.face_toward(b)
        for i, packet in enumerate(packets):
            net.sim.schedule_at(float(i), face.send, packet)
        net.sim.run()
        expected = {p.uid for p in packets if p.uid % 2 == 0}
        assert {e.trace_id for e in tracer.events} == expected

    def test_ring_buffer_bounds_memory(self):
        net, a, b, _ = make_pair()
        tracer = PacketTracer(max_events=5).install(net)
        face = a.face_toward(b)
        for i in range(20):
            net.sim.schedule_at(float(i), face.send, Packet(size=10))
        net.sim.run()
        assert len(tracer.events) == 5

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            PacketTracer(sample_every=0)


def _ev(t, tid, node, kind, peer="", detail=""):
    return TraceEvent(
        t=t, trace_id=tid, uid=tid, node=node, kind=kind,
        ptype="Packet", cd="/x", peer=peer, detail=detail,
    )


class TestChainQueries:
    # pub -> r1 -> {r2 -> h2, h1}: a small replication tree.
    TREE = [
        _ev(0.0, 7, "pub", "publish"),
        _ev(0.0, 7, "pub", "forward", peer="r1"),
        _ev(1.0, 7, "r1", "enqueue"),
        _ev(2.0, 7, "r1", "service"),
        _ev(2.0, 7, "r1", "forward", peer="r2"),
        _ev(2.0, 7, "r1", "forward", peer="h1"),
        _ev(3.0, 7, "r2", "forward", peer="h2"),
        _ev(4.0, 7, "h1", "deliver"),
        _ev(5.0, 7, "h2", "deliver"),
    ]

    def test_chain_to_filters_to_one_branch(self):
        chain = chain_to(self.TREE, "h1")
        nodes = {e.node for e in chain}
        assert nodes == {"pub", "r1", "h1"}
        assert not any(e.peer == "r2" for e in chain)
        assert any(e.kind == "deliver" and e.node == "h1" for e in chain)

    def test_chain_to_unreached_receiver_falls_back_to_full_trace(self):
        # Nothing ever forwarded into h9: the branch filter would erase
        # the story, so the full trace (with its drops) comes back.
        events = self.TREE + [_ev(6.0, 7, "r2", "fault_drop", peer="h9",
                                  detail="down")]
        chain = chain_to(events, "h9")
        assert chain == events

    def test_hop_chain_and_events_for(self):
        tracer = PacketTracer()
        tracer.events.extend(self.TREE)
        tracer.events.append(_ev(9.0, 8, "pub", "publish"))
        assert tracer.trace_ids() == [7, 8]
        assert len(tracer.events_for(7)) == len(self.TREE)
        assert {e.node for e in tracer.hop_chain(7, receiver="h2")} == {
            "pub", "r1", "r2", "h2",
        }

    def test_summarize_drops(self):
        events = [
            _ev(0.0, 1, "n", "drop", detail="no_rp"),
            _ev(1.0, 2, "n", "drop", detail="no_rp"),
            _ev(2.0, 3, "n", "fault_drop", detail="random"),
            _ev(3.0, 4, "n", "deliver"),
        ]
        assert summarize_drops(events) == {"no_rp": 2, "random": 1}

    def test_render_chain_mentions_nodes_and_reasons(self):
        lines = render_chain(self.TREE)
        assert len(lines) == len(self.TREE)
        assert any("pub -> r1" in line for line in lines)
        text = "\n".join(render_chain([_ev(0.0, 1, "n", "drop", detail="no_rp")]))
        assert "[no_rp]" in text

    def test_as_dict_omits_empty_optional_fields(self):
        row = _ev(0.0, 1, "n", "deliver").as_dict()
        assert "peer" not in row and "detail" not in row
        row = _ev(0.0, 1, "n", "forward", peer="m").as_dict()
        assert row["peer"] == "m"


class TestEventLog:
    """``tracer.events`` is a sequence view over parallel columns."""

    @pytest.mark.parametrize("sends", [20, 50, 200])  # 50+ crosses a trim
    def test_ring_holds_exactly_the_last_max_events(self, sends):
        net, a, b, _ = make_pair()
        tracer = PacketTracer(max_events=5).install(net)
        face = a.face_toward(b)
        packets = [Packet(size=10) for _ in range(sends)]
        for i, packet in enumerate(packets):
            net.sim.schedule_at(float(i), face.send, packet)
        net.sim.run()
        events = tracer.events
        assert len(events) == 5
        kept = list(events)
        assert [e.t for e in kept] == [float(i) for i in range(sends - 5, sends)]
        assert [e.uid for e in kept] == [p.uid for p in packets[-5:]]
        assert kept == list(events)  # a second iteration agrees
        assert [events[i] for i in range(5)] == kept
        assert [events[i] for i in range(-5, 0)] == kept
        assert events[-1].t == float(sends - 1)
        for index in (5, -6):
            with pytest.raises(IndexError):
                events[index]
        # Queries see the ring, not the slack behind it.
        assert tracer.trace_ids() == sorted(p.uid for p in packets[-5:])
        assert tracer.events_for(packets[0].uid) == []
        assert tracer.events_for(packets[-1].uid) == [kept[-1]]

    def test_columns_stay_inside_the_ring_slack(self):
        tracer = PacketTracer(max_events=100)
        for i in range(10_000):
            tracer.events.append(_ev(float(i), i, "n", "deliver"))
        assert len(tracer.events) == 100
        assert len(tracer.events.t) <= 2 * 100

    def test_names_are_rendered_when_read_not_when_recorded(self):
        from repro.core.packets import MulticastPacket
        from repro.names import Name

        net, a, _b, _ = make_pair()
        tracer = PacketTracer().install(net)
        mcast = MulticastPacket(cd=Name(["cs", "a"]), payload_size=100)
        tracer.on_decap(a, mcast, Name(["cs"]))
        tracer.on_drop(a, Packet(size=10), "no_rp")
        decap, drop = tracer.events
        assert (decap.ptype, decap.cd, decap.detail) == ("MulticastPacket", "/cs/a", "/cs")
        assert (drop.ptype, drop.cd, drop.detail) == ("Packet", "", "no_rp")
        assert all(type(v) is str for v in (decap.cd, decap.detail, drop.cd))
        # The log holds the class and the Name, never the packet.
        assert tracer.events.ptype == [MulticastPacket, Packet]
        assert tracer.events.cd == [mcast.cd, None]
        assert tracer.drop_summary() == summarize_drops(tracer.events) == {"no_rp": 1}

    def test_trace_index_follows_later_appends(self):
        tracer = PacketTracer()
        tracer.events.extend(TestChainQueries.TREE)
        assert len(tracer.events_for(7)) == len(TestChainQueries.TREE)
        tracer.events.append(_ev(9.0, 7, "h2", "drop", detail="duplicate"))
        assert len(tracer.events_for(7)) == len(TestChainQueries.TREE) + 1
        assert tracer.hop_chain(7)[-1].detail == "duplicate"
        assert tracer.events_for(99) == []


class TestStorageBudget:
    """What an event costs, as counts that repeat exactly (no timings)."""

    def _recording(self):
        net, a, b, _ = make_pair()
        tracer = PacketTracer()
        face = a.face_toward(b)
        packet = Packet(size=10)
        return tracer, (lambda: tracer.on_forward(face, packet, 1.0))

    def test_at_most_96_bytes_retained_per_event(self):
        import tracemalloc

        tracer, record = self._recording()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(100_000):
                record()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tracer.events) == 100_000
        assert (after - before) / 100_000 <= 96

    def test_no_gc_tracked_object_per_event(self):
        import gc

        tracer, record = self._recording()
        for _ in range(100):
            record()
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(10_000):
            record()
        assert len(tracer.events) == 10_100
        assert len(gc.get_objects()) - before <= 8
