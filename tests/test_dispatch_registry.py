"""Tests for the typed packet-dispatch registry (PacketDispatcher)."""

from dataclasses import dataclass

import pytest

from repro.core.packets import MulticastPacket, SubscribePacket
from repro.ndn.packets import Data, Interest
from repro.packets import Packet
from repro.sim.network import PacketDispatcher
from repro.sim.stats import NodeStats


@dataclass
class FancyInterest(Interest):
    """An Interest subclass with no handler of its own."""

    flavor: str = "plain"


@dataclass
class FancierInterest(FancyInterest):
    """Two MRO levels below Interest."""


def make_dispatcher(strict=True):
    stats = NodeStats()
    return PacketDispatcher(stats=stats, owner="test-node", strict=strict), stats


class TestRegistration:
    def test_exactly_one_handler_per_registered_type(self):
        d, _ = make_dispatcher()
        d.register(Interest, lambda p, f: None)
        d.register(Data, lambda p, f: None)
        table = d._handlers
        assert set(table) == {Interest, Data}
        assert all(callable(h) for h in table.values())

    def test_reregistering_replaces_the_handler(self):
        d, _ = make_dispatcher()
        hits = []
        d.register(Interest, lambda p, f: hits.append("base"))
        d.register(Interest, lambda p, f: hits.append("override"))
        d.dispatch(Interest(name="/x"), None)
        assert hits == ["override"]
        assert len(d._handlers) == 1

    def test_only_packet_subclasses_register(self):
        d, _ = make_dispatcher()
        with pytest.raises(TypeError):
            d.register(str, lambda p, f: None)
        with pytest.raises(TypeError):
            d.register(Interest(name="/x"), lambda p, f: None)  # instance, not class

    def test_register_returns_the_handler(self):
        d, _ = make_dispatcher()

        def handler(p, f):
            pass

        assert d.register(Interest, handler) is handler


class TestDispatch:
    def test_each_type_routes_to_its_own_handler(self):
        d, _ = make_dispatcher()
        hits = []
        d.register(Interest, lambda p, f: hits.append(("interest", p)))
        d.register(Data, lambda p, f: hits.append(("data", p)))
        d.register(MulticastPacket, lambda p, f: hits.append(("mcast", p)))
        interest = Interest(name="/a")
        data = Data(name="/a")
        mcast = MulticastPacket(cd="/a", payload_size=1)
        d.dispatch(interest, None)
        d.dispatch(data, None)
        d.dispatch(mcast, None)
        assert hits == [("interest", interest), ("data", data), ("mcast", mcast)]

    def test_face_argument_is_passed_through(self):
        d, _ = make_dispatcher()
        seen = []
        d.register(Interest, lambda p, f: seen.append(f))
        sentinel = object()
        d.dispatch(Interest(name="/a"), sentinel)
        assert seen == [sentinel]

    def test_subclass_resolves_to_nearest_registered_base(self):
        d, _ = make_dispatcher()
        hits = []
        d.register(Packet, lambda p, f: hits.append("packet"))
        d.register(Interest, lambda p, f: hits.append("interest"))
        d.dispatch(FancierInterest(name="/x"), None)
        # Interest is nearer on the MRO than Packet.
        assert hits == ["interest"]

    def test_nearer_registration_wins_after_memoization(self):
        # Registering a closer base invalidates the memoized resolution.
        d, _ = make_dispatcher()
        hits = []
        d.register(Interest, lambda p, f: hits.append("interest"))
        d.dispatch(FancierInterest(name="/x"), None)
        d.register(FancyInterest, lambda p, f: hits.append("fancy"))
        d.dispatch(FancierInterest(name="/x"), None)
        assert hits == ["interest", "fancy"]


class TestUnknownPackets:
    def test_strict_counts_and_raises(self):
        d, stats = make_dispatcher(strict=True)
        d.register(Interest, lambda p, f: None)
        with pytest.raises(TypeError, match="test-node.*Data"):
            d.dispatch(Data(name="/x"), None)
        # Counted, not silently dropped.
        assert stats.unknown_packets == 1

    def test_lenient_counts_without_raising(self):
        d, stats = make_dispatcher(strict=False)
        d.register(Data, lambda p, f: None)
        d.dispatch(Interest(name="/x"), None)
        d.dispatch(Packet(size=1), None)
        assert stats.unknown_packets == 2

    def test_unknown_then_registered_is_picked_up(self):
        d, stats = make_dispatcher(strict=False)
        d.dispatch(Interest(name="/x"), None)
        assert stats.unknown_packets == 1
        hits = []
        d.register(Interest, lambda p, f: hits.append(p))
        d.dispatch(Interest(name="/y"), None)
        assert len(hits) == 1
        assert stats.unknown_packets == 1
