"""Tests for COPSS and NDN packet wire types."""

import pytest

from repro.core.packets import (
    COPSS_HEADER_BYTES,
    CdHandoffPacket,
    ConfirmPacket,
    FibAddPacket,
    FibRemovePacket,
    JoinPacket,
    LeavePacket,
    MulticastPacket,
    SubscribePacket,
    UnsubscribePacket,
)
import repro.ndn.packets as ndn_packets
import repro.packets as packets_mod
from repro.names import Name
from repro.ndn.packets import DATA_HEADER_BYTES, INTEREST_HEADER_BYTES, Data, Interest
from repro.packets import use_id_range


class TestCopssPackets:
    def test_subscribe_coerces_and_sizes(self):
        packet = SubscribePacket(cds=("/1/2", "/0"))
        assert packet.cds == (Name.parse("/1/2"), Name.parse("/0"))
        assert packet.size > COPSS_HEADER_BYTES

    def test_subscribe_requires_cds(self):
        with pytest.raises(ValueError):
            SubscribePacket(cds=())

    def test_unsubscribe_requires_cds(self):
        with pytest.raises(ValueError):
            UnsubscribePacket(cds=())

    def test_multicast_size_includes_payload(self):
        small = MulticastPacket(cd="/1/2", payload_size=50)
        large = MulticastPacket(cd="/1/2", payload_size=350)
        assert large.size - small.size == 300
        assert small.size > 50

    def test_multicast_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            MulticastPacket(cd="/1", payload_size=-5)

    def test_multicast_defaults(self):
        packet = MulticastPacket(cd="/1")
        assert packet.sequence == -1
        assert packet.object_id == -1
        assert packet.publisher == ""

    def test_gaming_packets_are_small(self):
        """Paper: almost all gaming packets are under 200 bytes."""
        packet = MulticastPacket(cd="/1/2", payload_size=120)
        assert packet.size < 200

    def test_fib_add_carries_multiple_prefixes(self):
        packet = FibAddPacket(prefixes=("/1", "/2", "/3"), origin="rp1")
        assert len(packet.prefixes) == 3
        single = FibAddPacket(prefixes=("/1",), origin="rp1")
        assert packet.size > single.size

    def test_fib_packets_require_prefixes(self):
        with pytest.raises(ValueError):
            FibAddPacket(prefixes=(), origin="rp1")
        with pytest.raises(ValueError):
            FibRemovePacket(prefixes=(), origin="rp1")

    def test_handoff_requires_prefixes(self):
        with pytest.raises(ValueError):
            CdHandoffPacket(prefixes=(), old_rp="a", new_rp="b")

    def test_control_packets_have_wire_sizes(self):
        for packet in (
            JoinPacket(prefixes=("/1",), epoch=1, origin="rp"),
            ConfirmPacket(epoch=1),
            LeavePacket(prefixes=("/1",), epoch=1),
        ):
            assert packet.size > 0

    def test_uids_distinct(self):
        a = MulticastPacket(cd="/1", payload_size=1)
        b = MulticastPacket(cd="/1", payload_size=1)
        assert a.uid != b.uid


class TestNdnPackets:
    def test_interest_size_grows_with_name(self):
        short = Interest(name="/a")
        long = Interest(name="/a/very/long/name/with/components")
        assert long.size > short.size > INTEREST_HEADER_BYTES

    def test_interest_nonces_distinct(self):
        assert Interest(name="/a").nonce != Interest(name="/a").nonce

    def test_id_ranges_are_disjoint_per_index(self, monkeypatch):
        monkeypatch.setattr(packets_mod, "_packet_ids", packets_mod._packet_ids)
        monkeypatch.setattr(ndn_packets, "_nonces", ndn_packets._nonces)
        for index in (0, 1):
            use_id_range(index)
            for interest in (Interest(name="/a") for _ in range(3)):
                for value in (interest.uid, interest.nonce):
                    assert (index + 1) << 48 <= value < (index + 2) << 48

    def test_data_size_includes_payload(self):
        small = Data(name="/a", payload_size=10)
        big = Data(name="/a", payload_size=1000)
        assert big.size - small.size == 990
        assert small.size > DATA_HEADER_BYTES

    def test_data_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Data(name="/a", payload_size=-1)

    def test_encapsulated_interest_carries_payload_size(self):
        inner = MulticastPacket(cd="/1/2", payload_size=100)
        tunnel = Interest(name="/rp/core0", payload=inner)
        bare = Interest(name="/rp/core0")
        assert tunnel.size == bare.size + inner.size

    def test_explicit_size_respected(self):
        assert Interest(name="/a", size=999).size == 999
