"""Tests for the plane/role decomposition of the G-COPSS router."""

import pytest

from repro.core import GCopssHost, GCopssNetworkBuilder, GCopssRouter, RpTable
from repro.core.planes import ControlPlane, ForwardingPlane
from repro.core.roles import RelayRole, RpRole
from repro.names import Name
from repro.sim.network import Network, Node


def build_line(rp_name="R2", rp_prefix="/"):
    """alice -- R1 -- R2 -- R3 -- bob, RP at R2 by default."""
    net = Network()
    routers = {name: GCopssRouter(net, name) for name in ("R1", "R2", "R3")}
    net.connect(routers["R1"], routers["R2"], 2.0)
    net.connect(routers["R2"], routers["R3"], 2.0)
    alice = GCopssHost(net, "alice")
    bob = GCopssHost(net, "bob")
    net.connect(alice, routers["R1"], 1.0)
    net.connect(bob, routers["R3"], 1.0)
    table = RpTable()
    table.assign(rp_prefix, rp_name)
    GCopssNetworkBuilder(net, table).install()
    return net, routers, alice, bob


class TestRoleAttachment:
    def test_router_carries_rp_and_relay_roles(self):
        net = Network()
        router = GCopssRouter(net, "R1")
        assert router.get_role("rp") is router.rp_role
        assert router.get_role("relay") is router.relay_role
        assert isinstance(router.rp_role, RpRole)
        assert isinstance(router.relay_role, RelayRole)

    def test_role_belongs_to_one_node(self):
        net = Network()
        r1 = GCopssRouter(net, "R1")
        r2 = GCopssRouter(net, "R2")
        with pytest.raises(ValueError):
            r2.attach_role(r1.rp_role)

    def test_duplicate_role_name_rejected(self):
        net = Network()
        router = GCopssRouter(net, "R1")
        with pytest.raises(ValueError):
            router.attach_role(RpRole())


class TestPlaneSplit:
    def test_planes_share_one_subscription_table(self):
        net = Network()
        router = GCopssRouter(net, "R1")
        assert isinstance(router.forwarding, ForwardingPlane)
        assert isinstance(router.control, ControlPlane)
        assert router.forwarding.st is router.control.st
        assert router.st is router.forwarding.st

    def test_facade_aliases_read_plane_state(self):
        net, routers, alice, bob = build_line()
        bob.subscribe(["/1/2"])
        net.sim.run()
        alice.publish("/1/2", payload_size=100)
        net.sim.run()
        rp = routers["R2"]
        # Counter written by the forwarding plane, read through the facade.
        assert rp.decapsulations == 1
        assert rp.stats.decapsulations == 1
        # RP state lives in the role, aliased by the facade.
        assert rp.rp_prefixes == rp.rp_role.prefixes
        assert list(rp.rp_role.recent_cds) == [Name.parse("/")]

    def test_control_plane_owns_routing_state(self):
        net, routers, alice, bob = build_line()
        r1 = routers["R1"]
        assert r1.cd_routes is r1.control.cd_routes
        # The facade holds no second name for control-plane state.
        assert not hasattr(r1, "rp_route")
        assert not hasattr(r1, "_seen_floods")

    def test_dedup_horizon_alias_reaches_the_forwarding_plane(self):
        net = Network()
        router = GCopssRouter(net, "R1")
        assert not hasattr(router, "_dedup_horizon")
        router.forwarding.replicated.horizon = 7
        assert router.forwarding.replicated.horizon == 7

    def test_crash_reset_empties_dedup_windows_in_place(self):
        net = Network()
        router = GCopssRouter(net, "R1")
        windows = (router.forwarding.replicated, router.control.seen_floods)
        for window in windows:
            window.horizon = 7
            window.add(1)
        router.crash_reset()
        assert router.forwarding.replicated is windows[0]
        assert router.control.seen_floods is windows[1]
        for window in windows:
            assert len(window) == 0 and window.horizon == 7

    def test_unknown_packet_hits_fallthrough_counter(self):
        from repro.packets import Packet

        net, routers, alice, bob = build_line()
        net.sim.run()
        r1 = routers["R1"]
        face = r1.face_toward(routers["R2"])
        # A packet type no handler claims is counted, then rejected loudly.
        with pytest.raises(TypeError, match="unexpected packet type"):
            r1.dispatcher.dispatch(Packet(size=1), face)
        assert r1.stats.unknown_packets == 1


class TestPeerTypeMarker:
    def test_copss_marker_replaces_isinstance_checks(self):
        net = Network()
        router = GCopssRouter(net, "R1")
        host = GCopssHost(net, "h1")
        plain = Node(net, "n1")
        assert router.is_copss_router is True
        assert host.is_copss_router is False
        assert plain.is_copss_router is False

    def test_subclass_inherits_the_marker(self):
        class CustomRouter(GCopssRouter):
            pass

        net = Network()
        custom = CustomRouter(net, "R1")
        assert custom.is_copss_router is True


class TestBuilderErrors:
    def test_non_router_rp_raises_value_error(self):
        net = Network()
        GCopssRouter(net, "R1")
        host = GCopssHost(net, "h1")
        table = RpTable()
        table.assign("/", "h1")
        with pytest.raises(ValueError, match="not a GCopssRouter"):
            GCopssNetworkBuilder(net, table).install()

    def test_ghost_rp_raises_value_error(self):
        net = Network()
        GCopssRouter(net, "R1")
        table = RpTable()
        table.assign("/", "nowhere")
        with pytest.raises(ValueError):
            GCopssNetworkBuilder(net, table).install()
