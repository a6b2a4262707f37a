"""Tests for the soft-state / retransmission recovery stack.

Covers the `RecoveryConfig` machinery in `core.planes` plus the host
keep-alive: ST expiry and refresh, crash recovery via the periodic RP
re-flood, migration-handshake retransmission under a lossy control plane,
handoff retry/rollback, and the snapshot fetcher's retry backoff.
"""

import pytest

from repro.core import (
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    RecoveryConfig,
    RpTable,
)
from repro.names import Name
from repro.sim.faults import FaultInjector, FaultPlan, LinkFaults
from repro.sim.network import Network


def build_line(recovery=None, host_refresh_ms=None):
    """pub - R0 - R1 - R2 - sub, RP at R0 for the whole namespace."""
    net = Network()
    routers = [GCopssRouter(net, f"R{i}") for i in range(3)]
    net.connect(routers[0], routers[1], 1.0)
    net.connect(routers[1], routers[2], 1.0)
    pub = GCopssHost(net, "pub")
    sub = GCopssHost(net, "sub")
    net.connect(pub, routers[0], 0.5)
    net.connect(sub, routers[2], 0.5)
    table = RpTable()
    for p in ("/1", "/2", "/0"):
        table.assign(p, "R0")
    GCopssNetworkBuilder(net, table).install()
    if recovery is not None:
        for r in routers:
            r.control.enable_recovery(recovery)
    if host_refresh_ms is not None:
        sub.start_refresh(host_refresh_ms)
    return net, routers, pub, sub


class TestRecoveryConfig:
    def test_defaults_are_all_off(self):
        net, routers, pub, sub = build_line()
        assert all(r.control.recovery is None for r in routers)
        sub.subscribe(["/2"])
        net.sim.run()  # no periodic tick: an unbounded run ends
        assert not routers[2].control._st_touched

    def test_enable_recovery_turns_everything_on(self):
        net, routers, pub, sub = build_line()
        cfg = RecoveryConfig(st_ttl_ms=123.0, sweep_interval_ms=10.0,
                             refresh_interval_ms=20.0)
        for r in routers:
            assert r.control.enable_recovery(cfg) is cfg
        sub.subscribe(["/2"])
        net.sim.run(until=100.0)
        # Soft state (timestamped ST entries) and refresh (upstream
        # re-Subscribes) both run under the one switch.
        assert routers[2].control._st_touched
        assert routers[2].stats.subscription_refreshes > 0

    def test_enable_recovery_defaults_to_full(self):
        net, routers, *_ = build_line()
        cfg = routers[0].control.enable_recovery(RecoveryConfig())
        assert routers[0].control.recovery is cfg
        assert cfg == RecoveryConfig()


class TestSoftStateExpiry:
    def test_unrefreshed_subscription_expires(self):
        # Refresh interval past the horizon: no router keep-alive runs.
        cfg = RecoveryConfig(
            st_ttl_ms=50.0, sweep_interval_ms=10.0, refresh_interval_ms=1e9
        )
        net, routers, pub, sub = build_line(recovery=cfg)
        sub.subscribe(["/2"])
        net.sim.run(until=20.0)
        assert routers[2].st.has_any_subscriber(Name.parse("/2"))
        net.sim.run(until=200.0)
        # No keep-alive: every hop's entry timed out and was removed.
        for r in routers:
            assert not r.st.has_any_subscriber(Name.parse("/2"))
        assert routers[2].stats.subscriptions_expired >= 1
        pub.publish("/2/x", payload_size=10)
        net.sim.run(until=300.0)
        assert sub.stats.updates_received == 0

    def test_host_keepalive_prevents_expiry(self):
        cfg = RecoveryConfig(st_ttl_ms=50.0, sweep_interval_ms=10.0,
                             refresh_interval_ms=20.0)
        net, routers, pub, sub = build_line(recovery=cfg, host_refresh_ms=20.0)
        sub.subscribe(["/2"])
        net.sim.run(until=400.0)
        for r in routers:
            assert r.st.has_any_subscriber(Name.parse("/2"))
        pub.publish("/2/x", payload_size=10)
        net.sim.run(until=500.0)
        assert sub.stats.updates_received == 1
        assert sub.stats.subscription_refreshes > 10

    def test_stop_refresh(self):
        net, routers, pub, sub = build_line(host_refresh_ms=20.0)
        sub.subscribe(["/2"])
        before = None
        net.sim.run(until=100.0)
        sub.stop_refresh()
        before = sub.stats.subscription_refreshes
        net.sim.run(until=300.0)
        assert sub.stats.subscription_refreshes == before

    def test_legacy_behaviour_without_recovery_is_unchanged(self):
        net, routers, pub, sub = build_line()
        sub.subscribe(["/2"])
        net.sim.run()
        pub.publish("/2/x", payload_size=10)
        net.sim.run()
        assert sub.stats.updates_received == 1
        assert routers[0].stats.subscription_refreshes == 0
        assert routers[0].stats.subscriptions_expired == 0


class TestLossRecovery:
    def test_lost_subscribe_recovered_by_keepalive(self):
        cfg = RecoveryConfig(refresh_interval_ms=30.0, st_ttl_ms=400.0,
                             sweep_interval_ms=50.0)
        net, routers, pub, sub = build_line(recovery=cfg, host_refresh_ms=30.0)
        # Drop ALL control packets on the access link until t=100, so the
        # initial Subscribe (and the first keep-alives) die.
        injector = FaultInjector(
            net,
            FaultPlan(
                seed=1,
                links={"sub<->R2": LinkFaults(down=((0.0, 100.0),))},
            ),
        ).install()
        sub.subscribe(["/2"])
        net.sim.run(until=200.0)
        assert routers[2].st.has_any_subscriber(Name.parse("/2"))
        pub.publish("/2/x", payload_size=10)
        net.sim.run(until=300.0)
        assert sub.stats.updates_received == 1

    def test_crashed_router_recovers_through_refresh(self):
        cfg = RecoveryConfig(
            refresh_interval_ms=30.0, st_ttl_ms=400.0, sweep_interval_ms=50.0
        )
        net, routers, pub, sub = build_line(recovery=cfg, host_refresh_ms=30.0)
        from repro.sim.faults import NodeFaults

        sub.subscribe(["/2"])
        injector = FaultInjector(
            net,
            FaultPlan(nodes={"R2": NodeFaults(crash_at=60.0, restart_at=120.0)}),
        ).install()
        net.sim.run(until=300.0)
        # R2 lost its ST, cd_routes and upstream joins in the crash; the
        # host keep-alive rebuilt the ST and the RP re-flood re-anchored
        # the upstream join (orphan repair in _maybe_start_migration).
        assert routers[2].st.has_any_subscriber(Name.parse("/2"))
        pub.publish("/2/x", payload_size=10)
        net.sim.run(until=400.0)
        assert sub.stats.updates_received == 1

    def test_handoff_retransmitted_through_lossy_control_plane(self):
        cfg = RecoveryConfig(refresh_interval_ms=50.0, st_ttl_ms=1000.0,
                             sweep_interval_ms=100.0)
        net, routers, pub, sub = build_line(recovery=cfg, host_refresh_ms=50.0)
        sub.subscribe(["/2"])
        net.sim.run(until=20.0)
        # Kill control traffic on R1<->R2 briefly: the CdHandoff walk dies
        # mid-path, then a retry (same uid, idempotent) completes it.
        FaultInjector(
            net,
            FaultPlan(
                links={"R1<->R2": LinkFaults(down=((0.0, 45.0),))},
            ),
        ).install()
        start = net.sim.now
        # Windows are absolute; shift them onto the current clock.
        net.sim.run(until=start + 1.0)
        routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run(until=start + 400.0)
        assert routers[2].rp_prefixes == {Name.parse("/2")}
        assert routers[0].relinquished == {Name.parse("/2"): "R2"}
        assert routers[0].stats.control_retransmits >= 1
        pub.publish("/2/x", payload_size=10)
        net.sim.run(until=start + 500.0)
        assert sub.stats.updates_received == 1

    def test_handoff_rolls_back_when_new_rp_unreachable(self):
        # Refresh, TTL and sweep past the horizon: only retransmission acts.
        cfg = RecoveryConfig(refresh_interval_ms=1e9, st_ttl_ms=1e9,
                             sweep_interval_ms=1e9)
        net, routers, pub, sub = build_line(recovery=cfg)
        sub.subscribe(["/2"])
        net.sim.run(until=100.0)
        # Permanently sever the path to the would-be RP.
        FaultInjector(
            net,
            FaultPlan(links={"R1<->R2": LinkFaults(down=((0.0, 1e9),))}),
        ).install()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        # MAX_RETRIES doubling retries from RETRY_INTERVAL_MS, then the
        # rollback: 250 * (2**9 - 1) = 127,750 ms after the handoff.
        net.sim.run(until=net.sim.now + 127_700.0)
        assert Name.parse("/2") not in routers[0].rp_prefixes
        net.sim.run(until=net.sim.now + 100.0)
        # Retries exhausted: the old RP took the prefix back.
        assert Name.parse("/2") in routers[0].rp_prefixes
        assert routers[0].relinquished == {}
        assert routers[0].stats.handoff_rollbacks == 1
        pub.publish("/2/x", payload_size=10)
        net.sim.run(until=net.sim.now + 100.0)
        assert routers[0].decapsulations >= 1


class TestSequenceObservability:
    def test_pub_seq_gap_detection(self):
        net, routers, pub, sub = build_line()
        sub.subscribe(["/2"])
        net.sim.run()
        pub.publish("/2/x", payload_size=10)
        pub.publish("/2/x", payload_size=10)
        net.sim.run()
        assert sub.stats.seq_gaps == 0 and sub.stats.seq_missing == 0
        # Drop everything briefly so one publish vanishes mid-flight.
        injector = FaultInjector(
            net, FaultPlan(links={"pub<->R0": LinkFaults(loss=1.0)})
        ).install()
        pub.publish("/2/x", payload_size=10)
        net.sim.run()
        injector.uninstall()
        pub.publish("/2/x", payload_size=10)
        net.sim.run()
        assert sub.stats.seq_gaps == 1
        assert sub.stats.seq_missing == 1
        assert sub.stats.updates_received == 3

    def test_raw_multicasts_without_seq_are_ignored(self):
        from repro.core.packets import MulticastPacket

        net, routers, pub, sub = build_line()
        sub.subscribe(["/2"])
        net.sim.run()
        packet = MulticastPacket(cd=Name.parse("/2/x"), payload_size=10,
                                 publisher="pub")
        pub.send(pub.access_face, packet)
        net.sim.run()
        assert sub.stats.updates_received == 1
        assert sub.stats.seq_gaps == 0
