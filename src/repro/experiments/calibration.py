"""Every simulation constant, with its provenance in the paper.

The paper parameterizes its simulator from testbed microbenchmarks; we
adopt the stated values directly and derive the rest from the text:

* RP processing (FIB lookup + decapsulation + ST lookup): **3.3 ms**
  ("an RP's processing time ... is set to 3.3ms (based on our previous
  benchmark measurements)", §V-B).
* Server processing: **~6 ms** per update ("the server processing time is
  around 6ms ... factoring in some additional processing for other game
  related functions like location translation and collision detection").
  We split it into a fixed part plus a per-recipient unicast cost so that
  service time grows with the population (the paper's super-linear server
  load claim, §II) and lands near 6 ms at the 414-player operating point.
* Mean update inter-arrival in the peak window: **2.4 ms** (§V-B).
  Note 1 RP at 3.3 ms against 2.4 ms arrivals is unstable (rho = 1.375),
  2 RPs are marginal under an uneven CD split, and 3 RPs are stable —
  exactly Table I's behaviour.
* Plain forwarding times: G-COPSS/NDN routers 0.05 ms per packet; IP
  routers 0.02 ms ("IP routers are much more efficient than the G-COPSS
  routers", §V-A).
* Delays: backbone link weights as ms, edge-core 5 ms, host-edge 1 ms
  (§V-B); testbed hops are sub-ms (processing dominated, §V-A).
* NDN baseline: pipelining window N = 3, update accumulation interval
  t = 100 ms (the paper sweeps the trade-off but benchmarks with a small
  t for latency).

Every runner reads :data:`DEFAULT_CALIBRATION` directly.  Only
:func:`~repro.experiments.common.run_ndn_testbed` takes a calibration,
because the NDN accumulation ablation sweeps ``ndn_accumulation_ms``
through :meth:`Calibration.with_overrides`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["Calibration", "DEFAULT_CALIBRATION"]


@dataclass(frozen=True)
class Calibration:
    """Bundle of the simulation constants (ms / bytes units throughout)."""

    # Router processing
    copss_forward_ms: float = 0.05
    rp_service_ms: float = 3.3
    ndn_forward_ms: float = 0.05
    ip_forward_ms: float = 0.02

    # IP game server.  base + per_recipient * |recipients| lands at the
    # paper's ~6 ms per update at the 414-player operating point (where an
    # average update fans out to ~170 viewers under the shared hierarchical
    # map) and makes service time grow with the population, producing the
    # Fig. 6a hockey stick.
    server_base_ms: float = 4.0
    server_per_recipient_ms: float = 0.012

    # Testbed (§V-A) service times: the microbenchmark ran application-
    # level forwarding engines in user space (CCNx on Optiplex routers; 62
    # clients plus the server on one PowerEdge), so per-packet costs are an
    # order of magnitude above the simulator's router constants.  These
    # values make the testbed scenario land in the paper's measured regime
    # (G-COPSS mean 8.51 ms, IP server 25.52 ms, NDN in the seconds).
    testbed_copss_forward_ms: float = 1.2
    testbed_ndn_forward_ms: float = 1.2
    testbed_ip_forward_ms: float = 0.12
    testbed_server_service_ms: float = 18.0

    # NDN baseline
    ndn_pipeline_window: int = 3
    ndn_accumulation_ms: float = 100.0
    ndn_interest_lifetime_ms: float = 2000.0

    # Topology delays
    testbed_router_delay_ms: float = 0.5
    testbed_host_delay_ms: float = 0.1
    backbone_edge_core_delay_ms: float = 5.0
    backbone_host_edge_delay_ms: float = 1.0

    # RP auto-balancing
    balancer_queue_threshold: int = 40
    balancer_cooldown_ms: float = 500.0

    # Snapshot brokers.  Update payloads folded into snapshots follow the
    # Counter-Strike packet regime (~29-87 B of game payload), which puts
    # steady-state object sizes in the paper's 579-1,740 byte band
    # (payload / (1 - lambda)).
    broker_count: int = 3
    # One object per pacing interval across all of a broker's active
    # groups; must exceed the RP decapsulation service time or the group
    # RP's queue grows without bound while a cycle runs.
    broker_cyclic_pacing_ms: float = 4.0
    object_size_decay: float = 0.95
    snapshot_update_size_range: tuple[int, int] = (29, 87)
    movement_compression: float = 60.0  # 5-35 min -> 5-35 s of sim time

    def with_overrides(self, **kwargs) -> "Calibration":
        """A copy with selected constants replaced (ablation harnesses)."""
        return replace(self, **kwargs)


DEFAULT_CALIBRATION = Calibration()
