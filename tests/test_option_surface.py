"""Structural guard: a setting no workload varies is a constant.

The paper fixes one value for each parameter of its evaluation, and
``src/`` holds exactly the settings some caller outside ``tests/`` sets
to more than one value.  A removed knob must not come back one
parameter or config field at a time; this pins the fields of the config
classes and the parameters that are gone.
"""

import dataclasses
import inspect

import pytest

import repro.experiments.chaos as chaos
import repro.topology
from repro.analysis.capacity import (
    cd_load_shares,
    minimum_stable_rps,
    peak_arrival_rate,
    rp_utilizations,
)
from repro.baselines.ip_server import IpClientNode
from repro.baselines.ndn_game import NdnGamePlayer
from repro.core.balancer import RpLoadBalancer
from repro.core.coordinates import VivaldiSystem
from repro.core.engine import GCopssHost
from repro.core.federation import AutoscalerConfig
from repro.core.offline import OfflineGuardian
from repro.core.planes import ControlPlane, RecoveryConfig
from repro.core.roles import RpRole
from repro.core.snapshot import QrSnapshotFetcher
from repro.experiments.common import (
    run_gcopss_backbone,
    run_ip_server_backbone,
    run_ip_server_testbed,
    run_ndn_testbed,
)
from repro.experiments.fig4_microbench import run_fig4
from repro.experiments.report import render_cdf, render_series
from repro.experiments.fig6_scalability import run_fig6, run_fig6_federated
from repro.experiments.flowrun import FlowScenario
from repro.experiments.scenarios.harness import run_scenario
from repro.experiments.table1_rp_count import run_table1
from repro.experiments.table2_hybrid import run_table2
from repro.experiments.table3_movement import run_table3, run_table3_all
from repro.experiments import testbed
from repro.experiments.testbed import build_testbed
from repro.game.map import GameMap
from repro.game.movement import MovementModel
from repro.names import Name
from repro.net.testbed import DriverConn, LiveTestbed
from repro.net.world import make_trace
from repro.obs.metrics import MetricsRegistry, TimeSeries
from repro.obs.session import TelemetryConfig
from repro.parallel.scale import FederationSpec, ScaleSpec
from repro.sim.invariants import InvariantMonitor
from repro.sim.stats import LatencyRecorder
from repro.topology.backbone import BuiltBackbone, build_backbone
from repro.topology.benchmark import build_benchmark_topology
from repro.trace.filters import filter_raw_trace, synthesize_raw_capture

SCALE_FIELDS = {
    "players",
    "regions",
    "access_per_region",
    "updates",
    "seed",
    "world_fraction",
    "publish_interval_ms",
}

#: config class -> the fields it may define.
FIELDS = {
    RecoveryConfig: {"st_ttl_ms", "sweep_interval_ms", "refresh_interval_ms"},
    AutoscalerConfig: {"sample_interval_ms", "min_split_interval_ms"},
    TelemetryConfig: {"sample_every", "max_events", "metrics_interval_ms"},
    ScaleSpec: SCALE_FIELDS,
    FederationSpec: SCALE_FIELDS
    | {
        "zones_per_region",
        "skewed_placement",
        "remote_fraction",
        "autoscale",
        "autoscale_sample_ms",
        "autoscale_min_interval_ms",
    },
}

#: Callables that read ``DEFAULT_CALIBRATION`` instead of taking one.
NO_CALIBRATION = [
    run_gcopss_backbone,
    run_ip_server_backbone,
    run_ip_server_testbed,
    build_testbed,
    chaos.run_chaos,
    run_scenario,
    run_fig4,
    run_table1,
    run_fig6,
    run_table2,
    run_table3,
    run_table3_all,
    FlowScenario,
    rp_utilizations,
    minimum_stable_rps,
]

#: callable -> parameters that only ever took their default.
REMOVED = {
    run_table1: {
        "rp_counts", "include_auto", "server_counts", "series_bucket", "use_cache"
    },
    run_fig6: {"num_rps", "num_servers"},
    run_fig6_federated: {"zones_per_region"},
    run_table3: {"num_rps"},
    run_table2: {"num_sites"},
    run_fig4: {"include_ndn", "ndn_scale_cap"},
    chaos.run_chaos: {"timeline"},
    run_scenario: {"timeline"},
    chaos.build_plan: {"timeline"},
    RpLoadBalancer: {"min_split_interval_ms"},
    GCopssHost: {"dedup_horizon"},
    RpRole: {"window_size"},
    run_ip_server_testbed: {"label"},
    run_ndn_testbed: {"label"},
    cd_load_shares: {"depth"},
    peak_arrival_rate: {"window_fraction"},
    minimum_stable_rps: {"headroom", "max_rps"},
    build_backbone: {"spec", "network"},
    BuiltBackbone.attach_hosts: {"seed"},
    build_benchmark_topology: {"num_hosts", "network"},
    MetricsRegistry.register_network: {"per_node"},
    LiveTestbed: {"python", "startup_timeout"},
    LiveTestbed.quiesce: {"stable_polls", "poll_s", "timeout"},
    LiveTestbed.shutdown: {"timeout"},
    DriverConn: {"timeout"},
    make_trace: {"min_size", "max_size"},
    QrSnapshotFetcher: {"max_retries", "backoff_factor"},
    MovementModel: {"p_up", "p_down"},
    GameMap.place_players: {"bottom_only"},
    InvariantMonitor.check_ownership: {"max_relay_hops"},
    render_series: {"unit"},
    render_cdf: {"unit", "quantiles"},
    LatencyRecorder.cdf_points: {"num_points"},
    Name.prefixes: {"include_root"},
    VivaldiSystem: {"cc"},
    OfflineGuardian: {"max_buffered"},
    NdnGamePlayer: {"version_history"},
    IpClientNode: {"server_for_cd"},
    filter_raw_trace: {"min_packets"},
    synthesize_raw_capture: {"packets_per_player"},
    testbed.Testbed.replay: {"publish"},
    TimeSeries: {"capacity"},
}


def _name(obj) -> str:
    return obj.__qualname__


@pytest.mark.parametrize("cls", list(FIELDS), ids=_name)
def test_config_class_defines_only_the_kept_fields(cls):
    assert {f.name for f in dataclasses.fields(cls)} == FIELDS[cls]


@pytest.mark.parametrize("func", NO_CALIBRATION, ids=_name)
def test_runner_takes_no_calibration(func):
    assert "calibration" not in inspect.signature(func).parameters


def test_the_ndn_ablation_still_sweeps_the_calibration():
    assert "calibration" in inspect.signature(run_ndn_testbed).parameters


@pytest.mark.parametrize("func", list(REMOVED), ids=_name)
def test_removed_parameters_stay_removed(func):
    assert not REMOVED[func] & set(inspect.signature(func).parameters)


def test_recovery_is_enabled_with_an_explicit_config():
    config = inspect.signature(ControlPlane.enable_recovery).parameters["config"]
    assert config.default is inspect.Parameter.empty


def test_balancer_cooldown_has_one_name():
    assert not hasattr(RpLoadBalancer, "min_split_interval_ms")


def test_chaos_schedule_is_constants_not_a_timeline():
    assert not hasattr(chaos, "ChaosTimeline")


def test_backbone_has_no_spec_class():
    assert not hasattr(repro.topology, "BackboneSpec")
    assert "BackboneSpec" not in repro.topology.__all__


def test_benchmark_topology_needs_host_names():
    names = inspect.signature(build_benchmark_topology).parameters["host_names"]
    assert names.default is inspect.Parameter.empty
