"""Digest differentials for the federated scale world.

The executable claim behind the federation design: with zones, skewed
placement, cross-region redirects and a *live* autoscaler in the event
stream, the serial, in-process-sharded and multiprocess executors still
produce one delivery digest — the autoscaler's decisions are a pure
function of sim state.  Plus the two pin-downs: disabling federation
reproduces the flat :class:`~repro.parallel.scale.ScaleSpec` digest
bit-for-bit, and an autoscaler-off federated run is deterministic.  Last,
the quick saturation experiment reproduces its pinned digests and p95s
and holds its three SLO claims.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.federation import run_saturation
from repro.parallel.scale import FederationSpec, ScaleSpec, run_scale

# Small but complete: skew + remote redirects + autoscaler all active,
# and every region has enough traffic for the autoscaler to act on.
SPEC = FederationSpec(
    players=120,
    regions=4,
    access_per_region=4,
    updates=400,
    seed=7,
    world_fraction=0.02,
    publish_interval_ms=0.5,
    zones_per_region=4,
    skewed_placement=True,
    remote_fraction=0.2,
    autoscale=True,
    autoscale_sample_ms=50.0,
    autoscale_min_interval_ms=200.0,
)


class TestExecutorEquivalence:
    def test_serial_matches_inproc_shards(self):
        serial = run_scale(SPEC)
        assert serial["deliveries"] > 0
        for shards in (1, 2, 4):
            sharded = run_scale(SPEC, shards=shards)
            assert sharded["digest"] == serial["digest"], f"shards={shards}"
            assert sharded["deliveries"] == serial["deliveries"]

    @pytest.mark.slow
    def test_serial_matches_multiprocess(self):
        serial = run_scale(SPEC)
        proc = run_scale(SPEC, shards=2, workers=2)
        assert proc["digest"] == serial["digest"]
        assert proc["federation"]["actions"] == serial["federation"]["actions"]

    def test_autoscaler_was_live(self):
        # The equivalence above is vacuous if the autoscaler never acted:
        # the skewed cold start must force at least one action.
        result = run_scale(SPEC)
        assert result["federation"]["actions"] > 0


class TestFlatPin:
    def test_disabled_federation_reproduces_scale_digest(self):
        base = dict(
            players=120,
            regions=4,
            access_per_region=4,
            updates=200,
            seed=7,
            world_fraction=0.02,
            publish_interval_ms=0.5,
        )
        flat = run_scale(ScaleSpec(**base))
        pinned = run_scale(
            FederationSpec(
                **base, federated=False, zones_per_region=0, autoscale=False
            )
        )
        assert pinned["digest"] == flat["digest"]
        assert "federation" not in pinned


class TestAutoscalerOffDeterminism:
    def test_spread_runs_repeat_identically(self):
        spec = FederationSpec(
            players=120,
            regions=4,
            access_per_region=4,
            updates=200,
            seed=7,
            world_fraction=0.0,
            publish_interval_ms=0.5,
            zones_per_region=4,
            skewed_placement=False,
            autoscale=False,
        )
        a = run_scale(spec)
        b = run_scale(spec)
        assert a["digest"] == b["digest"]
        assert a["federation"]["actions"] == 0
        # Zones live only inside the regions: turning the autoscaler off
        # must not change what is delivered, only where it decapsulates.
        sharded = run_scale(spec, shards=2)
        assert sharded["digest"] == a["digest"]


class TestSaturationPin:
    def test_quick_arms_reproduce_fixture_and_hold_the_slo(self):
        pinned = json.loads(
            (Path(__file__).parent / "data" / "federation_saturation.json").read_text()
        )
        report = run_saturation(quick=True)
        got = {
            name: {"digest": arm["digest"], "p95_ms": arm["latency"]["p95_ms"]}
            for name, arm in report["arms"].items()
        }
        assert got == pinned
        assert report["slo"] == {
            "flat_saturated": True,
            "spread_within_slo": True,
            "autoscaler_repaired": True,
        }
