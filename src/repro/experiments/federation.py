"""Federation saturation experiment: flat drowns, federated holds the SLO.

At the target population the flat layout's one-RP-per-region design is
past its service capacity (utilization > 1: the RP queue grows without
bound and latency hockey-sticks); the federated layout spreads the same
load over the region's owner members and stays flat.  A third arm starts
from the worst-case *skewed* placement (every zone on one owner) with
the autoscaler on, and must repair it — actions > 0 and p95 at most
half of the fourth arm, the identical skewed run with the autoscaler
disabled (the counterfactual that isolates the control loop's gain).

``quick`` shrinks the populations but keeps every gate; the quick arms'
digests and simulated p95s are pinned in
``tests/data/federation_saturation.json`` and checked by tier-1
(``tests/test_federation_differential.py``), which also holds the
executor-equivalence and flat-pin differentials.
"""

from __future__ import annotations

from typing import Tuple

from repro.parallel.scale import FederationSpec, ScaleSpec, run_scale

__all__ = ["saturation_specs", "run_saturation", "render_saturation"]

#: Arm names, in the order :func:`saturation_specs` returns their specs.
ARM_NAMES = ("flat", "federated-spread", "federated-autoscale", "federated-unscaled")


def saturation_specs(
    quick: bool = False,
) -> Tuple[ScaleSpec, FederationSpec, FederationSpec, FederationSpec]:
    """(flat, spread, skewed-autoscaled, skewed-unscaled) saturation arms.

    The publish interval is chosen so each region's aggregate decap rate
    exceeds one RP's service rate (~3.3 ms per decap): utilization ≈ 1.65
    at the flat core, ≈ 0.4 per federated owner.  The full-size point is
    the 10⁵-player fig6-style run; ``quick`` keeps the same utilization
    story at CI scale.  Saturation is rate-driven, so the flat arm
    replays a shortened window at full size (its per-publish fan-out is
    population/regions; the hockey stick shows within a few hundred
    events) while the federated arms keep the long window the skewed
    repair needs: the autoscaler's cooldown spaces its actions, and p95
    only recovers once post-repair deliveries dominate.

    The fourth arm is the repair gate's control: the identical skewed
    placement over the identical window with the autoscaler *off*.
    Comparing the autoscaled arm against this counterfactual — rather
    than against the flat arm, whose window length differs at full size —
    isolates exactly what the control loop bought.
    """
    base = dict(
        regions=4,
        access_per_region=4,
        seed=11,
        world_fraction=0.0,
        publish_interval_ms=0.5,
    )
    if quick:
        base.update(players=1_200)
        zones, flat_updates, fed_updates = 8, 2_000, 2_000
    else:
        base.update(players=100_000)
        zones, flat_updates, fed_updates = 32, 200, 2_000
    flat = ScaleSpec(**base, updates=flat_updates)
    spread = FederationSpec(
        **base,
        updates=fed_updates,
        zones_per_region=zones,
        skewed_placement=False,
        autoscale=False,
    )
    skewed = FederationSpec(
        **base,
        updates=fed_updates,
        zones_per_region=zones,
        skewed_placement=True,
        autoscale=True,
        autoscale_sample_ms=100.0,
        autoscale_min_interval_ms=400.0,
    )
    unscaled = FederationSpec(
        **base,
        updates=fed_updates,
        zones_per_region=zones,
        skewed_placement=True,
        autoscale=False,
    )
    return flat, spread, skewed, unscaled


def run_saturation(quick: bool = False, slo_p95_ms: float = 30.0) -> dict:
    """Run the four saturation arms and judge the three SLO claims."""
    specs = saturation_specs(quick=quick)
    arms = {name: run_scale(spec) for name, spec in zip(ARM_NAMES, specs)}
    flat_p95, spread_p95, skewed_p95, unscaled_p95 = (
        arms[name]["latency"]["p95_ms"] for name in ARM_NAMES
    )
    actions = arms["federated-autoscale"]["federation"]["actions"]
    # The three claims the gate holds: the flat layout is past the SLO
    # (it saturated), the federated layout is inside it, and the
    # autoscaler repaired the skewed cold start — halved p95 versus the
    # identical skewed run with the loop disabled.
    slo = {
        "flat_saturated": flat_p95 is not None and flat_p95 > slo_p95_ms,
        "spread_within_slo": spread_p95 is not None and spread_p95 <= slo_p95_ms,
        "autoscaler_repaired": (
            actions > 0
            and skewed_p95 is not None
            and unscaled_p95 is not None
            and skewed_p95 <= unscaled_p95 / 2
        ),
    }
    return {
        "players": specs[0].players,
        "slo_p95_ms": slo_p95_ms,
        "arms": arms,
        "slo": slo,
        "ok": all(slo.values()),
    }


def render_saturation(report: dict) -> list:
    """(metric, value) rows for the CLI table."""
    arms = report["arms"]
    rows = [("saturation players", report["players"])]
    for name in ARM_NAMES:
        p95 = arms[name]["latency"]["p95_ms"]
        rows.append((f"{name} p95 ms", "-" if p95 is None else f"{p95:.2f}"))
        rows.append((f"{name} digest", arms[name]["digest"][:16]))
    fed = arms["federated-autoscale"]["federation"]
    rows.extend(
        [
            ("SLO p95 ms", report["slo_p95_ms"]),
            ("autoscaler actions", fed["actions"]),
            (
                "autoscaler splits/merges/migrates",
                f"{fed['splits']}/{fed['merges']}/{fed['migrates']}",
            ),
            ("scoped floods absorbed", fed["scoped_floods"]),
        ]
    )
    rows.extend((claim, "yes" if held else "NO") for claim, held in report["slo"].items())
    rows.append(("SLO gate", "PASS" if report["ok"] else "FAIL"))
    return rows
