"""The `scale` scenario: three execution modes, one delivery digest.

Tier-1 keeps a small multiprocess smoke (2 workers) — the cheapest
end-to-end proof that the slice-building worker protocol reproduces
the serial digest across real process boundaries.  The wider sweeps
(4 workers, the multiprocess CLI run) are slow-marked.
"""

import pytest

from repro.experiments.__main__ import main
from repro.parallel.scale import (
    ScaleSpec,
    build_scale_world,
    run_scale,
    scale_events,
)
from repro.parallel.slicing import scale_plan_fast

SPEC = ScaleSpec(players=64, regions=4, access_per_region=2, updates=80, seed=9)


class TestScaleWorkload:
    def test_build_is_a_pure_function_of_the_spec(self):
        a = build_scale_world(SPEC)
        b = build_scale_world(SPEC)
        assert sorted(a.network.nodes) == sorted(b.network.nodes)
        assert [n.rank for n in a.network.nodes.values()] == [
            n.rank for n in b.network.nodes.values()
        ]
        assert a.host_region == b.host_region

    def test_events_are_deterministic_and_in_window(self):
        events = scale_events(SPEC)
        assert events == scale_events(SPEC)
        assert len(events) == SPEC.updates
        for time, player, cd in events:
            assert SPEC.publish_start_ms <= time < SPEC.horizon_ms
            assert player in build_scale_world(SPEC).hosts
            assert cd.startswith("/region/") or cd == "/world"

    def test_plan_anchors_at_cores(self):
        world = build_scale_world(SPEC)
        plan = scale_plan_fast(SPEC, 2)
        assert plan.anchors == ("core0", "core1")
        # Every host shares its region core's shard when one core per
        # region is an anchor.
        full = scale_plan_fast(SPEC, 4)
        for host, region in world.host_region.items():
            assert full.shard_of(host) == full.shard_of(f"core{region}")


class TestScaleEquivalence:
    def test_two_workers_match_serial(self):
        serial = run_scale(SPEC)
        proc = run_scale(SPEC, workers=2)
        assert proc["digest"] == serial["digest"]
        assert proc["deliveries"] == serial["deliveries"]
        assert proc["events_processed"] == serial["events_processed"]
        assert proc["network_bytes"] == serial["network_bytes"]
        assert proc["network_packets"] == serial["network_packets"]
        assert proc["mode"] == "proc:2" or "fallback" in proc

    @pytest.mark.slow
    def test_four_workers_and_inproc_match_serial(self):
        serial = run_scale(SPEC)
        for kwargs in ({"shards": 4}, {"workers": 4}):
            other = run_scale(SPEC, **kwargs)
            assert other["digest"] == serial["digest"], kwargs

    def test_shards_must_agree_with_workers(self):
        # workers > 1 is one process per shard: a differing shard count
        # used to be dropped silently and the run labelled proc:2.
        with pytest.raises(ValueError, match="shards must be 1 or 2"):
            run_scale(SPEC, shards=4, workers=2)


CLI_SPEC = [
    "scale", "--players", "64", "--regions", "4", "--access-per-region", "2",
    "--updates", "80", "--seed", "9", "--world-fraction", "0.05",
]  # == SPEC


class TestScaleCli:
    def test_serial_run_prints_table_and_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        assert main([*CLI_SPEC, "--workers", "1"]) == 0
        out = capsys.readouterr().out
        for heading in ("mode", "deliveries", "digest"):
            assert heading in out
        assert "serial" in out and run_scale(SPEC)["digest"][:16] in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.slow
    def test_every_mode_reproduces_the_serial_digest(self, capsys):
        assert main([*CLI_SPEC, "--workers", "1,2"]) == 0
        rows = [
            line.split("|")[1:-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("|")
        ][1:]
        assert [row[0].strip() for row in rows] == ["serial", "inproc:2", "proc:2"]
        assert all(row[-1].strip() == "OK" for row in rows)
