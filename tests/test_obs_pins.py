"""Pinned output of the telemetry plane (`repro.obs`), value for value.

Two recorded runs — the Fig. 4 testbed and one chaos plan — are held to
what the tracer and the metrics registry recorded and to what the three
exporters wrote, so a change to how `repro.obs` *stores* what it records
cannot change *what* it records.  Everything is compared in a form that
does not depend on the interpreter's history or on number boxing:

* ``trace_id`` / ``uid`` come from a process-global counter, so they are
  replaced by first-seen rank before hashing;
* metric values are compared as floats (``7 == 7.0``): every series is
  hashed after a JSON round trip with each number passed through
  ``float``, and the first and last point of four series are kept
  beside the hash as a readable anchor (the whole ``as_dict()`` is
  3.5 MB per run);
* the ``.prom`` text is compared after parsing each value as a float.

Regenerate after a *declared* change of what is recorded with
``PYTHONPATH=src python tests/test_obs_pins.py > tests/data/telemetry_fig4.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.tracerun import pick_example_trace, run_fig4_traced
from repro.obs.exporters import chrome_trace, prometheus_text
from repro.obs.session import TelemetrySession
from repro.obs.tracer import render_chain
from repro.parallel.digest import canonical_digest

PINS = Path(__file__).parent / "data" / "telemetry_fig4.json"

#: sha256 of the fig4 run's ``.prom`` text (see ``test_prom_text_bytes``).
PROM_TEXT_SHA256 = "1773560bd498bb8272e4a716106bedbad5a511f7d2240a7e5e15bb7aca6098e2"

#: Series whose first and last point sit next to the all-series hash.
SAMPLE_SERIES = (
    "net.total_packets",
    "sim.events_processed",
    "node.R1.queue.mean_wait_ms",
    "node.R1.rp.recent_decaps",
)


class Ranks:
    """uid -> order of first appearance (uids are process-global)."""

    def __init__(self) -> None:
        self._rank = {}

    def __call__(self, uid: int) -> int:
        return self._rank.setdefault(uid, len(self._rank))


def event_rows(events) -> list:
    rank = Ranks()
    rows = []
    for event in events:
        row = event.as_dict()
        row["trace_id"] = rank(row["trace_id"])
        row["uid"] = rank(row["uid"])
        rows.append(row)
    return rows


def chrome_document(events) -> dict:
    document = json.loads(json.dumps(chrome_trace(events)))
    rank = Ranks()
    for row in document["traceEvents"]:
        args = row.get("args", {})
        if "trace_id" in args:
            args["trace_id"] = rank(args["trace_id"])
            args["uid"] = rank(args["uid"])
    return document


def float_series(as_dict: dict) -> dict:
    """``as_dict()`` after a JSON round trip, every number a float."""
    return {
        name: [[float(t), float(value)] for t, value in points]
        for name, points in json.loads(json.dumps(as_dict)).items()
    }


def prom_samples(text: str) -> list:
    """``[name, float(value), timestamp]`` per sample line, in file order."""
    samples = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name, value, stamp = line.split()
        samples.append([name, float(value), int(stamp)])
    return samples


def chains(tracer) -> dict:
    """Hop chains of the run's example trace: whole tree and one branch."""
    events = list(tracer.events)
    trace_id = pick_example_trace(events)
    receiver = next(
        e.node for e in events if e.trace_id == trace_id and e.kind == "deliver"
    )
    return {
        "receiver": receiver,
        "tree": render_chain(tracer.hop_chain(trace_id)),
        "branch": render_chain(tracer.hop_chain(trace_id, receiver=receiver)),
        "events_for": len(tracer.events_for(trace_id)),
    }


def summary(session: TelemetrySession) -> dict:
    tracer, metrics = session.tracer, session.metrics
    series = float_series(metrics.as_dict())
    return {
        "events_recorded": len(tracer.events),
        "trace_ids": len(tracer.trace_ids()),
        "events_sha256": canonical_digest(event_rows(tracer.events)),
        "chrome_sha256": canonical_digest(chrome_document(tracer.events)),
        "drop_summary": tracer.drop_summary(),
        "hop_chains": chains(tracer),
        "metric_names": canonical_digest(metrics.names()),
        "series_count": len(series),
        "series_sha256": canonical_digest(series),
        "series_sample": {
            name: {"points": len(series[name]), "ends": [series[name][0], series[name][-1]]}
            for name in SAMPLE_SERIES
        },
        "prom_sha256": canonical_digest(prom_samples(prometheus_text(metrics))),
    }


def record() -> dict:
    fig4 = TelemetrySession()
    run_fig4_traced(scale=0.02, seed=7, telemetry=fig4)
    chaos = TelemetrySession()
    report = run_chaos("rp-split-lossy", seed=1, scale=0.02, telemetry=chaos)
    return {"fig4": fig4, "chaos": chaos, "chaos_trace": report.trace}


def compute(recorded: dict) -> dict:
    return {
        "fig4": summary(recorded["fig4"]),
        "chaos": {**summary(recorded["chaos"]), "trace": recorded["chaos_trace"]},
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def recorded() -> dict:
    return record()


@pytest.fixture(scope="module")
def computed(recorded) -> dict:
    return json.loads(json.dumps(compute(recorded)))


@pytest.mark.parametrize("run", ["fig4", "chaos"])
def test_recorded_telemetry_matches_pin(pinned, computed, run):
    for key, expected in pinned[run].items():
        assert computed[run][key] == expected, f"{run}.{key}"
    assert sorted(computed[run]) == sorted(pinned[run])


def test_prom_text_bytes(recorded):
    """The ``.prom`` bytes themselves, not only their parsed values.

    Samples are stored as float64, so an integral counter is written
    ``7.0`` where the boxed-number registry wrote ``7``: same value (the
    pin above), different bytes — which is why this hash lives here and
    not in the fixture shared with the parent commit.
    """
    text = prometheus_text(recorded["fig4"].metrics)
    assert "repro_net_total_packets 9106.0 " in text
    assert hashlib.sha256(text.encode()).hexdigest() == PROM_TEXT_SHA256


if __name__ == "__main__":
    print(json.dumps(compute(record()), indent=1, sort_keys=True))
