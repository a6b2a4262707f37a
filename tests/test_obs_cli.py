"""End-to-end tests for ``python -m repro.experiments trace``."""

import ast
import json

import pytest

from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One tiny traced fig4 recording shared by the query tests."""
    out = tmp_path_factory.mktemp("rec")
    code = main(
        [
            "trace", "record",
            "--workload", "fig4",
            "--scale", "0.01",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestRecord:
    def test_exports_all_three_formats(self, recorded, capsys):
        events = recorded / "fig4.events.jsonl"
        chrome = recorded / "fig4.chrome.json"
        prom = recorded / "fig4.metrics.prom"
        assert events.exists() and chrome.exists() and prom.exists()
        # Chrome trace is a valid trace-event document.
        doc = json.loads(chrome.read_text())
        phases = {row["ph"] for row in doc["traceEvents"]}
        assert {"M", "X"} <= phases
        # Prometheus text has TYPE headers and samples.
        assert "# TYPE repro_" in prom.read_text()

    def test_jsonl_lines_are_trace_events(self, recorded):
        lines = (recorded / "fig4.events.jsonl").read_text().splitlines()
        assert len(lines) > 100
        row = json.loads(lines[0])
        assert {"t", "trace_id", "uid", "node", "kind"} <= set(row)


class TestQuery:
    def test_default_query_reconstructs_a_delivered_chain(self, recorded, capsys):
        code = main(
            ["trace", "query", "--events", str(recorded / "fig4.events.jsonl")]
        )
        assert code == 0
        out = capsys.readouterr().out
        # A complete publisher-to-subscriber story on one trace id.
        assert "publish" in out
        assert "forward" in out
        assert "deliver" in out

    def test_receiver_restricted_query(self, recorded, capsys):
        events_path = recorded / "fig4.events.jsonl"
        rows = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        delivered = next(r for r in rows if r["kind"] == "deliver")
        code = main(
            [
                "trace", "query",
                "--events", str(events_path),
                "--id", str(delivered["trace_id"]),
                "--receiver", delivered["node"],
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"-> {delivered['node']}" in out
        assert "deliver" in out

    def test_drops_summary_renders_table(self, recorded, capsys):
        code = main(
            ["trace", "drops", "--events", str(recorded / "fig4.events.jsonl")]
        )
        assert code == 0
        assert "Drop reasons" in capsys.readouterr().out


class TestChaosTraceFlag:
    def test_chaos_with_trace_prints_drop_reasons(self, capsys):
        code = main(
            [
                "chaos",
                "--plan", "rp-split-lossy",
                "--seed", "1",
                "--scale", "0.01",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injected drop reasons:" in out
        # The injected line is the injector's tally: it sums to the
        # "injected drops" row and carries no protocol drop (the
        # publisher suppressing its own echo is not a fault).
        lines = out.splitlines()
        line = next(l for l in lines if l.startswith("injected drop reasons:"))
        injected = ast.literal_eval(line.split(":", 1)[1].strip())
        assert "own_echo" not in injected
        row = next(l for l in lines if "injected drops" in l)
        assert sum(injected.values()) == int(row.strip(" |").split("|")[-1])
        assert "other recorded drop reasons:" in out
