"""Smoke tests: the CLI front end and the runnable examples."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import _DISPATCH, _build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_MATRIX = REPO_ROOT / "tests" / "data" / "scenario_matrix.json"

SUBCOMMANDS = (
    "fig3", "fig4", "table1", "fig6", "table2", "table3",
    "scale", "federation", "chaos", "scenarios", "live", "trace", "all",
)
#: ``trace`` needs one of its own sub-subcommands to parse.
EXTRA_ARGV = {"trace": ["record"]}


class TestCliParser:
    def test_all_subcommands_registered(self):
        parser = _build_parser()
        (subparsers,) = parser._subparsers._group_actions
        assert set(subparsers.choices) == set(_DISPATCH) == set(SUBCOMMANDS)
        for command in SUBCOMMANDS:
            args = parser.parse_args([command, *EXTRA_ARGV.get(command, [])])
            assert args.command == command

    def test_defaults(self):
        parser = _build_parser()
        args = parser.parse_args(["table1"])
        assert args.updates == 6000
        args = parser.parse_args(["table2", "--sample", "0.02"])
        assert args.sample == 0.02

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_main_runs_fig3(self, capsys):
        assert main(["fig3", "--updates", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3 workload characterization" in out
        assert "players" in out

    def test_main_runs_table2(self, capsys):
        assert main(["table2", "--sample", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "hybrid-G-COPSS" in out

    def test_main_runs_scenarios_and_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["scenarios", "--scenarios", "churn", "--plans", "none"]) == 0
        out = capsys.readouterr().out
        cell = json.loads(SCENARIO_MATRIX.read_text())["cells"]["churn|none|1"]
        assert "churn|none|1" in out and cell["digest"][:12] in out
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "offline_reconnect.py"],
)
def test_example_runs_clean(script):
    """The fast examples must run to completion as standalone scripts."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_quickstart_output_shows_visibility_semantics():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = result.stdout
    # The soldier's zone action reaches the layers above (self-echo is
    # suppressed at the publisher)...
    assert out.count("sees update on /1/2") == 2
    # ...but its action in the other region is invisible to the pilot.
    assert out.count("sees update on /2/1") == 1
