"""The benchmark's import contract, held in tier-1.

``bench/`` measures the program only through public ``src/repro`` names
(``bench/README.md`` § "The ``src/repro`` surface this benchmark
imports").  This reads ``bench/`` — it imports and changes nothing
there — and checks that every such name still resolves, so a refactor
that breaks the yardstick fails here instead of in the benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.core.engine import GCopssRouter
from repro.sim.engine import Simulator
from repro.sim.network import Network

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_FILES = sorted([*BENCH.glob("*.py"), *BENCH.glob("layers/*.py")])


def _repro_imports(path: Path):
    """Every ``(module, name)`` a ``from repro.x import name`` asks for."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                yield node.module, alias.name


def _span_targets():
    """``bench/spans.py: LAYERS``, evaluated from its source text."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "LAYERS"
    ]
    layers = eval(compile(ast.Expression(value), "bench/spans.py", "eval"), {})
    return [target for targets in layers.values() for target in targets]


def test_bench_files_found():
    names = {path.name for path in BENCH_FILES}
    assert {"run.py", "workloads.py", "spans.py", "oracles.py", "sim.py"} <= names


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_imported_name_exists(path):
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if not hasattr(module, name):  # ``from package import submodule``
            importlib.import_module(f"{module_name}.{name}")


def test_every_span_target_resolves():
    targets = _span_targets()
    assert len(targets) > 40
    for module_name, owner, attr in targets:
        scope = importlib.import_module(module_name)
        if owner is not None:
            scope = getattr(scope, owner)
        assert callable(getattr(scope, attr)), (module_name, owner, attr)


def test_counter_attributes_exist():
    network = Network()
    router = GCopssRouter(network, "r")
    for obj, attrs in (
        (Simulator(), ("events_processed", "batch_pops", "batch_members")),
        (network, ("total_bytes", "total_packets")),
        (router, ("st", "cd_routes", "relinquished", "rp_prefixes", "queue")),
    ):
        for attr in attrs:
            assert hasattr(obj, attr), (type(obj).__name__, attr)
