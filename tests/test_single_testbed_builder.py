"""AST lint: the Fig. 3b G-COPSS testbed is stood up in exactly one place.

``run_gcopss_testbed``, ``run_fig4_traced``, ``run_chaos`` and
``run_scenario`` each used to carry their own copy of "topology → RP at R1
→ builder install → executor".  They now share
:func:`repro.experiments.testbed.build_testbed`; this check keeps the
copies from growing back: across ``src/repro`` exactly one
``build_benchmark_topology(...)`` call passes a router factory that builds
a ``GCopssRouter``, and it lives in ``experiments/testbed.py``.  The IP and
NDN baselines build the same topology with their own router types and keep
their calls.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def benchmark_topology_calls():
    """``(path, lineno, router factory source)`` per call in ``src/repro``."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "build_benchmark_topology" not in text:
            continue
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name != "build_benchmark_topology":
                continue
            factory = next(
                (kw.value for kw in node.keywords if kw.arg == "router_factory"),
                node.args[0] if node.args else None,
            )
            source = ast.get_source_segment(text, factory) if factory is not None else ""
            calls.append((path.relative_to(SRC).as_posix(), node.lineno, source))
    return calls


def test_one_gcopss_testbed_builder():
    calls = benchmark_topology_calls()
    gcopss = [(path, line) for path, line, factory in calls if "GCopssRouter" in factory]
    assert [path for path, _line in gcopss] == ["experiments/testbed.py"], (
        "the Fig. 3b G-COPSS testbed must be built through "
        f"repro.experiments.testbed.build_testbed only; found {gcopss}"
    )


def test_every_call_names_its_router_factory():
    """A call the lint cannot classify would slip past the count above."""
    calls = benchmark_topology_calls()
    assert len(calls) == 3, calls  # testbed builder, IP baseline, NDN baseline
    for path, line, factory in calls:
        assert "Router(" in factory, f"{path}:{line} router factory is opaque: {factory!r}"
