"""Structural guard: every definition in ``src/repro`` has a caller outside ``tests/``.

A function, class or method that only tests call is a second API the
program never runs.  This scans with ``ast``: a module-level def/class or
a non-dunder method counts as called when its name appears — as a
``Name``, an ``Attribute`` or an identifier-like string constant (the
span targets of ``bench/spans.py`` such as ``"InvariantMonitor.on_publish"``)
— somewhere in ``src/repro`` outside its own definition, or anywhere in
``bench/``, ``benchmarks/`` or ``examples/``.  ``__all__`` lists and
import statements are not callers.  The check is by name, so a def that
shares its name with a called one passes; it catches the unique ones.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("bench", "benchmarks", "examples")

#: Test-only definitions that stay, and why.
ALLOWED = {
    "delivery_digest": (
        "reference definition of the delivery digest; tests check the "
        "streamed DeliveryLog.digest against it"
    ),
    "partition_by_anchors": (
        "seam that lets the sharded differential tests cut a hand-built "
        "network at chosen anchors"
    ),
    "__getattr__": (
        "module hook the interpreter calls: repro.trace resolves its "
        "package-level names on first access"
    ),
}

_IDENT = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def names_in(tree, skip=None):
    """Count every identifier ``tree`` names, leaving out the ``skip`` node."""
    found = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or _is_all(node):
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENT.match(node.value):
                found.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def definitions(tree):
    """``(qualified name, node)`` for each module-level def and non-dunder method."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def uncalled():
    """Sorted ``path:line qualified-name`` of every def nothing names."""
    sources = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    callers = Counter()
    for tree in sources.values():
        callers += names_in(tree)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            callers += names_in(ast.parse(path.read_text()))
    found = []
    for path, tree in sources.items():
        for qualified, node in definitions(tree):
            name = node.name
            if callers[name] - names_in(node)[name] > 0:
                continue
            found.append((f"{path.relative_to(ROOT)}:{node.lineno}", qualified))
    return found


def test_every_def_has_a_caller_outside_tests():
    missing = [
        f"{where} {qualified}"
        for where, qualified in uncalled()
        if qualified.rsplit(".", 1)[-1] not in ALLOWED
    ]
    assert not missing, (
        "defined in src/repro but named nowhere outside tests/ — delete it, "
        "or add it to ALLOWED with the reason it stays:\n" + "\n".join(missing)
    )


def test_every_allowlist_entry_is_needed_and_explained():
    exempt = {qualified.rsplit(".", 1)[-1] for _, qualified in uncalled()}
    assert set(ALLOWED) <= exempt, f"callers exist now: {sorted(set(ALLOWED) - exempt)}"
    assert all(reason.strip() for reason in ALLOWED.values())
