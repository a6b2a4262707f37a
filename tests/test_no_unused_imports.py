"""Structural guard: every name a ``src/repro`` module imports is read there.

An import nothing reads is dead weight the linters would flag, but no
lint job runs here, so this scans with ``ast``.  A name counts as read
when it appears as a ``Name`` anywhere in the module, including inside a
string constant that parses as an expression (string annotations such as
``"Set[str] | None"``, and ``__all__`` entries).  ``__init__.py`` files
are skipped (their imports are the package's re-exports), and so are
imports under ``if TYPE_CHECKING:``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_type_checking(node):
    test = node.test
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def imported(tree):
    """``(line, bound name)`` for each import outside ``TYPE_CHECKING`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        yield node.lineno, alias.asname or alias.name
        else:
            stack.extend(ast.iter_child_nodes(node))


def read(tree):
    """Every ``Name`` id in ``tree``, string expressions included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                found |= read(ast.parse(node.value.strip(), mode="eval"))
            except SyntaxError:
                pass
    return found


def unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = read(tree)
        found += [
            f"{path.relative_to(SRC.parent.parent)}:{line} {name}"
            for line, name in imported(tree)
            if name not in names
        ]
    return sorted(found)


def test_every_import_is_read():
    unused = unused_imports()
    assert not unused, "imported but never read — remove:\n" + "\n".join(unused)


def test_string_annotations_and_type_checking_count():
    tree = ast.parse(
        "from typing import TYPE_CHECKING, Set\n"
        "if TYPE_CHECKING:\n"
        "    from x import Hidden\n"
        "import os.path\n"
        "def f(a: 'Set[str] | None') -> None:\n"
        "    return os.sep\n"
    )
    assert {name for _, name in imported(tree)} == {"TYPE_CHECKING", "Set", "os"}
    assert {"TYPE_CHECKING", "Set", "os"} <= read(tree)
