"""Every CLI command the documentation shows parses with that CLI's own parser.

Scans the repository's markdown for ``python -m repro.experiments …`` and
``python -m repro.trace …`` and feeds the arguments to the module's
``_build_parser()``, so a renamed subcommand or a dropped flag cannot
survive in the prose.  History files (CHANGES.md, ROADMAP.md), task
checklists (files with ``- [ ]`` items, which may name commands that do not
exist yet) and ``bench/`` are left out; a command with a ``<placeholder>`` argument,
or a bare mention of the module with no arguments, names the CLI rather
than running it and is skipped.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.__main__ import _build_parser as experiments_parser
from repro.trace.__main__ import _build_parser as trace_parser

ROOT = Path(__file__).resolve().parent.parent
HISTORY = {"CHANGES.md", "ROADMAP.md"}
CHECKLIST = re.compile(r"^\s*- \[[ xX]\]", re.MULTILINE)
PARSERS = {"repro.experiments": experiments_parser, "repro.trace": trace_parser}
COMMAND = re.compile(r"python3? -m (repro\.(?:experiments|trace))((?:[ \t]+[^\s`#|;)]+)*)")


def documented_commands():
    """``(where, module, args)`` for every runnable command in the markdown."""
    found = []
    for path in sorted(ROOT.rglob("*.md")):
        relative = path.relative_to(ROOT)
        if relative.parts[0] in ("bench", "tests") or relative.name in HISTORY:
            continue
        if any(part.startswith(".") for part in relative.parts):
            continue
        text = path.read_text()
        if CHECKLIST.search(text):
            continue
        for number, line in enumerate(text.splitlines(), 1):
            for match in COMMAND.finditer(line):
                args = shlex.split(match.group(2))
                if not args or any(arg.startswith("<") for arg in args):
                    continue
                found.append((f"{relative}:{number}", match.group(1), args))
    return found


COMMANDS = documented_commands()


def test_the_docs_show_commands():
    assert len(COMMANDS) >= 20


@pytest.mark.parametrize(
    "where, module, args", COMMANDS, ids=[where for where, _, _ in COMMANDS]
)
def test_documented_command_parses(where, module, args):
    errors = io.StringIO()
    try:
        with contextlib.redirect_stderr(errors), contextlib.redirect_stdout(io.StringIO()):
            PARSERS[module]().parse_args(args)
    except SystemExit as exit_:
        assert exit_.code == 0, f"{where}: {module} {' '.join(args)}\n{errors.getvalue()}"
