"""A pytest plugin that lists the ``src/edgedel`` statements a test run
leaves unexecuted, and fails the run on any that ``tests/data/unexecuted.txt``
does not list.

Load it by name, with ``tests`` importable, on the tier-1 suite:

    PYTHONPATH=src:tests python -m pytest -q -p unexecuted_trace

It traces with ``sys.settrace`` (no dependency beyond pytest), which slows
the run about twofold, so tier-1 itself runs without it.  Hypothesis draws
derandomized examples under it, so two runs execute the same statements.

A statement is one inside a function body (module and class bodies run at
import), docstrings, ``global`` and ``nonlocal`` excluded: they make no
line event.  A compound statement counts as executed when its header or
any statement of its body is.  Each statement is keyed by its function's
qualified name and the stripped text of its first line, not by line
number, so the list survives edits elsewhere; a key may repeat.

The list holds one ``function<TAB>statement<TAB>reason`` line per entry
('#' starts a comment line).  A statement that the run leaves unexecuted
and the list does not name fails the run; an entry the run did execute is
reported, to be taken off the list.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edgedel"
LISTED = Path(__file__).resolve().parent / "data" / "unexecuted.txt"

_NO_EVENT = (ast.Global, ast.Nonlocal)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _bodies(stmt):
    """The statement lists nested in the compound statement ``stmt``."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(stmt, field, None) or []
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body
    for case in getattr(stmt, "cases", ()):
        yield case.body


def statements(path: Path):
    """(function, first-line text, header lines, nested statements' indices)
    for each statement inside a function body of the module at ``path``,
    the function named by its qualified name within the module (prefixed by
    the module's name).  The header lines of a simple statement are all of
    its lines; those of a compound one end before its first nested
    statement."""
    text = path.read_text()
    lines = text.splitlines()
    out = []

    def visit(body, qualname, in_function):
        for k, stmt in enumerate(body):
            if in_function and (isinstance(stmt, _NO_EVENT) or k == 0 and _is_docstring(stmt)):
                continue
            nested = [s for b in _bodies(stmt) for s in b] if not isinstance(stmt, _DEFS) else []
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
            last = max(stmt.lineno, nested[0].lineno - 1) if nested else stmt.end_lineno
            if isinstance(stmt, _DEFS):
                last = stmt.body[0].lineno - 1
            index = None
            if in_function:
                index = len(out)
                out.append([qualname, lines[stmt.lineno - 1].strip(), range(first, last + 1), []])
            if isinstance(stmt, _DEFS):
                visit(stmt.body, f"{qualname}.{stmt.name}", not isinstance(stmt, ast.ClassDef))
            else:
                inner = len(out)
                for b in _bodies(stmt):
                    visit(b, qualname, in_function)
                if index is not None:
                    out[index][3] = range(inner, len(out))

    visit(ast.parse(text).body, path.stem, False)
    return out


def unexecuted(executed) -> Counter:
    """(function, statement) keys of every ``src/edgedel`` statement whose
    header has no line in ``executed``, a set of (path, line), and none of
    whose nested statements ran."""
    missed = Counter()
    for path in sorted(SRC.glob("*.py")):
        found = statements(path)
        ran = [False] * len(found)
        # nested statements come after their compound statement
        for i in reversed(range(len(found))):
            _, _, header, nested = found[i]
            ran[i] = any((str(path), n) in executed for n in header) or any(
                ran[j] for j in nested)
        missed.update((q, t) for (q, t, _, _), r in zip(found, ran) if not r)
    return missed


def read_listed(path: Path = LISTED) -> dict:
    """The checked-in list: {(function, statement): [reason, ...]}."""
    listed: dict = {}
    for raw in path.read_text().splitlines():
        if raw.strip() and not raw.startswith("#"):
            function, statement, reason = raw.split("\t")
            listed.setdefault((function, statement), []).append(reason)
    return listed


_executed: set = set()
_prefix = str(SRC) + os.sep


def _local(frame, event, arg):
    if event == "line":
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_prefix) else None


def pytest_configure(config):
    from hypothesis import settings

    settings.register_profile("unexecuted", derandomize=True, database=None, deadline=None)
    settings.load_profile("unexecuted")
    threading.settrace(_global)
    sys.settrace(_global)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    import edgedel

    if not Path(edgedel.__file__).resolve().is_relative_to(SRC):
        raise pytest.UsageError(f"edgedel was imported from {edgedel.__file__}, not {SRC}")
    missed = unexecuted(_executed)
    listed = Counter({key: len(reasons) for key, reasons in read_listed().items()})
    session.config._unexecuted = (missed - listed, listed - missed, sum(missed.values()))
    if missed - listed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    new, ran, total = config._unexecuted
    write = terminalreporter.write_line
    write(f"unexecuted src statements: {total}, listed in {LISTED.relative_to(ROOT)}")
    for title, keys in (("not listed (add a test, or list with a reason)", new),
                        ("listed but executed (take off the list)", ran)):
        if keys:
            terminalreporter.section(title)
            for (function, statement), n in sorted(keys.items()):
                for _ in range(n):
                    write(f"{function}\t{statement}")
