"""Which ``src/fedtx`` lines no collected test executes: an opt-in pytest plugin.

Load it with ``-p`` from the repository root; a plain test run never loads it::

    python -m pytest -p tests.linereach tests perfbench

From its import on, it records every line executed in a file under
``src/fedtx``, in the main thread (``sys.settrace``) and in every thread
started later (``threading.settrace``). At the end of the session it prints,
file by file, the executable lines that never ran. A line is executable when
the compiled file maps an instruction to it, docstrings aside; a multi-line
statement may therefore list a line the statement reached only in part.
Subprocesses, such as perfbench's smoke runs, are not traced. The trace makes
the run two to three times slower, and it uses only the standard library.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fedtx"

# Executed line numbers, by absolute file name as the compiler records it.
_executed: dict[str, set[int]] = {str(path): set() for path in sorted(SOURCE.glob("*.py"))}


def _local_tracer(lines: set[int]):
    add = lines.add

    def trace_lines(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return trace_lines

    return trace_lines


_local_tracers = {name: _local_tracer(lines) for name, lines in _executed.items()}


def _trace_calls(frame, event, arg):
    return _local_tracers.get(frame.f_code.co_filename)


def executable_lines(source: str, filename: str) -> set[int]:
    """Lines of ``source`` that some instruction maps to, docstring lines excluded.

    A body of a docstring alone returns None from the docstring's line;
    that line is no statement a test could miss.
    """
    tree = ast.parse(source, filename)
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    codes = [compile(tree, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines - docstrings


def _ranges(lines: list[int]) -> str:
    """``1, 3-5, 9`` for [1, 3, 4, 5, 9]."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def unreached() -> dict[str, list[int]]:
    """Each traced file's executable lines that have not run yet, by file name."""
    missed = {}
    for name, executed in _executed.items():
        missing = sorted(executable_lines(Path(name).read_text(), name) - executed)
        if missing:
            missed[name] = missing
    return missed


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    write = terminalreporter.write_line
    terminalreporter.section("src/fedtx lines no test executed")
    imported = getattr(sys.modules.get("fedtx"), "__file__", None)
    if imported is None or Path(imported).resolve().parent != SOURCE:
        write(f"fedtx was not imported from {SOURCE}; nothing there was traced")
        return
    missed = unreached()
    root = SOURCE.parent.parent
    for name, lines in missed.items():
        write(f"{Path(name).relative_to(root)}: {_ranges(lines)}")
    write(f"{sum(map(len, missed.values()))} lines in {len(missed)} files")


sys.settrace(_trace_calls)
threading.settrace(_trace_calls)
