"""Check that tier-1 executes every raise statement under src/hyperhaar/.

Runs tier-1 in this process under sys.settrace, with line events only in
frames whose code lies in src/hyperhaar/, and finds each raise statement there
with ast.  A raise that only a child process reaches (a test that runs the CLI
or a solve in a fresh interpreter) is listed in FRESH_INTERPRETER with that
test, which must pass.  Exits 1 if tier-1 fails, if a raise is neither executed
nor listed, or if a listing is stale: its raise is gone, is executed in
process, or its test did not pass.

Usage, from the repository root:
    PYTHONPATH=src python tools/raise_reach.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperhaar"

# (file, text on the raise's first line) -> the test that reaches it only in a
# child process; empty while tier-1 reaches every raise in process
FRESH_INTERPRETER: dict = {}


def raise_lines() -> dict:
    """{(path, line): source of that line} for every raise statement in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise):
                found[(str(path), node.lineno)] = lines[node.lineno - 1].strip()
    return found


class _Passed:
    """A pytest plugin that records the node ids of the tests that passed."""

    def __init__(self):
        self.ids = set()

    def pytest_runtest_logreport(self, report):
        if report.when == "call" and report.passed:
            self.ids.add(report.nodeid)


def traced_run(args: list) -> tuple:
    """Run pytest on args under a line tracer of the package's frames: its exit
    code, the (path, line) pairs executed, and the ids of the passed tests."""
    prefix, executed = str(PACKAGE), set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    passed = _Passed()
    sys.settrace(calls)
    threading.settrace(calls)
    try:
        code = pytest.main(args, plugins=[passed])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed, passed.ids


def main(argv=None) -> int:
    args = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *(argv or [])]
    code, executed, passed = traced_run(args)
    problems = [] if code == 0 else [f"tier-1 exited {code}"]
    raises = raise_lines()
    listed = set()
    for (path, line), source in raises.items():
        key = next((k for k in FRESH_INTERPRETER
                    if path.endswith("/" + k[0]) and source.startswith(k[1])), None)
        where = f"{Path(path).relative_to(ROOT)}:{line}: {source}"
        if key is not None:
            listed.add(key)
            if (path, line) in executed:
                problems.append(f"listed as reached in a child process, but executed in process: "
                                f"{where}")
            elif FRESH_INTERPRETER[key] not in passed:
                problems.append(f"{FRESH_INTERPRETER[key]} did not pass, so nothing reaches "
                                f"{where}")
        elif (path, line) not in executed:
            problems.append(f"never executed: {where}")
    problems += [f"listed raise not found: {k}" for k in FRESH_INTERPRETER.keys() - listed]
    print(f"raise_reach: {len(raises)} raise statements, {len(listed)} reached only in a "
          f"fresh interpreter, {len(problems)} problems")
    for p in problems:
        print(f"raise_reach: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
