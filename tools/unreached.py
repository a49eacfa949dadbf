#!/usr/bin/env python3
"""List the lines of ``src/tvconsensus`` that the benchmark workloads never execute.

    python3 tools/unreached.py [--tests]

Line tracing (``sys.settrace``, standard library only) starts before
``tvconsensus`` is imported, so module-level code counts.  The script then runs
every workload of ``perfbench/workloads.py`` at smoke scale with seed 1 through
``load_config`` and ``run_experiment`` in a temporary working directory; with
``--tests`` it also runs the test suite in-process, which takes minutes rather
than a second.  Code that the tests reach only in a subprocess (the CLI tests
that spawn ``python -m tvconsensus``) is not seen.

Each executable line that no traced frame reached is printed as
``src/tvconsensus/<file>:<line>: <source>``.  The exit status is 0, or the
test suite's status when ``--tests`` ran it and it failed.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tvconsensus"
PREFIX = str(PACKAGE) + os.sep


def package_tracer(reached: set[tuple[str, int]]):
    """A ``sys.settrace`` function that adds each (file, line) the package runs to ``reached``
    and leaves every other frame untraced, so the rest of the run stays fast."""

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PREFIX):
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    return trace_calls


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some bytecode of the file's code objects is attributed to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module prologue
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_workloads() -> None:
    import workloads
    from tvconsensus.config import load_config
    from tvconsensus.harness import run_experiment

    home = os.getcwd()
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="unreached-") as work:
            os.chdir(work)
            try:
                for path in workloads.write_inputs(workloads.build(workload, 1, "smoke"), "."):
                    run_experiment(load_config(path))
            finally:
                os.chdir(home)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", action="store_true",
                        help="also run the test suite in-process")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    status = 0
    reached: set[tuple[str, int]] = set()
    tracer = package_tracer(reached)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run_workloads()
        if args.tests:
            import pytest

            status = int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in reached:
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main())
