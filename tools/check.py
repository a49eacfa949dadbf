#!/usr/bin/env python3
"""Run the repository's guardrails against a git revision, stopping at the first failure.

    python3 tools/check.py REV

The stages, in order:

- ``artifacts``: ``tools/artifacts.py`` into a temporary DEST with ``--against REV``
  at full scale, so the benchmark's CSV/JSON artifacts must equal REV's byte for byte;
- ``selftest``: ``python -m pytest -q perfbench/selftest.py``;
- ``tier1``: ``python -m pytest -q --continue-on-collection-errors`` with ``src``
  on ``PYTHONPATH``.

Each stage that runs prints one ``PASS <stage> <seconds>s`` or ``FAIL <stage>
<seconds>s`` line; a failing stage's output follows its line.  The exit status
is 0 only if every stage passes, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stages(rev: str, dest: Path) -> list[tuple[str, list[str]]]:
    python = sys.executable
    return [
        ("artifacts", [python, str(ROOT / "tools" / "artifacts.py"), str(dest), "--against", rev]),
        ("selftest", [python, "-m", "pytest", "-q", "perfbench/selftest.py"]),
        ("tier1", [python, "-m", "pytest", "-q", "--continue-on-collection-errors"]),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision whose artifacts must be matched")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="check-") as work:
        for name, command in stages(args.rev, Path(work) / "out"):
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            passed = proc.returncode == 0
            print(f"{'PASS' if passed else 'FAIL'} {name} {time.perf_counter() - start:.1f}s",
                  flush=True)
            if not passed:
                print(proc.stdout, end="")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
