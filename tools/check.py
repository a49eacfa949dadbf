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
<seconds>s`` line; a failing stage's output follows its line.  A passing stage whose
output ends with pytest's count, such as ``1310 passed in 36.10s``, ends its line with
that count: ``PASS tier1 36.1s 1310 passed``.  After the last
stage passes, one ``src_lines <REV's count> -> <this checkout's count>`` line
follows: the lines of ``src/tvconsensus/*.py``, counted as perfbench's
``package.src_lines`` counts them, with REV's files read through git.  It only
reports; it gates nothing.  The exit status is 0 only if every stage passes,
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tvconsensus"


def stages(rev: str, dest: Path) -> list[tuple[str, list[str]]]:
    python = sys.executable
    return [
        ("artifacts", [python, str(ROOT / "tools" / "artifacts.py"), str(dest), "--against", rev]),
        ("selftest", [python, "-m", "pytest", "-q", "perfbench/selftest.py"]),
        ("tier1", [python, "-m", "pytest", "-q", "--continue-on-collection-errors"]),
    ]


def passed_count(output: str) -> str:
    """The last count line of pytest's output without its time, such as ``1310 passed`` or
    ``1309 passed, 1 skipped``; '' if the output has none."""
    counts = re.findall(r"^=* *(\d+ passed(?:, \d+ \w+)*) in [\d.]+s\b", output, re.M)
    return counts[-1] if counts else ""


def src_lines(rev: str | None = None) -> int:
    """Lines of ``src/tvconsensus/*.py`` in git revision ``rev``, or in this checkout when
    ``rev`` is None, counted as perfbench's ``package.src_lines``: ``str.splitlines``."""
    if rev is None:
        texts = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    else:
        names = git("ls-tree", "--name-only", rev, "src/tvconsensus/").splitlines()
        texts = [git("show", f"{rev}:{name}") for name in names if name.endswith(".py")]
    return sum(len(text.splitlines()) for text in texts)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True,
                          encoding="utf-8").stdout


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
            line = f"{'PASS' if passed else 'FAIL'} {name} {time.perf_counter() - start:.1f}s"
            count = passed_count(proc.stdout) if passed else ""
            print(f"{line} {count}" if count else line, flush=True)
            if not passed:
                print(proc.stdout, end="")
                return 1
    print(f"src_lines {src_lines(args.rev)} -> {src_lines()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
