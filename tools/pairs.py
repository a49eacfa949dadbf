#!/usr/bin/env python3
"""Alternating benchmark pairs of this checkout against a git revision.

    python3 tools/pairs.py REV --workload W [--seed S] [--pairs N] [--seconds T] [--scale S]

The script extracts ``src``, ``perfbench`` and ``tools`` of REV into a
temporary directory and runs N pairs of ``perfbench/run.py --trace 0``, each
tree its own, swapping from pair to pair which side goes first.  For each
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
Q1-Q3, each side's median pass count (``peak_rss_mb`` is a maximum over
passes, so it is read at known pass counts), the pairs the change won (ties
count for neither) and a verdict:

- ``better``: the change won at least 9 of every 10 pairs, and its median is
  better than REV's by more than REV's Q3 - Q1;
- ``worse``: the change's median is worse than REV's by more than the
  metric's ``bound`` times REV's median;
- ``unresolved``: anything else.

A REV that git cannot archive exits 1 before any run, and so does the first
run that exits nonzero or reports ``failed`` > 0.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from artifacts import git_archive  # noqa: E402


def run_once(tree: Path, args: argparse.Namespace) -> dict[str, float]:
    """The end-to-end metrics of one untraced run of ``tree``'s benchmark and, as
    ``passes``, its pass count; a failed run exits 1 with its output."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--scale", args.scale]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    if result is None or result["failed"]:
        sys.exit(f"run of {tree} failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    # The line before the result holds the environment and the list of pass times.
    passes = len(json.loads(lines[-2])["passes"])
    return {"passes": passes, **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median and Q3, with numpy's default (linear) interpolation."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """The pairs the change won and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: the change won
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    (p1, p_median, p3), (_, c_median, _) = quartiles(parent), quartiles(change)
    gain = sign * (p_median - c_median)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return wins, "better"
    if -gain > bound * abs(p_median):
        return wins, "worse"
    return wins, "unresolved"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    archive = git_archive(args.rev)
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as parent_tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_tree, filter="data")
        trees = {"parent": Path(parent_tree), "change": ROOT}
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(run_once(trees[side], args))
            print(f"pair {k + 1}/{args.pairs}: " + ", ".join(
                f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
                for name in [m["name"] for m in metrics] + ["passes"]), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, {args.rev} -> this checkout")
    p_passes, c_passes = (statistics.median(run["passes"] for run in runs[side])
                          for side in ("parent", "change"))
    for m in metrics:
        parent, change = ([run[m["name"]] for run in runs[side]] for side in ("parent", "change"))
        wins, word = verdict(parent, change, m["better"], m["bound"])
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(f"{m['name']:12s} {pm:.5g} ({p1:.5g}-{p3:.5g}) {m['unit']} at {p_passes:g} passes "
              f"-> {cm:.5g} ({c1:.5g}-{c3:.5g}) {m['unit']} at {c_passes:g} passes, "
              f"change won {wins}/{args.pairs}: {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
