#!/usr/bin/env python3
"""Benchmark of ``tvconsensus``: experiment configs through ``run_experiment``.

    python3 perfbench/run.py --workload paper_kn --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload: a closed loop of one client that runs the
workload's scenarios back to back (YAML config -> ``load_config`` ->
``run_experiment`` -> CSV and JSON artifacts), pass after pass, until at
least two passes are done and ``--seconds`` of passes have been measured.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median of five fresh processes that import the package,
generate the inputs and write the configs) and ``peak_rss_mb``.  ``--trace 1``
runs one untraced pass, then one traced pass, and reports the per-layer
metrics of the traced pass; the spans go to ``.perfbench/spans/``.

Outside the timed passes the benchmark checks every scenario's artifacts
against independent oracles (``oracles.py``) and checks that every pass wrote
the same bytes as the first one.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count scenario runs.
The exit code is 0 when every check passed, 1 when one failed and 2 when the
package is not there to run.  ``--workload all`` runs every workload, traced
and untraced, each in a fresh process, and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS threads are fixed before numpy loads: threaded OpenBLAS would spread the
# gossip matrix products over both cores and the run would not be one client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tvconsensus"
WORK = ROOT / ".perfbench"

MIN_PASSES = 2
SETUP_REPEATS = 5


def package_present() -> bool:
    return (PACKAGE / "harness.py").is_file()


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.glob("*.py"))


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "commit": commit,
        "package.src_lines": src_lines(),
    }


def prepare(workload: str, seed: int, scale: str, root: str):
    """Generate the workload's inputs and write them under ``root``."""
    scenarios = workloads.build(workload, seed, scale)
    return scenarios, workloads.write_inputs(scenarios, root)


def measure_setup(workload: str, seed: int, scale: str) -> float:
    """Median wall time of fresh processes doing the set-up and nothing else."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms and
        # the measured time comes out in 50 ms steps.
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--scale", scale, "--setup-only"],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def artifact_hashes(out_root: str, names: list[str]) -> dict[str, dict[str, str]]:
    hashes = {}
    for name in names:
        folder = os.path.join(out_root, name)
        files = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
        hashes[name] = {
            f: hashlib.sha256(Path(folder, f).read_bytes()).hexdigest() for f in files
        }
    return hashes


def artifact_bytes(out_root: str, names: list[str], suffix: str) -> int:
    return sum(
        p.stat().st_size for name in names for p in Path(out_root, name).glob(f"*{suffix}")
    )


def run_pass(paths: list[str], load_config, run_experiment, log=None):
    """Run every scenario once; returns (wall seconds, error per scenario)."""
    errors: list[str | None] = []
    start = time.perf_counter()
    for path in paths:
        if log is not None:
            log.results.append([])
        try:
            run_experiment(load_config(path))
            errors.append(None)
        except Exception as exc:  # a failing scenario is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, errors


class DualNormLog:
    """Keeps the dual-norm results the harness obtains, one list per scenario."""

    def __init__(self) -> None:
        self.results: list[list] = []

    def make_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results[-1].append(result)
            return result

        return wrapper


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    from tvconsensus import harness
    from tvconsensus.config import load_config
    from tvconsensus.harness import run_experiment

    import oracles
    from tracer import Patcher, Tracer, layer_metrics

    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        scenarios, paths = prepare(workload, seed, scale, tmp)
        names = [sc.name for sc in scenarios]
        out_root = os.path.join(tmp, "out")
        setup_s = None if trace else measure_setup(workload, seed, scale)

        failures: list[str] = []
        failed: set[tuple[int, str]] = set()

        def fail(pass_no: int, name: str, message: str) -> None:
            failed.add((pass_no, name))
            failures.append(f"pass {pass_no} {name}: {message}")

        # First pass: keep the dual-norm results for the oracles.
        log = DualNormLog()
        patcher = Patcher()
        patcher.patch(harness, "dual_norm_algorithm0", log.make_wrapper)
        try:
            wall, errors = run_pass(paths, load_config, run_experiment, log)
        finally:
            patcher.restore()
        walls = [wall]
        reference = artifact_hashes(out_root, names)
        for sc, error, norms in zip(scenarios, errors, log.results):
            if error:
                fail(1, sc.name, error)
                continue
            summary = json.loads(
                Path(out_root, sc.name, f"{sc.name}_summary.json").read_text(encoding="utf-8"))
            for message in oracles.check(sc.expect, summary, norms):
                fail(1, sc.name, message)

        def compare(pass_no: int, errors) -> None:
            hashes = artifact_hashes(out_root, names)
            for sc, error in zip(scenarios, errors):
                if error:
                    fail(pass_no, sc.name, error)
                elif hashes[sc.name] != reference[sc.name]:
                    fail(pass_no, sc.name, "artifacts differ from the first pass")

        untraced = 1 if trace else MIN_PASSES
        while len(walls) < untraced or (not trace and sum(walls) < seconds):
            wall, errors = run_pass(paths, load_config, run_experiment)
            walls.append(wall)
            compare(len(walls), errors)
        attempted = len(walls) * len(scenarios)

        metrics: dict[str, tuple[float, str]] = {}
        if not trace:
            metrics["wall_s"] = (statistics.median(walls), "s")
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        else:
            tracer = Tracer()
            tracer.install()
            try:
                traced_wall, errors = run_pass(
                    paths,
                    tracer.wrap(load_config, "harness.load_config"),
                    tracer.wrap(run_experiment, "harness.run_experiment"),
                )
            finally:
                tracer.restore()
            attempted += len(scenarios)
            compare(len(walls) + 1, errors)
            metrics = layer_metrics(tracer.spans)
            metrics["engines.record_share"] = (record_share(tracer, harness.run), "ratio")
            metrics["metrics.csv_bytes"] = (artifact_bytes(out_root, names, ".csv"), "B")
            metrics["harness.summary_bytes"] = (
                artifact_bytes(out_root, names, "_summary.json"), "B")
            metrics["package.src_lines"] = (src_lines(), "count")
            metrics["trace.wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(str(spans_dir / f"{workload}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": walls,
        "failures": failures,
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_share(tracer, run) -> float:
    """Share of engines.run time spent recording metrics.

    After the traced pass, each engines.run call is repeated twice back to
    back, as called and with recording off (only the first and last rows are
    kept); the share is 1 - (time off) / (time on).
    """
    on = off = 0.0
    for args, kwargs in tracer.run_calls:
        start = time.perf_counter()
        run(*args, **kwargs)
        middle = time.perf_counter()
        run(*args, **dict(kwargs, record_every=10**12))
        on += middle - start
        off += time.perf_counter() - middle
    return 1.0 - off / on if on else 0.0


def setup_only(workload: str, seed: int, scale: str) -> int:
    from tvconsensus.config import load_config  # noqa: F401
    from tvconsensus.harness import run_experiment  # noqa: F401

    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="setup-", dir=WORK)
    try:
        prepare(workload, seed, scale, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    print(json.dumps(environment(), sort_keys=True))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--scale", scale],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            frac = result["failed"] / result["attempted"]
            print(f"[{workload} trace={trace}] correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if not trace:
                print(f"  {'failed_frac':32s} {frac:14.6g} ratio")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
            if proc.returncode or not result["correct"]:
                status = 1
                for line in lines[:-1]:
                    print(f"  {line}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="smoke: tiny inputs for the benchmark's self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not package_present():
        print(f"error: {PACKAGE} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        return setup_only(args.workload, args.seed, args.scale)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.scale)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    env = environment()
    WORK.mkdir(exist_ok=True)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(
        json.dumps({"environment": env, **result}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    for message in result["failures"]:
        print(f"FAILED {message}")
    print(json.dumps({"environment": env, "passes": result["passes"]}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
