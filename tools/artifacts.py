#!/usr/bin/env python3
"""Write the benchmark workloads' CSV/JSON artifacts, for a byte-identity check.

    python3 tools/artifacts.py DEST [--scale full|smoke]

For each workload of ``perfbench/workloads.py`` and each seed in {1, 9001},
this writes the inputs with root ``.`` in a fresh temporary working directory,
so the paths the summaries echo are relative; runs every config through this
checkout's ``load_config`` and ``run_experiment``; and copies ``out/`` to
``DEST/<workload>_<seed>/``.  Two checkouts write the same artifacts exactly
when ``diff -r`` finds no difference between their DEST trees.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as in the benchmark, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from tvconsensus.config import load_config  # noqa: E402
from tvconsensus.harness import run_experiment  # noqa: E402

SEEDS = (1, 9001)


def write_artifacts(dest: Path, scale: str) -> None:
    home = os.getcwd()
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="artifacts-") as work:
                os.chdir(work)
                try:
                    paths = workloads.write_inputs(workloads.build(workload, seed, scale), ".")
                    for path in paths:
                        run_experiment(load_config(path))
                    shutil.copytree("out", dest / f"{workload}_{seed}")
                finally:
                    os.chdir(home)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dest", type=Path, help="directory to write, one folder per run")
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    args = parser.parse_args(argv)
    write_artifacts(args.dest.resolve(), args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
