#!/usr/bin/env python3
"""Write the benchmark workloads' CSV/JSON artifacts, for a byte-identity check.

    python3 tools/artifacts.py DEST [--scale full|smoke] [--against REV]

For each workload of ``perfbench/workloads.py`` and each seed in {1, 9001},
this writes the inputs with root ``.`` in a fresh temporary working directory,
so the paths the summaries echo are relative; runs every config through this
checkout's ``load_config`` and ``run_experiment``; and copies ``out/`` to
``DEST/<workload>_<seed>/``.  Two checkouts write the same artifacts exactly
when ``diff -r`` finds no difference between their DEST trees.

With ``--against REV`` the script also extracts ``git archive REV src
perfbench tools`` into a temporary directory, runs that tree's own writer at
the same scale, prints each path whose bytes differ between the two trees (or
that only one of them has) and exits 1 if there is any.  A REV that git cannot
archive exits 1 before anything runs.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
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


def git_archive(rev: str) -> bytes:
    """``src``, ``perfbench`` and ``tools`` of git revision ``rev`` as a tar archive; an
    unknown revision exits 1 with git's message."""
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "perfbench", "tools"],
        capture_output=True,
    )
    if proc.returncode:
        sys.exit(f"cannot archive revision {rev}: {proc.stderr.decode().strip()}")
    return proc.stdout


def write_artifacts_from(archive: bytes, dest: Path, scale: str) -> None:
    """Run the writer of an archived tree into ``dest``."""
    with tempfile.TemporaryDirectory(prefix="artifacts-rev-") as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        subprocess.run(
            [sys.executable, str(Path(tree) / "tools" / "artifacts.py"), str(dest),
             "--scale", scale],
            check=True,
        )


def differing_paths(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that only one tree has or whose bytes differ."""
    files = [{str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(
        path for path in files[0] | files[1]
        if path not in files[0] or path not in files[1]
        or (a / path).read_bytes() != (b / path).read_bytes()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dest", type=Path, help="directory to write, one folder per run")
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--against", metavar="REV",
                        help="also run the writer of git revision REV and compare the trees")
    args = parser.parse_args(argv)
    dest = args.dest.resolve()
    archive = None if args.against is None else git_archive(args.against)
    write_artifacts(dest, args.scale)
    if archive is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="artifacts-against-") as other:
        write_artifacts_from(archive, Path(other) / "out", args.scale)
        differing = differing_paths(dest, Path(other) / "out")
    for path in differing:
        print(path)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
