"""``tools/artifacts.py`` writes the same bytes twice, one folder per workload and seed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_runs_write_identical_trees(tmp_path):
    trees = []
    for name in ("a", "b"):
        subprocess.run([sys.executable, str(ROOT / "tools" / "artifacts.py"),
                        str(tmp_path / name), "--scale", "smoke"],
                       check=True, cwd=tmp_path, timeout=300)
        trees.append(tree(tmp_path / name))
    assert trees[0] == trees[1]
    summaries = sorted(path for path in trees[0] if path.endswith("_summary.json"))
    assert summaries == sorted(
        f"{workload}_{seed}/{sc.name}/{sc.name}_summary.json"
        for workload in workloads.WORKLOADS
        for seed in (1, 9001)
        for sc in workloads.build(workload, seed, "smoke")
    )
