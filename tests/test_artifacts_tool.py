"""``tools/artifacts.py`` writes the same bytes twice, one folder per workload and seed,
and finds no difference against the committed tree."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifacts.py"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_runs_write_identical_trees(tmp_path):
    trees = []
    for name in ("a", "b"):
        subprocess.run([sys.executable, str(TOOL),
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


def test_differing_paths_names_changed_and_unpaired_files(tmp_path):
    spec = importlib.util.spec_from_file_location("artifacts_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    a, b = tmp_path / "a", tmp_path / "b"
    for root, changed in ((a, b"1"), (b, b"2")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_bytes(b"x")
        (root / "run" / "changed.csv").write_bytes(changed)
    (a / "run" / "only_a.json").write_bytes(b"{}")
    assert tool.differing_paths(a, a) == []
    assert tool.differing_paths(a, b) == ["run/changed.csv", "run/only_a.json"]


@pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                    reason="needs a git checkout")
def test_against_head_finds_no_difference(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "out"),
                           "--scale", "smoke", "--against", "HEAD"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=600)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
