"""``tools/pairs.py`` runs alternating benchmark pairs against a revision and gives each
end-to-end metric a verdict."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pairs.py"
needs_git = pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                               reason="needs a git checkout")


def load_tool():
    spec = importlib.util.spec_from_file_location("pairs_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@needs_git
def test_one_smoke_pair_against_head_gives_every_metric_a_verdict(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "HEAD", "--workload", "sweep_small",
                           "--scale", "smoke", "--seconds", "0", "--pairs", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair 1/1: wall_s ")
    assert lines[1] == "sweep_small seed 1, 1 pairs, HEAD -> this checkout"
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split()[0] for line in lines[2:]] == names
    for line in lines[2:]:
        assert re.search(r", change won [01]/1: (better|worse|unresolved)$", line), line
    # --seconds 0 runs the two passes every run makes, on both sides.
    assert lines[0].endswith(", passes 2 -> 2")
    for line in lines[2:]:
        assert re.search(r"\) (\w+) at 2 passes -> \S+ \(\S+\) \1 at 2 passes, change won",
                         line), line


@needs_git
def test_an_unknown_revision_exits_1_before_any_run(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "no-such-rev", "--workload", "sweep_small"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 1
    assert "cannot archive revision no-such-rev" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("parent, change, better, expected", [
    # 9 of 10 lower and a median gap of 0.2 against a spread of about 0.05: better.
    ([1.0, 1.02, 1.04, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.0],
     [0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.8, 0.8, 1.1], "lower", (9, "better")),
    # 8 of 10 lower is not enough, whatever the gap.
    ([1.0] * 10, [0.5] * 8 + [1.5] * 2, "lower", (8, "unresolved")),
    # Ties count for neither side.
    ([1.0] * 10, [1.0] * 10, "lower", (0, "unresolved")),
    # A median 30% above the parent's, against a bound of 25%: worse.
    ([1.0] * 10, [1.3] * 10, "lower", (0, "worse")),
    # Where higher is better, the same readings read the other way round.
    ([1.0] * 10, [1.3] * 10, "higher", (10, "better")),
    ([1.3] * 10, [0.9] * 10, "higher", (0, "worse")),
])
def test_verdicts(parent, change, better, expected):
    assert load_tool().verdict(parent, change, better, 0.25) == expected


def test_a_win_needs_a_gap_wider_than_the_parents_spread():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0, 1.0, 1.5, 2.0, 2.5, 3.0]  # Q1-Q3 1.5-2.5
    assert load_tool().verdict(parent, [p - 0.5 for p in parent], "lower", 0.25) == (
        10, "unresolved")
    assert load_tool().verdict(parent, [p - 1.01 for p in parent], "lower", 0.25) == (
        10, "better")
