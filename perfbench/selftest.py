"""Self-tests of the benchmark on smoke-sized inputs.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection; pass the
path explicitly to run it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _inputs(workload: str, seed: int) -> list:
    return [(sc.name, sc.config, sc.files, sc.expect)
            for sc in workloads.build(workload, seed, "smoke")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)
    written = []
    for attempt in ("first", "second"):
        root = tmp_path / "inputs"
        root.mkdir()
        workloads.write_inputs(workloads.build(workload, 7, "smoke"), str(root))
        written.append({p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()})
        shutil.rmtree(root)
    assert written[0] == written[1]


def test_seed_relabels_the_same_work():
    """Seeds move values between vertices; the multiset of values is fixed."""
    a, b = (workloads.build("sparse_er400", seed, "smoke")[0] for seed in (1, 2))
    va, vb = (np.array(sc.config["objective"]["data"]["values"]) for sc in (a, b))
    assert not np.array_equal(va, vb)
    assert np.array_equal(np.sort(va), np.sort(vb))
    assert len(a.expect["edges"]) == len(b.expect["edges"])


@pytest.mark.parametrize("n", [2, 5, 8, 9])
def test_complete_graph_closed_form_matches_enumeration(n):
    from tvconsensus import complete_graph, dual_norm_bruteforce

    u = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    u -= u.mean()
    want = dual_norm_bruteforce(complete_graph(n), u).value
    assert abs(workloads.kn_critical_lambda(u) - want) <= 1e-12 * want


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_wrong_expected_critical_lambda_is_a_failure(monkeypatch):
    true_value = workloads.kn_critical_lambda
    monkeypatch.setattr(workloads, "kn_critical_lambda", lambda u: 1.01 * true_value(u))
    result = bench.run_workload("paper_kn", 3, 0.0, trace=False, scale="smoke")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("critical_lambda" in message for message in result["failures"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper_kn", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
