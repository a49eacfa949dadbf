"""The benchmark's hooks find every name they wrap, the tracer puts each one back,
and every smoke-sized workload passes the benchmark's oracles.

``perfbench/tracer.py`` replaces module attributes by name, and
``perfbench/run.py`` wraps ``harness.dual_norm_algorithm0`` to hand each
average-consensus scenario's dual norm to its oracle.  A refactor that
renames, removes or bypasses one of them, or changes a result or a signature
that ``perfbench/oracles.py`` reads, breaks the benchmark; these tests catch
that in tier-1 rather than only in ``perfbench/selftest.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tvconsensus import analysis, config, graph, harness, maxflow
from tvconsensus.config import load_config, parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


TRACER, WORKLOADS, ORACLES = (load(name) for name in ("tracer", "workloads", "oracles"))


def test_tracer_install_and_restore():
    owners = (analysis, config, graph.Graph, harness, maxflow)
    before = [dict(vars(owner)) for owner in owners]
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        for owner, old in zip(owners, before):
            assert any(value is not old[name] for name, value in vars(owner).items()), owner
    finally:
        tracer.restore()
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert now.keys() == old.keys()
        assert all(now[name] is value for name, value in old.items()), owner


def test_harness_dual_norm_hook_sees_one_call(tmp_path, monkeypatch):
    """A stubborn-free quadratic scenario computes its critical level through
    ``harness.dual_norm_algorithm0``, once: the benchmark's oracle expects one result."""
    original, results = harness.dual_norm_algorithm0, []

    def wrapper(*args, **kwargs):  # as perfbench's DualNormLog wraps the name
        result = original(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(harness, "dual_norm_algorithm0", wrapper)
    cfg = parse_config({
        "graph": {"generator": "erdos_renyi", "n": 12, "p": 0.4, "seed": 3},
        "objective": {"kind": "quadratic", "data": {"source": "uniform", "seed": 5}},
        "lambda": {"multiplier": 1.5},
        "engines": [{"name": "admm", "max_iterations": 20}],
        "output": {"directory": str(tmp_path), "prefix": "hook"},
    })
    harness.run_experiment(cfg)
    assert len(results) == 1


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_smoke_workload_passes_the_oracles(workload, tmp_path, monkeypatch):
    original, results = harness.dual_norm_algorithm0, []

    def wrapper(*args, **kwargs):  # as perfbench's DualNormLog wraps the name
        result = original(*args, **kwargs)
        results[-1].append(result)
        return result

    monkeypatch.setattr(harness, "dual_norm_algorithm0", wrapper)
    scenarios = WORKLOADS.build(workload, 1, "smoke")
    for sc, path in zip(scenarios, WORKLOADS.write_inputs(scenarios, str(tmp_path))):
        results.append([])
        harness.run_experiment(load_config(path))
        summary = json.loads((tmp_path / "out" / sc.name / f"{sc.name}_summary.json")
                             .read_text(encoding="utf-8"))
        assert ORACLES.check(sc.expect, summary, results[-1]) == [], sc.name


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_record_share_replay_keeps_the_final_state(workload, tmp_path):
    """The benchmark replays every traced ``engines.run`` call with recording off
    (``record_every=10**12``); each replay reaches the recorded run's final state."""
    scenarios = WORKLOADS.build(workload, 1, "smoke")
    tracer, trajectories = TRACER.Tracer(), []
    tracer.install()
    try:
        for path in WORKLOADS.write_inputs(scenarios, str(tmp_path)):
            trajectories += harness.run_experiment(load_config(path)).trajectories.values()
    finally:
        tracer.restore()
    assert len(tracer.run_calls) == len(trajectories) > 0
    for (args, kwargs), traj in zip(tracer.run_calls, trajectories):
        quiet = harness.run(*args, **dict(kwargs, record_every=10**12))
        assert quiet.final_x.tobytes() == traj.final_x.tobytes()
        assert quiet.n_steps == traj.n_steps
