"""The benchmark's hooks find every name they wrap, and the tracer puts each one back.

``perfbench/tracer.py`` replaces module attributes by name, and
``perfbench/run.py`` wraps ``harness.dual_norm_algorithm0`` to hand each
average-consensus scenario's dual norm to its oracle.  A refactor that
renames, removes or bypasses one of them breaks the benchmark; these tests
catch that in tier-1 rather than only in ``perfbench/selftest.py``.
"""

import importlib.util
from pathlib import Path

from tvconsensus import analysis, config, graph, harness, maxflow
from tvconsensus.config import parse_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_restore():
    owners = (analysis, config, graph.Graph, harness, maxflow)
    before = [dict(vars(owner)) for owner in owners]
    tracer = load_tracer().Tracer()
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
