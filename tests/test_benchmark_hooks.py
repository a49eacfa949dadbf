"""The benchmark's tracer finds every name it wraps and puts each one back.

``perfbench/tracer.py`` replaces module attributes by name, so a refactor that
renames or removes one of them breaks the benchmark; this test catches that in
tier-1 rather than only in ``perfbench/selftest.py``.
"""

import importlib.util
from pathlib import Path

from tvconsensus import analysis, config, graph, harness, maxflow

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
