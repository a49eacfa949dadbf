"""Spans recorded around calls into tvconsensus, from outside the package.

A ``Tracer`` replaces module attributes (the names callers look up at call
time) with wrappers that record one span per call: name, start, end, parent
span and a few attributes taken from the arguments or the result.  Nothing
under ``src/`` changes; ``restore`` puts every original back.  Spans stay in
memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import defaultdict

import numpy as np


class Patcher:
    """Replace attributes and put the originals back on ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    def __init__(self) -> None:
        super().__init__()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # Arguments of every engines.run call, for the paired record-off call.
        self.run_calls: list[tuple[tuple, dict]] = []

    def wrap(self, fn, name: str, after=None):
        """Return fn wrapped in a span; ``after(span, args, kwargs, result)``
        runs once the span has ended."""

        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def trace(self, owner, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, lambda fn: self.wrap(fn, name, after))

    def install(self) -> None:
        """Trace the public entry points of every layer the harness reaches."""
        from tvconsensus import analysis, config, graph, harness, maxflow

        self.trace(harness, "build_graph", "graph.build_graph", _graph_attrs)
        self.trace(config, "load_edge_list", "graph.load_edge_list")
        self.trace(graph.Graph, "induced_subgraph", "graph.induced_subgraph")
        self.trace(maxflow, "build_network", "maxflow.build_network", _network_attrs)
        self.trace(maxflow, "min_cut", "maxflow.min_cut")
        for owner in (harness, analysis):
            self.trace(owner, "dual_norm_algorithm0", "dualnorm.dual_norm_algorithm0",
                       _dual_norm_attrs)
        self.trace(analysis, "certify_consensus_minimizer", "analysis.certify")
        self.trace(analysis, "mc_lambda0_exact", "analysis.reference")
        self.trace(analysis, "stubborn_limit", "analysis.reference")
        self.trace(harness, "run", "engines.run", self._run_attrs)
        self.trace(harness, "metrics_from_trajectory", "metrics.rows")
        self.trace(harness, "emit_csv", "metrics.emit_csv")

    def _run_attrs(self, span, args, kwargs, traj) -> None:
        engine = args[0] if args else kwargs["engine"]
        span["attrs"].update(
            engine=getattr(engine, "name", type(engine).__name__),
            steps=int(traj.n_steps),
            rows=int(len(traj.iterations)),
            converged=bool(traj.converged),
        )
        self.run_calls.append((args, kwargs))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _graph_attrs(span, args, kwargs, g) -> None:
    span["attrs"].update(vertices=int(g.n_vertices), edges=int(g.n_edges))


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    return int(sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)))


def _network_attrs(span, args, kwargs, net) -> None:
    span["attrs"]["bytes"] = array_bytes(net)


def _dual_norm_attrs(span, args, kwargs, result) -> None:
    g, u = args[0], np.asarray(args[1], dtype=float)
    key = hashlib.sha1()
    for array in (np.asarray(g.edge_src), np.asarray(g.edge_dst), u):
        key.update(np.ascontiguousarray(array).tobytes())
    span["attrs"].update(
        key=key.hexdigest(),
        iterations=int(result.iterations),
        improvements=max(len(result.lambda_sequence) - 1, 0),
        anomaly=bool(result.anomaly),
    )


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times from the spans of one traced pass."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)

    def self_time(s: dict) -> float:
        return duration(s) - child_time[s["id"]]

    def ancestors(s: dict):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def named(prefix: str) -> list[dict]:
        return [s for s in spans if s["name"].startswith(prefix)]

    def total(prefix: str) -> float:
        return sum(duration(s) for s in named(prefix))

    def under(s: dict, prefix: str) -> bool:
        return any(a["name"].startswith(prefix) for a in ancestors(s))

    m: dict[str, tuple[float, str]] = {}

    graph_spans = named("graph.")
    m["graph.build_s"] = (
        sum(duration(s) for s in graph_spans if not under(s, "graph.")), "s")
    builds = named("graph.build_graph")
    m["graph.vertices"] = (sum(s["attrs"]["vertices"] for s in builds), "count")
    m["graph.edges"] = (sum(s["attrs"]["edges"] for s in builds), "count")

    cuts = named("maxflow.min_cut")
    cut_s = total("maxflow.min_cut")
    m["maxflow.min_cut_calls"] = (len(cuts), "count")
    m["maxflow.min_cut_s"] = (cut_s, "s")
    m["maxflow.ms_per_cut"] = (1e3 * cut_s / len(cuts) if cuts else 0.0, "ms")
    m["maxflow.build_network_s"] = (total("maxflow.build_network"), "s")
    m["maxflow.network_bytes"] = (
        max((s["attrs"]["bytes"] for s in named("maxflow.build_network")), default=0), "B")

    norms = named("dualnorm.")
    iterations = sum(s["attrs"]["iterations"] for s in norms)
    improvements = sum(s["attrs"]["improvements"] for s in norms)
    seen: set[tuple] = set()
    repeats = 0
    for s in norms:
        scenario = next((a["id"] for a in ancestors(s) if a["name"] == "harness.run_experiment"),
                        None)
        key = (scenario, s["attrs"]["key"])
        repeats += key in seen
        seen.add(key)
    m["dualnorm.calls"] = (len(norms), "count")
    m["dualnorm.s"] = (sum(duration(s) for s in norms), "s")
    m["dualnorm.self_s"] = (sum(self_time(s) for s in norms), "s")
    m["dualnorm.cut_calls"] = (sum(under(s, "dualnorm.") for s in cuts), "count")
    m["dualnorm.useful_cut_ratio"] = (improvements / iterations if iterations else 0.0, "ratio")
    m["dualnorm.repeat_calls"] = (repeats, "count")
    m["dualnorm.anomalies"] = (sum(s["attrs"]["anomaly"] for s in norms), "count")

    m["analysis.certify_s"] = (total("analysis.certify"), "s")
    m["analysis.certify_cut_calls"] = (sum(under(s, "analysis.certify") for s in cuts), "count")
    m["analysis.s"] = (total("analysis."), "s")

    runs = named("engines.run")
    m["engines.s"] = (sum(duration(s) for s in runs), "s")
    for engine in ("admm", "subgradient", "gossip"):
        mine = [s for s in runs if s["attrs"]["engine"] == engine]
        steps = sum(s["attrs"]["steps"] for s in mine)
        busy = sum(duration(s) for s in mine)
        m[f"engines.{engine}.steps"] = (steps, "count")
        m[f"engines.{engine}.us_per_step"] = (1e6 * busy / steps if steps else 0.0, "us")
    m["engines.record_rows"] = (sum(s["attrs"]["rows"] for s in runs), "count")
    m["engines.unconverged"] = (sum(not s["attrs"]["converged"] for s in runs), "count")

    m["metrics.csv_s"] = (total("metrics."), "s")
    m["harness.config_s"] = (total("harness.load_config"), "s")
    m["harness.self_s"] = (sum(self_time(s) for s in named("harness.run_experiment")), "s")
    return m
