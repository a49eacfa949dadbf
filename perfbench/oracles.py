"""Correctness checks on each scenario's artifacts, run outside the timed passes.

Every check compares with a relative tolerance: critical levels to RTOL of
their size, engine states to a share of the data's range.  ``check``
returns a list of failure messages; an empty list means the scenario passed.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
# Engine limits are iterative: consensus and predicted values are checked to
# this share of the data's range, as in the acceptance criteria.
ENGINE_RTOL = 1e-4


def close(a: float | None, b: float, rtol: float = RTOL) -> bool:
    return a is not None and abs(a - b) <= rtol * max(abs(a), abs(b))


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def level(self, name: str, got, want: float) -> None:
        self.require(close(got, want), f"{name} = {got!r}, expected {want!r}")

    def consensus(self, engine: str, block: dict, target: float, scale: float) -> None:
        self.require(abs(block["final_mean"] - target) <= ENGINE_RTOL * scale,
                     f"{engine} final mean {block['final_mean']!r} is not {target!r}")
        self.require(block["final_disagreement"] <= ENGINE_RTOL * scale,
                     f"{engine} final disagreement {block['final_disagreement']!r} "
                     "is not consensus")

    def mean_kept(self, engine: str, block: dict, mean: float, scale: float) -> None:
        self.require(abs(block["final_mean"] - mean) <= RTOL * scale,
                     f"{engine} moved the mean to {block['final_mean']!r} from {mean!r}")

    def gossip_consensus(self, block: dict, scale: float) -> None:
        self.require(block["converged"] and block["final_disagreement"] <= ENGINE_RTOL * scale,
                     "gossip did not reach consensus")

    def verdict(self, summary: dict, want: str) -> None:
        got = summary["certificate"]["verdict"]
        self.require(got == want, f"certificate verdict {got!r}, expected {want!r}")

    def classification(self, summary: dict, supercritical: bool) -> None:
        want = "supercritical" if supercritical else "subcritical"
        got = summary["lambda"]["classification"]
        self.require(got == want, f"classification {got!r}, expected {want!r}")


def _data(summary: dict) -> tuple[np.ndarray, float, float]:
    data = summary["config"]["data"]
    x0 = np.array(data["values"], dtype=float)
    for vertex, value in data["outliers"]:
        x0[vertex] = value
    return x0, float(x0.mean()), float(x0.max() - x0.min())


def _perimeter(edges: np.ndarray, subset) -> int:
    inside = np.zeros(int(edges.max()) + 1, dtype=bool)
    inside[list(subset)] = True
    return int(np.count_nonzero(inside[edges[:, 0]] != inside[edges[:, 1]]))


def check(expect: dict, summary: dict, dual_norms: list) -> list[str]:
    """Failures of one scenario, given its summary JSON and the dual-norm
    results the harness obtained while running it."""
    c = Checks()
    kind = expect["kind"]
    engines = summary["engines"]
    x0, mean, scale = _data(summary)

    if kind == "kn_average":
        sup = expect["supercritical"]
        c.level("critical_lambda", summary["lambda"]["critical_lambda"], expect["critical"])
        c.classification(summary, sup)
        c.verdict(summary, "certified" if sup else "violated")
        if sup:
            c.consensus("admm", engines["admm"], mean, scale)
            c.mean_kept("subgradient", engines["subgradient"], mean, scale)
        else:
            c.require(engines["admm"]["final_disagreement"] > 1e-3 * scale,
                      "admm reached consensus below the critical level")

    elif kind == "kn_median":
        c.level("lambda0_exact", summary["lambda"]["lambda0_exact"], expect["lambda0"])
        c.classification(summary, True)
        c.verdict(summary, "certified")
        c.consensus("admm", engines["admm"], expect["median"], scale)

    elif kind == "kn_stubborn":
        c.level("critical_lambda", summary["lambda"]["critical_lambda"], expect["critical"])
        c.classification(summary, True)
        block = summary["stubborn_analysis"]
        c.require(block["scenario1"], "the pinned agent is not wired to every regular agent")
        c.require(block["prediction"]["lambda_ok"], "prediction precondition not met")
        error = block["prediction_error"]["admm"]
        c.require(error <= ENGINE_RTOL * expect["scale"],
                  f"admm misses the closed-form limit by {error!r}")

    elif kind == "sparse":
        from tvconsensus import Graph, dual_feasibility_gap

        crit = summary["lambda"]["critical_lambda"]
        edges = np.array(expect["edges"])
        u = x0 - mean
        c.require(len(dual_norms) == 1, f"expected one dual norm, got {len(dual_norms)}")
        if dual_norms and crit:
            witness = dual_norms[0].witness_subset
            ratio = abs(float(u[list(witness)].sum())) / _perimeter(edges, witness)
            c.level("witness ratio", ratio, crit)
            g = Graph(x0.size, edges.tolist())
            slack = RTOL * float(np.abs(u).sum())
            gap = dual_feasibility_gap(g, u, crit)
            c.require(abs(gap) <= slack, f"feasibility gap at lambda_c is {gap!r}")
            gap = dual_feasibility_gap(g, u, 0.99 * crit)
            c.require(gap > slack, f"feasibility gap at 0.99 lambda_c is {gap!r}")
        c.classification(summary, True)
        c.verdict(summary, "certified")
        c.consensus("admm", engines["admm"], mean, scale)
        c.mean_kept("subgradient", engines["subgradient"], mean, scale)
        c.gossip_consensus(engines["gossip"], scale)

    elif kind == "sweep":
        from tvconsensus import Graph, dual_norm_bruteforce

        g = Graph(x0.size, expect["edges"])
        want = dual_norm_bruteforce(g, x0 - mean).value
        c.level("critical_lambda", summary["lambda"]["critical_lambda"], want)
        sup = expect["multiplier"] >= 1.0
        c.classification(summary, sup)
        c.verdict(summary, "certified" if sup else "violated")
        if sup:
            c.consensus("admm", engines["admm"], mean, scale)
        else:
            c.require(engines["admm"]["final_disagreement"] > ENGINE_RTOL * scale,
                      "admm reached consensus below the critical level")
        c.mean_kept("subgradient", engines["subgradient"], mean, scale)
        c.gossip_consensus(engines["gossip"], scale)

    else:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return c.failures
