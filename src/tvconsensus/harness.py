"""Experiment runner: build a scenario from a config, run engines, emit artifacts.

Outputs one metrics CSV per engine plus a JSON summary embedding the fully
resolved configuration, so every run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import analysis
from .config import ENGINES, OBJECTIVES, ExperimentConfig, build_graph, build_initial_data
from .dualnorm import center_field, dual_norm_algorithm0
from .engines import GossipEngine, Trajectory, run
from .errors import ConfigError, TvConsensusError, UnsupportedGraphError
from .graph import Graph, perimeter, write_text
# perfbench/tracer.py wraps harness.metrics_from_trajectory by name, so the import stays.
from .metrics import emit_csv, metrics_from_trajectory  # noqa: F401
from .objectives import Quadratic


@dataclasses.dataclass
class ExperimentResult:
    config: ExperimentConfig
    lam: float
    summary: dict
    csv_paths: dict[str, str]
    summary_path: str
    trajectories: dict[str, Trajectory]


def _critical_level(g: Graph, x0: np.ndarray, pinned: dict[int, float]) -> float | None:
    """Dual norm of the regular agents' centered data on their subgraph (the whole graph
    when nothing is pinned); None if the pins disconnect it.  Anomalies abort the run."""
    if pinned:
        g, regular = g.induced_subgraph(v for v in range(g.n_vertices) if v not in pinned)
        if not g.is_connected:
            return None
        x0 = x0[list(regular)]
    return dual_norm_algorithm0(g, center_field(x0)).checked_value()


def _resolve_lambda(
    cfg: ExperimentConfig,
    average: bool,
    g: Graph,
    x0: np.ndarray,
    pinned: dict[int, float],
) -> tuple[float, dict]:
    """Resolve lambda and report the reference levels used for classification."""
    info: dict = {"source": "value" if cfg.lam.value is not None else "multiplier"}
    if average:
        reference = info["critical_lambda"] = _critical_level(g, x0, pinned)
    else:
        try:
            reference = analysis.mc_lambda0_exact(g)
        except TvConsensusError:
            reference = None
        info["lambda0_exact"] = reference
        try:
            info["lambda0_upper"] = analysis.mc_lambda0_upper(g)
        except UnsupportedGraphError:
            info["lambda0_upper"] = None

    if cfg.lam.value is not None:
        lam = cfg.lam.value
    else:
        if reference is None or reference <= 0.0:
            raise ConfigError(
                "lambda.multiplier: no positive reference level available for this scenario; "
                "give an explicit lambda value"
            )
        lam = cfg.lam.multiplier * reference
        if not np.isfinite(lam):
            raise ConfigError(f"lambda: {cfg.lam.multiplier:g} x reference {reference:g} overflows")

    if reference is not None:
        if average:
            info["classification"] = "supercritical" if lam >= reference else "subcritical"
        else:
            info["classification"] = "supercritical" if lam > reference else "subcritical"
    else:
        info["classification"] = None
    info["resolved"] = lam
    return lam, info


def _is_scenario1(g: Graph, pinned: dict[int, float]) -> bool:
    """One common value, every pin adjacent to every regular agent: the edges leaving the
    pins S all end at regular agents R, so they number |S| * |R| exactly then."""
    full = len(pinned) * (g.n_vertices - len(pinned))
    return len(set(pinned.values())) == 1 and perimeter(g, pinned) == full


def _median(x: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array: the same partition and mean, without the NaN
    check, whose ``np.ma`` lookup imports numpy.ma (about 1 MB resident) on first use."""
    n = x.size
    kth = [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1]
    return float(np.partition(x, kth)[(n - 1) // 2 : n // 2 + 1].mean(axis=0))


def _certificate_block(g, objs, average: bool, x0, lam) -> dict:
    candidate = float(np.mean(x0)) if average else _median(x0)
    cert = analysis.certify_consensus_minimizer(g, objs, candidate, lam)
    return {
        "candidate": candidate,
        "verdict": cert.verdict,
        "mean_u": cert.mean_u,
        "dual_gap": None if not np.isfinite(cert.dual_gap) else cert.dual_gap,
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    g = build_graph(cfg.graph)
    for v in cfg.stubborn.vertices:
        if not 0 <= v < g.n_vertices:
            raise ConfigError(f"stubborn.vertices: vertex {v} is not in the graph")
    if len(set(cfg.stubborn.vertices)) == g.n_vertices:
        raise ConfigError("stubborn.vertices: at least one vertex must stay regular")

    x0 = build_initial_data(cfg.data, g.n_vertices)
    pinned = dict(zip(cfg.stubborn.vertices, cfg.stubborn.values))
    for v, value in pinned.items():
        x0[v] = value
    regular = [v for v in range(g.n_vertices) if v not in pinned]

    kind = OBJECTIVES[cfg.objective_kind]
    average = kind is Quadratic  # average consensus; median otherwise
    lam, lam_info = _resolve_lambda(cfg, average, g, x0, pinned)
    objs = kind(g, x0)
    # The certificate needs no trajectory: a graph it rejects fails before any engine runs.
    certificate = None if pinned else _certificate_block(g, objs, average, x0, lam)

    names = [e.name for e in cfg.engines]
    keys = [
        name if names.count(name) == 1 else f"{name}_{k}"
        for k, name in enumerate(names)
    ]

    trajectories: dict[str, Trajectory] = {}
    csv_paths: dict[str, str] = {}
    engine_summaries: dict[str, dict] = {}
    minimizers: list[str] = []  # engines that minimize the regularized energy
    for key, engine_cfg in zip(keys, cfg.engines):
        engine = ENGINES[engine_cfg.name](engine_cfg, lam)
        if not isinstance(engine, GossipEngine):
            minimizers.append(key)
        traj = run(
            engine,
            g,
            x0,
            objs,
            pinned,
            stop=engine_cfg.stop,
            record_every=engine_cfg.record_every,
            metric_lambda=lam,
        )
        trajectories[key] = traj
        path = os.path.join(cfg.output_dir, f"{cfg.prefix}_{key}.csv")
        csv_paths[key] = path
        engine_summaries[key] = {
            "engine": engine_cfg.name,
            "iterations": int(traj.n_steps),
            "converged": bool(traj.converged),
            "final_mean": float(traj.final_x.mean()),
            "final_disagreement": float(traj.disagreement[-1]),
            "final_objective": float(traj.objective[-1]),
            "csv": path,
        }

    summary: dict = {
        "config": cfg.resolved_dict(),
        "graph": {
            "n_vertices": g.n_vertices,
            "n_edges": g.n_edges,
            "is_connected": g.is_connected,
            "degree_min": int(g.degrees.min()),
            "degree_max": int(g.degrees.max()),
            "is_regular": bool(g.degrees.min() == g.degrees.max()),
        },
        "lambda": lam_info,
        "initial": {
            "mean": float(x0.mean()),
            "median": _median(x0),
            "regular_mean": float(x0[regular].mean()),
        },
        "engines": engine_summaries,
        "certificate": certificate,
    }

    if not pinned:
        summary["stubborn_analysis"] = None
    else:
        scenario1 = _is_scenario1(g, pinned)
        block: dict = {"scenario1": scenario1}
        # The closed form minimizes the quadratic energy only; its lambda_ok reuses the
        # regular agents' critical level that resolved lambda.
        if scenario1 and average:
            prediction = analysis.stubborn_limit(
                x0[regular],
                a=cfg.stubborn.values[0],
                lam=lam,
                s_count=len(pinned),
                critical_level=lam_info["critical_lambda"],
            )
            achieved = {
                key: float(trajectories[key].final_x[regular].mean()) for key in minimizers
            }
            block["prediction"] = dataclasses.asdict(prediction)
            block["achieved_regular_mean"] = achieved
            block["prediction_error"] = {
                key: abs(value - prediction.x_star) for key, value in achieved.items()
            }
        summary["stubborn_analysis"] = block

    # Files are written only once every engine has run, so a failed run leaves none.
    os.makedirs(cfg.output_dir, exist_ok=True)
    for key, traj in trajectories.items():
        emit_csv(traj, csv_paths[key])
    summary_path = os.path.join(cfg.output_dir, f"{cfg.prefix}_summary.json")
    write_text(summary_path, (json.dumps(summary, indent=2, sort_keys=True), "\n"))

    return ExperimentResult(
        config=cfg,
        lam=lam,
        summary=summary,
        csv_paths=csv_paths,
        summary_path=summary_path,
        trajectories=trajectories,
    )
