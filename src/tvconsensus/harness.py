"""Experiment runner: build a scenario from a config, run engines, emit artifacts.

Outputs one metrics CSV per engine plus a JSON summary embedding the fully
resolved configuration, so every run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import analysis
from .config import ENGINES, OBJECTIVES, ExperimentConfig, build_graph, build_initial_data
from .dualnorm import dual_norm_algorithm0
from .engines import AgentRoles, GossipEngine, Trajectory, run
from .errors import ConfigError, TvConsensusError, UnsupportedGraphError
from .graph import Graph
from .maxflow import center_field
# perfbench/tracer.py wraps harness.metrics_from_trajectory by name, so the import stays.
from .metrics import emit_csv, metrics_from_trajectory  # noqa: F401
from .objectives import Quadratic


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    lam: float
    summary: dict
    csv_paths: dict[str, str]
    summary_path: str
    trajectories: dict[str, Trajectory]


def _critical_dual_norm(g: Graph, x0: np.ndarray) -> float:
    """Dual norm of the centered data; anomalies abort the run."""
    return dual_norm_algorithm0(g, center_field(x0)).checked_value()


def _regular_critical_level(g: Graph, x0: np.ndarray, roles: AgentRoles) -> float | None:
    """Critical level of the regular agents' data on their subgraph; None if it is disconnected."""
    regular = list(roles.regular_ids)
    sub, _ = g.induced_subgraph(regular)
    return _critical_dual_norm(sub, x0[regular]) if sub.is_connected else None


def _resolve_lambda(
    cfg: ExperimentConfig,
    average: bool,
    g: Graph,
    x0: np.ndarray,
    roles: AgentRoles,
    regular_level: float | None,
) -> tuple[float, dict]:
    """Resolve lambda and report the reference levels used for classification."""
    info: dict = {"source": "value" if cfg.lam.value is not None else "multiplier"}
    if average:
        reference = regular_level if roles.stubborn_ids else _critical_dual_norm(g, x0)
        info["critical_lambda"] = reference
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


def _is_scenario1(g: Graph, roles: AgentRoles) -> bool:
    """Every stubborn agent adjacent to all regular agents, one common value."""
    if not roles.stubborn_ids:
        return False
    if len(set(roles.pinned_values)) != 1:
        return False
    regular = set(roles.regular_ids)
    return all(regular <= set(g.neighbors(s)) for s in roles.stubborn_ids)


def _certificate_block(g, objs, average: bool, x0, lam) -> dict:
    candidate = float(np.mean(x0)) if average else float(np.median(x0))
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

    x0 = build_initial_data(cfg.data, g.n_vertices)
    for v, value in zip(cfg.stubborn.vertices, cfg.stubborn.values):
        x0[v] = value
    roles = AgentRoles(
        n_vertices=g.n_vertices,
        stubborn_ids=cfg.stubborn.vertices,
        pinned_values=cfg.stubborn.values,
    )

    kind = OBJECTIVES[cfg.objective_kind]
    average = kind is Quadratic  # average consensus; median otherwise
    scenario1 = _is_scenario1(g, roles)
    # One dual norm of the regular data serves both lambda and the stubborn prediction.
    regular_level = (
        _regular_critical_level(g, x0, roles)
        if roles.stubborn_ids and (average or scenario1) else None
    )
    lam, lam_info = _resolve_lambda(cfg, average, g, x0, roles, regular_level)
    objs = kind(g, x0)
    # The certificate needs no trajectory: a graph it rejects fails before any engine runs.
    certificate = None if roles.stubborn_ids else _certificate_block(g, objs, average, x0, lam)

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
            roles,
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

    regular = list(roles.regular_ids)
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
            "median": float(np.median(x0)),
            "regular_mean": float(x0[regular].mean()) if regular else None,
        },
        "engines": engine_summaries,
        "certificate": certificate,
    }

    if not roles.stubborn_ids:
        summary["stubborn_analysis"] = None
    else:
        block: dict = {"scenario1": scenario1}
        if scenario1:
            prediction = analysis.stubborn_limit(
                x0[regular],
                a=roles.pinned_values[0],
                lam=lam,
                s_count=len(roles.stubborn_ids),
            )
            achieved = {
                key: float(trajectories[key].final_x[regular].mean()) for key in minimizers
            }
            block["prediction"] = {
                "x_star": prediction.x_star,
                "case": prediction.case,
                "margin": prediction.margin,
                "regular_mean": prediction.regular_mean,
                "lambda_ok": None if regular_level is None else lam >= regular_level,
            }
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
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return ExperimentResult(
        config=cfg,
        lam=lam,
        summary=summary,
        csv_paths=csv_paths,
        summary_path=summary_path,
        trajectories=trajectories,
    )
