"""Command-line interface.

Exit codes: 0 on success, 1 on validation/configuration errors, 2 on runtime
anomalies (an iterative solver exceeding its proven bound).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis
from .config import GENERATORS, OBJECTIVES, GraphConfig, build_graph, load_config, reads_file
from .dualnorm import dual_norm_algorithm0
from .errors import IterationAnomalyError, TvConsensusError
from .graph import load_edge_list, read_node_field, save_edge_list
from .harness import run_experiment
from .maxflow import center_field


def _cmd_run(args) -> int:
    result = run_experiment(load_config(args.config))
    print(f"lambda = {result.lam:.12g}")
    for key, block in sorted(result.summary["engines"].items()):
        print(
            f"{key}: iterations={block['iterations']} converged={block['converged']} "
            f"final_mean={block['final_mean']:.12g} "
            f"final_disagreement={block['final_disagreement']:.6g}"
        )
        print(f"  metrics: {block['csv']}")
    print(f"summary: {result.summary_path}")
    return 0


def _cmd_dualnorm(args) -> int:
    g = load_edge_list(args.graph)
    u = read_node_field(args.field, g.n_vertices)
    result = dual_norm_algorithm0(g, center_field(u) if args.center else u)
    print(f"dual_norm = {result.value:.12g}")
    print(f"witness = {sorted(result.witness_subset)}")
    print(f"iterations = {result.iterations}")
    if result.anomaly:
        print("anomaly: iteration bound exceeded", file=sys.stderr)
        return 2
    return 0


def _cmd_critical_lambda(args) -> int:
    g = load_edge_list(args.graph)
    x0 = read_node_field(args.field, g.n_vertices)
    result = dual_norm_algorithm0(g, center_field(x0))
    print(f"critical_lambda = {result.value:.12g}")
    if result.anomaly:
        print("anomaly: iteration bound exceeded", file=sys.stderr)
        return 2
    return 0


def _cmd_certify(args) -> int:
    g = load_edge_list(args.graph)
    x0 = read_node_field(args.x0, g.n_vertices)
    objs = OBJECTIVES[args.kind](g, x0)
    cert = analysis.certify_consensus_minimizer(g, objs, args.x_star, args.lam)
    print(f"verdict = {cert.verdict}")
    print(f"mean_u = {cert.mean_u:.12g}")
    gap = cert.dual_gap if np.isfinite(cert.dual_gap) else float("inf")
    print(f"dual_gap = {gap:.12g}")
    return 0


def _cmd_predict_stubborn(args) -> int:
    x0_regular = np.loadtxt(args.x0r, ndmin=1)
    graph_regular = load_edge_list(args.graph) if args.graph else None
    prediction = analysis.stubborn_limit(
        x0_regular, a=args.a, lam=args.lam, s_count=args.s_count,
        graph_regular=graph_regular,
    )
    print(f"x_star = {prediction.x_star:.12g}")
    print(f"case = {prediction.case}")
    print(f"margin = {prediction.margin:.12g}")
    print(f"regular_mean = {prediction.regular_mean:.12g}")
    if prediction.lambda_ok is not None:
        print(f"lambda_precondition_ok = {prediction.lambda_ok}")
        if not prediction.lambda_ok:
            print("warning: lambda is below the critical level of the regular data; "
                  "the prediction is inconclusive", file=sys.stderr)
    return 0


def _cmd_gen_graph(args) -> int:
    g = build_graph(GraphConfig(generator=args.generator, n=args.n, p=args.p, seed=args.seed))
    save_edge_list(g, args.output)
    print(f"wrote {g.n_vertices} vertices, {g.n_edges} edges to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvconsensus",
        description="Total-variation-regularized consensus: solvers and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment from a YAML config")
    p.add_argument("config", help="path to the experiment configuration")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("dualnorm", help="dual norm of a node field")
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--field", required=True, help="node field file, one value per line")
    p.add_argument("--center", action="store_true",
                   help="subtract the mean before computing the norm")
    p.set_defaults(func=_cmd_dualnorm)

    p = sub.add_parser("critical-lambda",
                       help="smallest lambda certifying exact average consensus")
    p.add_argument("--graph", required=True)
    p.add_argument("--field", required=True, help="initial data file")
    p.set_defaults(func=_cmd_critical_lambda)

    p = sub.add_parser("certify", help="check a consensus candidate for optimality")
    p.add_argument("--graph", required=True)
    p.add_argument("--x0", required=True, help="initial data file")
    p.add_argument("--kind", choices=tuple(OBJECTIVES), required=True)
    p.add_argument("--x-star", type=float, required=True, dest="x_star")
    p.add_argument("--lam", type=float, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("predict-stubborn",
                       help="closed-form consensus limit under a pinned coalition")
    p.add_argument("--x0r", required=True, help="regular agents' initial data file")
    p.add_argument("--a", type=float, required=True, help="pinned value")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--s-count", type=int, required=True, dest="s_count")
    p.add_argument("--graph", default=None,
                   help="regular subgraph edge list for the precondition check")
    p.set_defaults(func=_cmd_predict_stubborn)

    p = sub.add_parser("gen-graph", help="write a generated graph as an edge list")
    p.add_argument("generator", choices=[name for name in GENERATORS if not reads_file(name)])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IterationAnomalyError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 2
    except (TvConsensusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
