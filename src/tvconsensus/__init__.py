"""Total-variation-regularized consensus on graphs.

Public API: graph construction and discrete calculus, TV and its dual norm,
per-agent objectives, synchronous consensus engines, optimality and
robustness analysis, and the experiment harness.
"""

from .analysis import (
    OptimalityCertificate,
    StubbornPrediction,
    ac_critical_lambda,
    certify_consensus_minimizer,
    mc_lambda0_exact,
    mc_lambda0_upper,
    stubborn_limit,
)
from .config import ExperimentConfig, load_config
from .dualnorm import (
    DualNormResult,
    dual_feasibility_gap,
    dual_norm_algorithm0,
    dual_norm_bruteforce,
)
from .engines import (
    AdmmEngine,
    AgentRoles,
    GossipEngine,
    StopRule,
    SubgradientEngine,
    Trajectory,
    disagreement,
    gossip_limit,
    harmonic_schedule,
    run,
    uniform_gossip_matrix,
)
from .errors import (
    AssumptionError,
    ConfigError,
    DomainError,
    InvalidFieldError,
    InvalidSubsetError,
    IterationAnomalyError,
    SizeCapError,
    TvConsensusError,
    UnsupportedGraphError,
)
from .graph import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    div,
    erdos_renyi,
    grad,
    laplacian_apply,
    load_edge_list,
    path_graph,
    perimeter,
    read_node_field,
    save_edge_list,
)
from .harness import ExperimentResult, run_experiment
from .maxflow import CutResult, FlowNetwork, build_network, maximize_cut_functional, min_cut
from .metrics import MetricsRow, emit_csv, metrics_from_trajectory, parse_csv
from .objectives import Absolute, Quadratic
from .tv import LevelSetDecomposition, coarea_decompose, is_dual_certificate, tv_norm

__version__ = "0.1.0"

__all__ = [
    "Absolute",
    "AdmmEngine",
    "AgentRoles",
    "AssumptionError",
    "ConfigError",
    "CutResult",
    "DomainError",
    "DualNormResult",
    "ExperimentConfig",
    "ExperimentResult",
    "FlowNetwork",
    "GossipEngine",
    "Graph",
    "InvalidFieldError",
    "InvalidSubsetError",
    "IterationAnomalyError",
    "LevelSetDecomposition",
    "MetricsRow",
    "OptimalityCertificate",
    "Quadratic",
    "SizeCapError",
    "StopRule",
    "StubbornPrediction",
    "SubgradientEngine",
    "Trajectory",
    "TvConsensusError",
    "UnsupportedGraphError",
    "ac_critical_lambda",
    "build_network",
    "certify_consensus_minimizer",
    "coarea_decompose",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "disagreement",
    "div",
    "dual_feasibility_gap",
    "dual_norm_algorithm0",
    "dual_norm_bruteforce",
    "emit_csv",
    "erdos_renyi",
    "gossip_limit",
    "grad",
    "harmonic_schedule",
    "is_dual_certificate",
    "laplacian_apply",
    "load_config",
    "load_edge_list",
    "maximize_cut_functional",
    "mc_lambda0_exact",
    "mc_lambda0_upper",
    "metrics_from_trajectory",
    "min_cut",
    "parse_csv",
    "path_graph",
    "perimeter",
    "read_node_field",
    "run",
    "run_experiment",
    "save_edge_list",
    "stubborn_limit",
    "tv_norm",
    "uniform_gossip_matrix",
]
