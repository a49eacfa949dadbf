"""Total variation of node fields, level-set decomposition, dual certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualnorm import dual_norm_algorithm0
from .errors import UnsupportedGraphError
from .graph import Graph, check_node_field, perimeter
from .maxflow import center_field


def tv_norm(g: Graph, x) -> float:
    """Total variation: sum of |x(v) - x(w)| over edges.

    Zero exactly on fields that are constant on each connected component, and
    invariant under adding a constant.
    """
    return float(_total_variation(g, check_node_field(g, x)))


def _total_variation(g: Graph, x: np.ndarray) -> np.float64:
    """``tv_norm`` of a node field the caller has already checked."""
    return np.add.reduce(np.abs(x[g.edge_dst] - x[g.edge_src]))


@dataclass(frozen=True)
class LevelSetDecomposition:
    """Perimeter profile of the upper level sets of a node field.

    ``perimeters[k]`` is the (constant) perimeter of {x >= t} for thresholds t
    in the interval (thresholds[k], thresholds[k + 1]].  Integrating the
    profile recovers the total variation of the field.
    """

    thresholds: tuple[float, ...]
    perimeters: tuple[int, ...]

    def integral(self) -> float:
        total = 0.0
        for k, per in enumerate(self.perimeters):
            total += (self.thresholds[k + 1] - self.thresholds[k]) * per
        return total


def coarea_decompose(g: Graph, x) -> LevelSetDecomposition:
    """Exact level-set decomposition of x using its sorted distinct values."""
    x = check_node_field(g, x)
    levels = np.unique(x)
    if levels.size <= 1:
        return LevelSetDecomposition(
            thresholds=tuple(float(t) for t in levels), perimeters=()
        )
    perims = []
    for upper in levels[1:]:
        perims.append(perimeter(g, np.nonzero(x >= upper)[0]))
    return LevelSetDecomposition(
        thresholds=tuple(float(t) for t in levels),
        perimeters=tuple(perims),
    )


def is_dual_certificate(g: Graph, u, x, tol: float = 1e-9) -> bool:
    """Check that u is a subgradient of the TV norm at x.

    Requires mean(u) close to zero, dual norm at most 1 + tol, and the pairing
    <u, x - min(x)> (equal to <u, x> for mean-zero u, without the offset of x)
    to match tv_norm(x) within tol * tv_norm(x).  Raises ``IterationAnomalyError``
    if the dual norm's ratio iteration hit its bound.
    """
    if not g.is_connected:
        raise UnsupportedGraphError("dual certificates need a connected graph")
    u = check_node_field(g, u)
    x = check_node_field(g, x)
    if abs(float(u.mean())) > tol:
        return False
    if dual_norm_algorithm0(g, center_field(u)).checked_value() > 1.0 + tol:
        return False
    tv = tv_norm(g, x)
    return abs(float(u @ (x - x.min())) - tv) <= tol * tv
