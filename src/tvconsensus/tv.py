"""Total variation of node fields, level-set decomposition, dual certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualnorm import center_field
from .graph import Graph, check_node_field, perimeter, require_connected
from .maxflow import maximize_cut_functional

CERTIFICATE_RTOL = 1e-9  # relative tolerance of every certificate verdict


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
    perims = tuple(perimeter(g, np.flatnonzero(x >= upper)) for upper in levels[1:])
    return LevelSetDecomposition(thresholds=tuple(levels.tolist()), perimeters=perims)


def is_dual_certificate(g: Graph, u, x) -> bool:
    """Check that u is a subgradient of the TV norm at x.

    With tol = ``CERTIFICATE_RTOL`` * ||u||_1, requires |sum(u)| <= tol, the
    cut gain max_A <u, 1_A> - perimeter(A) of the centered u at most tol (one
    cut: u then lies in the unit dual-norm ball), and the pairing
    <u, x - min(x)> (equal to <u, x> for mean-zero u, without the offset of x)
    to match tv_norm(x) within ``CERTIFICATE_RTOL`` * tv_norm(x).
    """
    require_connected(g, "dual certificates")
    u = check_node_field(g, u)
    x = check_node_field(g, x)
    tol = CERTIFICATE_RTOL * float(np.abs(u).sum())
    if abs(float(u.sum())) > tol:
        return False
    if maximize_cut_functional(g, center_field(u), 1.0)[1] > tol:
        return False
    tv = tv_norm(g, x)
    return abs(float(u @ (x - x.min())) - tv) <= CERTIFICATE_RTOL * tv
