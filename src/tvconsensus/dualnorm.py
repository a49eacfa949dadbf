"""Dual norm of mean-zero node fields with respect to the graph TV norm.

The dual norm equals the best subset ratio |<u, 1_S>| / perimeter(S).  The
production path is a ratio iteration: given a current ratio lam, a min-cut
call (a closed form on complete graphs) maximizes <u, 1_A> - lam * perimeter(A);
a strictly positive maximum yields a strictly better ratio, and the perimeter
of the maximizer drops by at least one edge per improvement, so the number of
min-cut calls never exceeds |E|.  The iteration starts at the best singleton,
the vertex v with the largest |u_v| / deg_v: a vertex and its complement both
have perimeter deg_v, so this is the best ratio among all singletons and
complements, one O(|V|) pass.  Any start whose ratio is that of a real subset
is a lower bound on the dual norm, so the result stays exact; on sparse graphs
the answer is often this singleton, and the one min cut left only verifies it.
A subset-enumeration oracle is provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IterationAnomalyError, SizeCapError
from .graph import Graph, check_node_field, connected_components, perimeter, require_connected
from .maxflow import maximize_cut_functional

# Relative stagnation tolerance on the ratio sequence.
RATIO_STAGNATION_RTOL = 1e-12

# Largest |sum(u)| / sum(|u|) accepted as "mean zero".
MEAN_ZERO_TOL = 1e-12

BRUTEFORCE_MAX_VERTICES = 16  # largest graph dual_norm_bruteforce enumerates


def is_mean_zero(u: np.ndarray) -> bool:
    return abs(float(u.sum())) <= MEAN_ZERO_TOL * float(np.abs(u).sum())


def center_field(u: np.ndarray) -> np.ndarray:
    """Subtract the mean of u so that it passes the mean-zero test.

    With a large offset (data near 1e6, spread near 1) one subtraction leaves
    a rounding residue above the tolerance, so the residual mean is taken out
    a second time.  Only then: repeating it on already-centered data would
    move the last bit of the field and of every level computed from it.
    """
    centered = u - u.mean()
    if not is_mean_zero(centered):
        centered = centered - centered.mean()
    return centered


@dataclass(frozen=True)
class DualNormResult:
    """Dual norm value with the subset achieving it.

    ``iterations`` counts min-cut calls of the ratio iteration (0 for the
    enumeration oracle and for the zero field).  ``anomaly`` is set when the
    iteration was cut off at the |E| bound without stagnating, which should
    never happen.
    """

    value: float
    witness_subset: frozenset[int]
    iterations: int
    lambda_sequence: tuple[float, ...] = ()
    anomaly: bool = False

    def checked_value(self) -> float:
        """``value``; raises ``IterationAnomalyError`` if the iteration hit its bound."""
        if self.anomaly:
            raise IterationAnomalyError("dual norm ratio iteration exceeded its edge-count bound")
        return self.value


def _mean_zero_field(g: Graph, u) -> np.ndarray:
    """u as a node field of connected g; ``DomainError`` unless it sums to zero."""
    require_connected(g, "dual norms")
    u = check_node_field(g, u)
    if not is_mean_zero(u):
        raise DomainError(f"node field must have zero mean, got mean {u.mean()}")
    return u


def subset_table(g: Graph, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonempty proper vertex subsets of g in mask order (bit v of the mask is vertex v):
    their boolean membership rows, sizes and perimeters; ``SizeCapError`` above ``cap`` vertices."""
    n = g.n_vertices
    if n > cap:
        raise SizeCapError(f"subset enumeration capped at {cap} vertices, got {n}")
    inside = ((np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1).astype(bool)
    return inside, inside.sum(axis=1), (inside[:, g.edge_src] != inside[:, g.edge_dst]).sum(axis=1)


def dual_norm_algorithm0(g: Graph, u) -> DualNormResult:
    """Dual norm by ratio iteration over min cuts.

    Starts from the singleton v with the largest |u_v| / deg_v (or its
    complement when u_v < 0, so the subset sum is nonnegative), the best ratio
    any singleton or complement reaches, and repeatedly replaces the current
    ratio by the ratio of the subset maximizing the cut functional; stops as soon as
    the maximum drops to zero, i.e. when the ratio stagnates.  The ratio is
    the dual norm only for a mean-zero u; any other field raises ``DomainError``.
    """
    u = _mean_zero_field(g, u)
    if not np.any(u):
        return DualNormResult(value=0.0, witness_subset=frozenset(), iterations=0)

    start = int(np.argmax(np.abs(u) / g.degrees))
    if u[start] >= 0.0:
        subset = frozenset([start])
    else:
        subset = frozenset(range(g.n_vertices)) - {start}
    lam = float(u[list(subset)].sum()) / perimeter(g, subset)
    sequence = [lam]

    value_tol = RATIO_STAGNATION_RTOL * float(np.abs(u).sum())
    iterations = 0
    anomaly = False
    while True:
        if iterations >= g.n_edges:
            anomaly = True
            break
        iterations += 1
        candidate, gain = maximize_cut_functional(g, u, lam)
        if gain <= value_tol:
            break
        new_lam = float(u[list(candidate)].sum()) / perimeter(g, candidate)
        if new_lam <= lam * (1.0 + RATIO_STAGNATION_RTOL):
            break
        lam, subset = new_lam, candidate
        sequence.append(lam)

    return DualNormResult(
        value=lam,
        witness_subset=subset,
        iterations=iterations,
        lambda_sequence=tuple(sequence),
        anomaly=anomaly,
    )


def dual_norm_bruteforce(g: Graph, u) -> DualNormResult:
    """Dual norm by enumerating connected subsets of size at most |V|/2.

    Restricting to connected subsets no larger than half the graph loses
    nothing: complements have equal perimeter and opposite subset sum, and a
    disconnected maximizer is never better than its best component.  Like the
    iteration, it takes a mean-zero u only; any other field raises ``DomainError``.
    """
    u = _mean_zero_field(g, u)
    inside, sizes, perims = subset_table(g, BRUTEFORCE_MAX_VERTICES)
    if not np.any(u):
        return DualNormResult(value=0.0, witness_subset=frozenset(), iterations=0)

    subset_sums = np.zeros(len(inside))
    for v in range(g.n_vertices):  # vertex by vertex, one sum per subset
        subset_sums += inside[:, v] * u[v]

    eligible = sizes <= (g.n_vertices / 2)
    ratios = np.abs(subset_sums) / perims  # a connected graph cuts every proper subset

    # Scanning eligible masks in decreasing ratio order, the first connected one realizes
    # the maximum over the whole family; a nonzero mean-zero u has n >= 2, so one exists.
    order = np.argsort(-ratios, kind="stable")
    for idx in order[eligible[order]]:
        subset = np.flatnonzero(inside[idx]).tolist()
        if len(connected_components(g, subset)) == 1:
            return DualNormResult(
                value=float(ratios[idx]), witness_subset=frozenset(subset), iterations=0
            )


def dual_feasibility_gap(g: Graph, u, lam: float) -> float:
    """Worst violation of <u, 1_A> <= lam * perimeter(A) over all subsets.

    Returns max over A of <u, 1_A> - lam * perimeter(A), which is 0 exactly
    when every subset meets the bound; a u that also sums to zero then lies
    in the dual-norm ball of radius lam.
    """
    require_connected(g, "dual norms")
    _, value = maximize_cut_functional(g, u, lam)
    return value
