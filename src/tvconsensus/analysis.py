"""Optimality certificates, critical regularization levels, robustness limits.

A consensus candidate x* is certified by exhibiting a per-vertex subgradient
selection u of the aggregate objective at x* that sums to zero and satisfies
<u, 1_A> <= lam * perimeter(A) for every subset A, i.e. lies in the dual-norm
ball of radius lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualnorm import dual_norm_algorithm0
from .errors import DomainError, InvalidFieldError, SizeCapError, UnsupportedGraphError
from .graph import Graph, check_node_field, is_complete
from .maxflow import center_field, maximize_cut_functional
from .objectives import Absolute, Quadratic

CERTIFIED = "certified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OptimalityCertificate:
    x_star: float
    u: np.ndarray
    mean_u: float
    dual_gap: float
    verdict: str


def _project_mean_zero(lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """Closest point to the box center with zero sum, or None if impossible.

    The shifted clip s -> sum(clip(center - s, lo, hi)) is monotone in s, so a
    zero-sum selection is found by bisection whenever sum(lo) <= 0 <= sum(hi).
    """
    if lo.sum() > 0.0 or hi.sum() < 0.0:
        return None
    center = 0.5 * (lo + hi)
    # Bracket wide enough that both clip extremes are reachable.
    span = float(np.abs(center).max() + np.abs(lo).max() + np.abs(hi).max()) + 1.0

    def shifted(s: float) -> np.ndarray:
        return np.clip(center - s, lo, hi)

    low, high = -span, span
    for _ in range(200):
        mid = 0.5 * (low + high)
        if shifted(mid).sum() > 0.0:
            low = mid
        else:
            high = mid
    u = shifted(0.5 * (low + high))
    return u - u.sum() / u.size


def certify_consensus_minimizer(
    g: Graph,
    objs: Quadratic | Absolute,
    x_star: float,
    lam: float,
    tol: float = 1e-9,
) -> OptimalityCertificate:
    """Decide whether x* times the all-ones field minimizes the regularized energy.

    With differentiable objectives the subgradient selection is unique, so the
    check is conclusive either way.  With genuine subgradient intervals a
    greedy search shifts mass away from violating subsets; if it fails, the
    verdict is ``inconclusive`` rather than ``violated``.

    ``tol`` is relative, so scaling the data keeps the verdict: the dual gap is
    held to tol * ||u||_1 and the mean of u to tol * ||u||_inf.  Shifting the
    data keeps it too: the mean test also allows n * eps * |x*|, the rounding
    that forming u at the offset x* can leave, and no more.  A non-finite x*
    or a lam outside (0, inf) raises ``DomainError``.
    """
    if not np.isfinite(x_star):
        raise DomainError(f"x_star must be finite, got {x_star}")
    if not 0.0 < lam < np.inf:
        raise DomainError(f"lam must be positive and finite, got {lam}")
    if not g.is_connected:
        raise UnsupportedGraphError("certificates need a connected graph")
    lo, hi = objs.subgradient_box(float(x_star))

    if np.all(lo == hi):
        # Unique subgradient selection: the check is conclusive either way.
        u = lo.copy()
        mean_u = float(u.mean())
        rounding = u.size * np.finfo(float).eps * abs(float(x_star))
        if abs(mean_u) > tol * float(np.abs(u).max()) + rounding:
            gap = np.inf
        else:
            _, gap = maximize_cut_functional(g, center_field(u), lam)
        verdict = CERTIFIED if gap <= tol * float(np.abs(u).sum()) else VIOLATED
        return OptimalityCertificate(
            x_star=float(x_star), u=u, mean_u=mean_u, dual_gap=float(gap), verdict=verdict
        )

    u = _project_mean_zero(lo, hi)
    if u is None:
        # No zero-sum subgradient selection exists at all.
        fallback = 0.5 * (lo + hi)
        return OptimalityCertificate(
            x_star=float(x_star),
            u=fallback,
            mean_u=float(fallback.mean()),
            dual_gap=np.inf,
            verdict=VIOLATED,
        )

    # Greedy repair: drain mass from each violating subset into its complement.
    gap = np.inf
    for _ in range(2 * g.n_vertices + 10):
        witness, gap = maximize_cut_functional(g, u, lam)
        floor = tol * float(np.abs(u).sum())
        if gap <= floor:
            return OptimalityCertificate(
                x_star=float(x_star),
                u=u,
                mean_u=float(u.mean()),
                dual_gap=float(gap),
                verdict=CERTIFIED,
            )
        inside = np.zeros(g.n_vertices, dtype=bool)
        inside[list(witness)] = True
        down_room = np.where(inside, u - lo, 0.0)
        up_room = np.where(~inside, hi - u, 0.0)
        transfer = min(down_room.sum(), up_room.sum(), gap)
        if transfer <= floor * 0.5:
            break
        if down_room.sum() > 0.0:
            u = u - down_room * (transfer / down_room.sum())
        if up_room.sum() > 0.0:
            u = u + up_room * (transfer / up_room.sum())
        u = np.clip(u, lo, hi)
        u = u - u.sum() / u.size

    return OptimalityCertificate(
        x_star=float(x_star),
        u=u,
        mean_u=float(u.mean()),
        dual_gap=float(gap),
        verdict=INCONCLUSIVE,
    )


def ac_critical_lambda(g: Graph, x0) -> float:
    """Smallest regularization level that certifies exact average consensus.

    Raises ``IterationAnomalyError`` if the ratio iteration hit its bound.
    """
    return dual_norm_algorithm0(g, center_field(check_node_field(g, x0))).checked_value()


def median_sign_pattern(n: int) -> np.ndarray:
    """Canonical below/above-median pattern: -1s, then a 0 for odd n, then +1s."""
    if n % 2 == 1:
        k = (n - 1) // 2
        return np.concatenate([-np.ones(k), [0.0], np.ones(k)])
    k = n // 2
    return np.concatenate([-np.ones(k), np.ones(k)])


def mc_lambda0_upper(g: Graph) -> float:
    """Closed-form bound N / (2N - 2) for complete graphs."""
    if not is_complete(g):
        raise UnsupportedGraphError("the closed-form bound holds for complete graphs only")
    n = g.n_vertices
    if n < 2:
        raise UnsupportedGraphError("need at least two vertices")
    return n / (2.0 * n - 2.0)


def mc_lambda0_exact(g: Graph, max_vertices: int = 12) -> float:
    """Worst-case dual norm over all placements of the median sign pattern.

    On a complete graph every placement is equivalent under relabeling, so a
    single representative suffices.  Otherwise the two maxima swap: a subset A
    of size k holds at most h(k) = min(k, p) - max(0, k - p - z) of the
    pattern's mass (p entries +1, z entries 0), so the answer is the largest
    h(|A|) / per(A) over proper nonempty A.  The subsets are enumerated, which
    is capped by ``max_vertices``.
    """
    if not g.is_connected:
        raise UnsupportedGraphError("need a connected graph")
    n = g.n_vertices
    pattern = median_sign_pattern(n)
    if is_complete(g):
        return dual_norm_algorithm0(g, pattern).value
    if n > max_vertices:
        raise SizeCapError(
            f"pattern enumeration capped at {max_vertices} vertices, got {n}"
        )
    p, z = int(np.count_nonzero(pattern > 0)), int(np.count_nonzero(pattern == 0))
    masks = np.arange(1, 2**n - 1)
    inside = (masks[:, None] >> np.arange(n)) & 1
    k = inside.sum(axis=1)
    per = (inside[:, g.edge_src] != inside[:, g.edge_dst]).sum(axis=1)
    h = np.minimum(k, p) - np.maximum(0, k - p - z)
    return float(np.max(h / per))


PULLED_TO_ANCHOR = "pulled_to_a"
CLIPPED_HIGH = "clipped_high"
CLIPPED_LOW = "clipped_low"


@dataclass(frozen=True)
class StubbornPrediction:
    """Closed-form consensus limit under an all-to-all pinned coalition.

    ``lambda_ok`` reports the regularity precondition on the regular agents'
    data when a graph was supplied for checking (None means unchecked); the
    prediction never leaves [mean - margin, mean + margin].
    """

    x_star: float
    case: str
    margin: float
    regular_mean: float
    lambda_ok: bool | None = None


def stubborn_limit(
    x0_regular,
    a: float,
    lam: float,
    s_count: int,
    graph_regular: Graph | None = None,
) -> StubbornPrediction:
    """Predict the consensus value when s_count pinned agents hold value a.

    Valid when every pinned agent neighbors every regular agent and lam is at
    least the critical level of the regular data on the regular subgraph; pass
    that subgraph to have the precondition checked.
    """
    x0_regular = np.asarray(x0_regular, dtype=float)
    if x0_regular.ndim != 1 or x0_regular.size == 0:
        raise ValueError("need a nonempty vector of regular initial values")
    if not np.all(np.isfinite(x0_regular)):
        raise InvalidFieldError("regular initial values must be finite")
    if not np.isfinite(a):
        raise ValueError("pinned value a must be finite")
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if s_count < 1:
        raise ValueError("need at least one pinned agent")
    mean = float(x0_regular.mean())
    margin = lam * s_count

    lambda_ok: bool | None = None
    if graph_regular is not None:
        if graph_regular.n_vertices != x0_regular.size:
            raise ValueError("regular graph does not match the regular data")
        lambda_ok = lam >= ac_critical_lambda(graph_regular, x0_regular)

    if abs(mean - a) <= margin:
        x_star, case = float(a), PULLED_TO_ANCHOR
    elif mean + margin < a:
        x_star, case = mean + margin, CLIPPED_HIGH
    else:
        x_star, case = mean - margin, CLIPPED_LOW
    return StubbornPrediction(
        x_star=x_star,
        case=case,
        margin=margin,
        regular_mean=mean,
        lambda_ok=lambda_ok,
    )
