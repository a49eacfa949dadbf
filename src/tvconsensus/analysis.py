"""Optimality certificates, critical regularization levels, robustness limits.

A consensus candidate x* is optimal exactly when some per-vertex subgradient
selection u of the aggregate objective at x* sums to zero and satisfies
<u, 1_A> <= lam * perimeter(A) for every subset A, i.e. lies in the dual-norm
ball of radius lam.  When the subgradient sets are intervals [lo, hi], two
cuts decide whether such a u exists: the base polytope of lam * perimeter
meets the box exactly when neither max_A lo(A) - lam * per(A) nor
max_A -hi(A) - lam * per(A) is positive (Fujishige, *Submodular Functions and
Optimization*, 2005).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualnorm import center_field, dual_norm_algorithm0, subset_table
from .errors import DomainError, UnsupportedGraphError
from .graph import (Graph, check_node_field, finite_numbers, is_complete, level,
                    require_connected, whole_number)
from .maxflow import maximize_cut_functional
from .objectives import Absolute, Quadratic
from .tv import CERTIFICATE_RTOL

CERTIFIED = "certified"
VIOLATED = "violated"
MEDIAN_PATTERN_MAX_VERTICES = 12  # largest non-complete graph mc_lambda0_exact enumerates


@dataclass(frozen=True)
class OptimalityCertificate:
    x_star: float
    u: np.ndarray
    mean_u: float
    dual_gap: float
    verdict: str


def certify_consensus_minimizer(
    g: Graph,
    objs: Quadratic | Absolute,
    x_star: float,
    lam: float,
) -> OptimalityCertificate:
    """Decide whether x* times the all-ones field minimizes the regularized energy.

    ``certified`` means that a zero-sum subgradient selection at x* lies in the
    dual-norm ball of radius lam, ``violated`` that none does; both verdicts
    are exact.  When every subgradient set is a point, ``u`` is the selection
    and ``dual_gap`` its worst violation max_A <u, 1_A> - lam * per(A).  When
    some are intervals [lo, hi], ``dual_gap`` is the larger of the two box
    gains max_A lo(A) - lam * per(A) and max_A -hi(A) - lam * per(A), and
    ``u`` is a selection of the box that sums to zero (lo or hi, whichever
    sums nearer zero, if none does); it need not itself lie in the ball.

    tol = ``CERTIFICATE_RTOL`` is relative, so scaling the data keeps the
    verdict: the dual gap is held to tol * ||u||_1 and, for a point box, the
    mean of u to tol * ||u||_inf.  Shifting the data keeps it too: the mean test
    also allows n * eps * |x*|, the rounding that forming u at the offset x* can
    leave, and no more.  A non-finite x* or a lam outside (0, inf) raises
    ``DomainError``, and a lam that is not one number ``InvalidFieldError``.
    """
    if not np.isfinite(x_star):
        raise DomainError(f"x_star must be finite, got {x_star}")
    lam = level(lam, "lam", positive=True)
    require_connected(g, "certificates")
    lo, hi = objs.subgradient_box(float(x_star))

    if np.all(lo == hi):
        # Unique subgradient selection: the check is conclusive either way.
        u = lo.copy()
        mean_u = float(u.mean())
        rounding = u.size * np.finfo(float).eps * abs(float(x_star))
        if abs(mean_u) > CERTIFICATE_RTOL * float(np.abs(u).max()) + rounding:
            gap = np.inf
        else:
            _, gap = maximize_cut_functional(g, center_field(u), lam)
    else:
        # The A = V cuts test lo(V) <= 0 <= hi(V); the rest test the dual ball.
        gap = max(maximize_cut_functional(g, lo, lam)[1], maximize_cut_functional(g, -hi, lam)[1])
        t = np.clip(-lo.sum() / (hi - lo).sum(), 0.0, 1.0)
        u = lo + t * (hi - lo)
        mean_u = float(u.mean())
    verdict = CERTIFIED if gap <= CERTIFICATE_RTOL * float(np.abs(u).sum()) else VIOLATED
    return OptimalityCertificate(
        x_star=float(x_star), u=u, mean_u=mean_u, dual_gap=float(gap), verdict=verdict
    )


def ac_critical_lambda(g: Graph, x0) -> float:
    """Smallest regularization level that certifies exact average consensus.

    Raises ``IterationAnomalyError`` if the ratio iteration hit its bound.
    """
    return dual_norm_algorithm0(g, center_field(check_node_field(g, x0))).checked_value()


def median_sign_pattern(n: int) -> np.ndarray:
    """Canonical below/above-median pattern: -1s, then a 0 for odd n, then +1s."""
    return np.sign(np.arange(n) - (n - 1) / 2)


def mc_lambda0_upper(g: Graph) -> float:
    """Closed-form bound N / (2N - 2) for complete graphs."""
    if not is_complete(g):
        raise UnsupportedGraphError("the closed-form bound holds for complete graphs only")
    n = g.n_vertices
    if n < 2:
        raise UnsupportedGraphError("need at least two vertices")
    return n / (2.0 * n - 2.0)


def mc_lambda0_exact(g: Graph) -> float:
    """Worst-case dual norm over all placements of the median sign pattern.

    The two maxima swap: a subset A of size k holds at most
    h(k) = min(k, p) - max(0, k - p - z) of the pattern's mass (p entries +1,
    z entries 0), so the answer is the largest h(|A|) / per(A) over proper
    nonempty A.  On K_N the (size, perimeter) rows are (k, k(N - k)); other
    graphs enumerate their subsets, capped by ``MEDIAN_PATTERN_MAX_VERTICES``.
    """
    require_connected(g, "median critical levels")
    n = g.n_vertices
    if is_complete(g):
        k = np.arange(1, n)
        per = k * (n - k)
    else:
        _, k, per = subset_table(g, MEDIAN_PATTERN_MAX_VERTICES)
    p, z = n // 2, n % 2
    h = np.minimum(k, p) - np.maximum(0, k - p - z)
    return float(np.max(h / per, initial=0.0))


PULLED_TO_ANCHOR = "pulled_to_a"
CLIPPED_HIGH = "clipped_high"
CLIPPED_LOW = "clipped_low"


@dataclass(frozen=True)
class StubbornPrediction:
    """Closed-form consensus limit under an all-to-all pinned coalition.

    ``lambda_ok`` reports whether lam is at least the critical level of the
    regular agents' data, when that level was given (None means unchecked); the
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
    critical_level: float | None = None,
) -> StubbornPrediction:
    """Predict the consensus value when s_count pinned agents hold value a.

    Valid when every pinned agent neighbors every regular agent and lam is at
    least ``critical_level``, the critical level of the regular data on the
    regular subgraph (``ac_critical_lambda``); pass it to have the
    precondition checked.
    """
    x0_regular = finite_numbers(x0_regular, "x0_regular")
    if x0_regular.ndim != 1 or x0_regular.size == 0:
        raise ValueError("need a nonempty vector of regular initial values")
    a = float(finite_numbers(a, "pinned value a", scalar=True))
    lam = level(lam, "lam", positive=True)
    s_count = whole_number(s_count, 1, "s_count")
    mean = float(x0_regular.mean())
    margin = lam * s_count
    lambda_ok = None if critical_level is None else lam >= critical_level
    if abs(mean - a) <= margin:
        x_star, case = a, PULLED_TO_ANCHOR
    elif mean + margin < a:
        x_star, case = mean + margin, CLIPPED_HIGH
    else:
        x_star, case = mean - margin, CLIPPED_LOW
    return StubbornPrediction(
        x_star=x_star, case=case, margin=margin, regular_mean=mean, lambda_ok=lambda_ok
    )
