"""Synchronous consensus engines: subgradient descent, ADMM, and linear gossip.

Every engine advances a full round at a time: the update of each vertex reads
only round-n values of its neighbors, so per-vertex updates inside a round
are independent.  An engine's constructor checks its levels; ``start(g, objs)``
checks what it needs of the graph and precomputes its constants, and ``step(x)``
returns x(n + 1) as a new array.  Pinned (stubborn) agents are a property of the
network, not of the engine: ``run`` takes them as one vertex -> pinned value
mapping, validates x(0), the ids and the values, writes the pinned values into
x(0), and writes them again into every state an engine returns.

When no agent is pinned and the stop rule cannot fire, nothing reads the rounds
strictly between two recorded rows, so ``run`` hands each such stretch to the
engine's ``advance(x, rounds)``, if it has one, and steps the rest; once
``advance`` takes fewer rounds than it was handed, ``run`` steps every later
round itself.  Only the subgradient engine has one: on a graph whose edge and
vertex counts add up to at most ``PYTHON_BLOCK_SIZE`` it takes the rounds in a
straight-line Python kernel that ``start`` generates for the graph, with
``step``'s IEEE operations in ``step``'s order, so both give the same bytes.

The subgradient and ADMM engines sum over the directed neighbour pairs
(talker, owner), (src, dst) for each edge and then (dst, src), in a layout that
``start`` picks from the graph.  On K_N the subgradient engine counts each
vertex's neighbours above minus below by rank, exact integers in any order.
ADMM on K_N keeps an (n, n) multiplier square with rows indexed by talker; its
axis-0 sums add the talkers in ascending order from +0.0, as
``np.bincount(owner, ...)`` adds the graph's (low, high) pairs, so they give
its bytes.  Other graphs keep per-edge gathers and bincount.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import AssumptionError, DomainError, UnsupportedGraphError
from .graph import (Graph, check_node_field, connected_components, finite_numbers, is_complete,
                    level, subset_mask, whole_number)
from .objectives import Absolute, Quadratic
from .tv import _total_variation


def disagreement(x) -> float:
    """Euclidean norm of the component of x orthogonal to consensus."""
    return _mean_and_disagreement(finite_numbers(x, "x", finite=False).ravel())[1]


def _mean_and_disagreement(x: np.ndarray) -> tuple[np.float64, float]:
    """x.mean() and norm(x - x.mean()) of a 1-D array, with the mean summed once."""
    mean = np.add.reduce(x) / x.size
    d = x - mean
    return mean, math.sqrt(d @ d)


def _pins(g: Graph, pinned: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """The pinned ids in ascending order and their values as floats; the ids are checked by
    ``subset_mask`` and each value by ``finite_numbers`` as one number."""
    ids = np.flatnonzero(subset_mask(g, pinned))
    values = [finite_numbers(pinned[v], f"pinned value {pinned[v]} at vertex {v}", scalar=True)
              for v in ids.tolist()]
    return ids, np.array(values)


# ---------------------------------------------------------------------------
# Linear gossip
# ---------------------------------------------------------------------------


def uniform_gossip_matrix(g: Graph) -> np.ndarray:
    """Neighborhood averaging with weight 1 / (degree + 1), self included."""
    share = 1.0 / (g.degrees + 1.0)
    w = np.diag(share)
    w[g.edge_src, g.edge_dst] = share[g.edge_src]
    w[g.edge_dst, g.edge_src] = share[g.edge_dst]
    return w


def gossip_limit(g: Graph, pinned: Mapping[int, float]) -> np.ndarray:
    """Fixed point of the regular block: solve (I - W_RR) y = W_RS x_S.

    W is ``uniform_gossip_matrix(g)`` and x_S holds the values of ``pinned``,
    a vertex -> pinned value mapping.  The limit of repeated gossip exists
    whenever every connected component holds a stubborn vertex; it does not
    depend on the regular agents' initial values.  Returns the values on
    regular vertices in ascending vertex order.
    """
    stubborn, values = _pins(g, pinned)
    if not stubborn.size:
        raise AssumptionError("gossip limit needs at least one stubborn vertex")
    if any(piece.isdisjoint(pinned) for piece in connected_components(g, range(g.n_vertices))):
        raise AssumptionError("some connected component holds no stubborn vertex")
    w = uniform_gossip_matrix(g)
    regular = np.setdiff1d(np.arange(g.n_vertices), stubborn)
    w_rr, w_rs = w[np.ix_(regular, regular)], w[np.ix_(regular, stubborn)]
    return np.linalg.solve(np.eye(regular.size) - w_rr, w_rs @ values)


# ---------------------------------------------------------------------------
# Engines and the trajectory driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StopRule:
    """Stop at the iteration cap or once the unpinned agents are settled and the state flat."""

    max_iterations: int = 100_000
    disagreement_tol: float = 1e-9
    change_tol: float = 1e-10


# Quiet subgradient rounds run in a kernel generated for the graph when n_edges + n_vertices
# is at most this; its cost grows with that sum, while ``step`` sits at numpy's fixed cost.
# Median µs per round of 9 interleaved 2,000-round timings in three sessions (Python 3.11,
# numpy 2.4, 2-core shared machine), kernel / step: K7 (28) 1.4-2.3 / 7.0-12.5, K9 (45)
# 3.0-3.3 / 11.5-12.5, C24 (48) 3.7-6.8 / 10.0-13.8, K12 (78) 3.6-5.5 / 6.1-12.5, C40 (80)
# 4.4-7.2 / 6.7-13.9; it still wins at K16 (136), ties at C80 (160), and compiles in 1-3 ms.
PYTHON_BLOCK_SIZE = 48

# A block state and the centres stay within +-2**1022, so no difference of two overflows; the
# first round to leave it, inf or NaN included, ends the block, and ``run`` steps it instead.
_BLOCK_BOUND = 2.0**1022


def _within_block_bound(values: list[float]) -> bool:
    return sum(map(abs, values)) <= _BLOCK_BOUND  # False for inf and NaN


# The kernel's local names, interned once: the compiler interns every identifier, and names
# that died with each kernel churned the interned-string table until it resized (+0.5 MB).
_NAMES = [sys.intern(f"{p}{i}") for p in "xcdy" for i in range(PYTHON_BLOCK_SIZE)]


def _block_kernel(n_vertices: int, pairs: list[tuple[int, int]], median: bool):
    """Generate ``kernel(xs, cs, lam, gamma0, n, rounds) -> (state, new n)``: straight-line
    ``step`` on locals x0, x1, ..., each edge sign d_e once, up to the first round whose
    |x0| + |x1| + ... is not within ``_BLOCK_BOUND``.  It computes in floats only, which
    CPython specializes, with ``step``'s bytes: a sign is +-1.0 or 0.0 where a bool difference
    was +-1 or 0; a count of under ``PYTHON_BLOCK_SIZE`` unit terms is exact and, from +0.0,
    never -0.0 (x + y is -0.0 only if both are), so ``count * lam`` is an int count's double;
    the absolute term's 0.0 is np.sign's, as np.sign(-0.0) is +0.0; and the inline magnitude
    differs from ``abs`` only on -0.0 while NaN stays NaN, so the bound exit declines alike."""
    count, signs = ["0.0"] * n_vertices, []  # each vertex's neighbours above minus below
    for e, (lo, hi) in enumerate(pairs):
        signs.append(f"        d{e} = 1.0 if x{lo} < x{hi} else -1.0 if x{hi} < x{lo} else 0.0")
        count[lo] += f" + d{e}"
        count[hi] += f" - d{e}"
    xs, cs = ("".join(f"{name}{v}, " for v in range(n_vertices)) for name in "xc")
    term = "(1.0 if x{v} > c{v} else -1.0 if x{v} < c{v} else 0.0)" if median else "(x{v} - c{v})"
    magnitudes = " + ".join(f"(y{v} if y{v} >= 0.0 else -y{v})" for v in range(n_vertices))
    source = "\n".join([
        "def kernel(xs, cs, lam, gamma0, n, rounds, bound=_BLOCK_BOUND):",
        f"    {xs}= xs; {cs}= cs",
        "    for k in range(n, n + rounds):",
        "        gamma = gamma0 / (k + 1.0)",
        *signs,
        *(f"        y{v} = x{v} + (({count[v]}) * lam - {term.format(v=v)}) * gamma"
          for v in range(n_vertices)),
        f"        if not {magnitudes} <= bound:",
        f"            return [{xs}], k",
        *(f"        x{v} = y{v}" for v in range(n_vertices)),
        f"    return [{xs}], n + rounds",
    ])
    exec(source, namespace := {"_BLOCK_BOUND": _BLOCK_BOUND})
    return namespace.pop("kernel")  # no function <-> globals cycle: freed with the engine


@dataclass
class Trajectory:
    """Recorded per-iteration metrics of one engine run."""

    iterations: np.ndarray
    disagreement: np.ndarray
    mean: np.ndarray
    objective: np.ndarray
    max_change: np.ndarray
    final_x: np.ndarray
    converged: bool
    n_steps: int


class SubgradientEngine:
    """Descent on the regularized energy with steps gamma_n = gamma0 / (n + 1).

    The steps have a divergent sum and summable squares.  Each regular vertex
    moves by gamma_n times the negative objective subgradient plus lam times
    the sum of neighbor disagreement signs (sign(0) = 0); sign terms are
    antisymmetric per edge, so the network average is preserved whenever the
    objective subgradients sum to zero.
    """

    name = "subgradient"

    def __init__(self, lam: float, gamma0: float = 1.0):
        self.lam = level(lam, "lam")
        self.gamma0 = level(gamma0, "gamma0", positive=True)

    def start(self, g: Graph, objs: Quadratic | Absolute) -> None:
        """Fix the run's constants for ``g`` and ``objs`` and reset the round counter."""
        self.n = 0
        self._objs = objs
        self._ranked = is_complete(g)
        self._src, self._dst = g.edge_src, g.edge_dst
        self._pairs = self._kernel = None  # the (low, high) edges and kernel of a small graph
        if g.n_edges + g.n_vertices <= PYTHON_BLOCK_SIZE and type(objs) in (Quadratic, Absolute):
            self._centers = objs.centers.tolist()
            if _within_block_bound(self._centers):
                self._pairs = list(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
                self._kernel = _block_kernel(g.n_vertices, self._pairs, type(objs) is Absolute)

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: return x(n + 1) as a new array."""
        gamma = self.gamma0 / (self.n + 1.0)
        if self._ranked:
            r = x.copy()  # array methods skip np.sort's and np.searchsorted's wrappers
            r.sort()
            sign_sum = x.size - r.searchsorted(x, "right") - r.searchsorted(x)
        else:
            s, n = np.sign(x[self._dst] - x[self._src]), x.size
            sign_sum = np.bincount(self._src, s, n) - np.bincount(self._dst, s, n)
        # Scalars on the right: ndarray * float skips float.__mul__'s failed attempt.
        x_next = x + (sign_sum * self.lam - self._objs.subgradient(x)) * gamma
        self.n += 1
        return x_next

    def advance(self, x: np.ndarray, rounds: int) -> tuple[np.ndarray, int]:
        """Take up to ``rounds`` rounds on Python floats; return the last state and the count.

        The rounds run in the kernel ``start`` generated, with ``step``'s IEEE operations in
        its order.  No round is taken above ``PYTHON_BLOCK_SIZE``, for another objective type
        or from a state beyond ``_BLOCK_BOUND``, and the kernel stops before leaving the bound.
        """
        if self._pairs is None or not _within_block_bound(xs := x.tolist()):
            return x, 0
        xs, n = self._kernel(xs, self._centers, self.lam, self.gamma0, self.n, rounds)
        done, self.n = n - self.n, n
        return np.array(xs), done


class AdmmEngine:
    """ADMM rounds: project the multipliers, then apply the proximal map.

    ``mu`` holds one private scalar per directed neighbor pair (w, v), owned
    by v and never transmitted; ``mu_mean`` caches its per-owner average so
    the next round can form the 3/2, -1/2 extrapolation without recomputing.

    mu(w, v) absorbs the observed disagreement x(w) - x(v), clipped to
    [-2 lam / rho, 2 lam / rho]; the x update applies prox with weight
    rho * degree(v) to x(v) + new_mean - 1/2 old_mean.  Only the x values
    cross the network.

    On K_N the multipliers form an (n, n) square M, M[w, v] being v's
    multiplier for talker w, with a zero diagonal.  Otherwise the pairs of an
    edge hold exact negatives of one another, so a round updates the multiplier
    once per edge and negates it for the reverse pair.

    The extrapolation coefficients (1, -1/2) come from eliminating the
    auxiliary edge variables of the underlying splitting: the scaled dual
    mean enters once through the edge average and once more halved through
    the dual term, and at a fixed point rho/2 times each multiplier is an
    edge dual variable bounded by lam, matching the optimality system of
    the TV-regularized energy.
    """

    name = "admm"

    def __init__(self, lam: float, rho: float = 1.0):
        self.lam = level(lam, "lam")
        self.rho = level(rho, "rho", positive=True)

    def start(self, g: Graph, objs: Quadratic | Absolute) -> None:
        """Validate the graph, fix the run's constants, zero the multipliers."""
        if int(g.degrees.min()) < 1:
            raise UnsupportedGraphError("ADMM needs every vertex to have a neighbor")
        if not math.isfinite(self.rho * int(g.degrees.max())):  # Python floats: no warning
            raise ValueError(f"rho times the largest degree overflows: rho = {self.rho:g}")
        self._objs = objs
        # Each edge {v, w} yields the directed pairs (talker, owner) = (v, w) and (w, v).
        self._src, self._dst, self._m = g.edge_src, g.edge_dst, g.n_edges
        self._owner = np.concatenate([g.edge_dst, g.edge_src])
        self._deg = g.degrees.astype(float)
        self._rho_deg = self.rho * self._deg
        self._bound = 2.0 * self.lam / self.rho
        n = g.n_vertices
        self._square = is_complete(g)
        # The square's L = [x; 1] and R = [1; -x]: L.T @ R holds x[w] - x[v], one rounding each.
        self._left, self._right = np.ones((2, n)), np.ones((2, n))
        self._mu = np.zeros((n, n) if self._square else 2 * g.n_edges)
        self.mu_mean = np.zeros(n, dtype=float)

    @property
    def mu(self) -> np.ndarray:
        """The multiplier of every directed pair: (src, dst) pairs, then (dst, src)."""
        # Each pair's talker is the owner of the pair m places on.
        return self._mu[np.roll(self._owner, self._m), self._owner] if self._square else self._mu

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: update ``mu`` and ``mu_mean``, return x(n + 1) as a new array."""
        b = self._bound  # max/min is np.clip without its per-call overhead
        if self._square:
            self._left[0] = x
            np.negative(x, out=self._right[1])
            # x[w] - x[v] up to the sign of zeros, which the +0.0-started sums cannot see.
            mu = self._left.T @ self._right  # updated in place: the one new array
            mu += self._mu
            np.minimum(np.maximum(mu, -b, out=mu), b, out=mu)
            total = np.add.reduce(mu, axis=0, initial=0.0)
        else:
            # (-a) + (-b) == -(a + b) and clipping to [-b, b] commutes with negation in
            # IEEE arithmetic, so the reverse pairs' update is the negated edge update up
            # to the sign of zeros, which the +0.0-initialized bincount sums cannot see.
            half = self._mu[: self._m] + (x[self._src] - x[self._dst])
            half = np.minimum(np.maximum(half, -b), b)
            mu = np.concatenate([half, -half])
            total = np.bincount(self._owner, weights=mu, minlength=x.size)
        mu_mean = total / self._deg
        target = x + mu_mean - self.mu_mean * 0.5
        x_next = self._objs.prox(self._rho_deg, target)
        self._mu, self.mu_mean = mu, mu_mean
        return x_next


class GossipEngine:
    """Repeated multiplication by the uniform gossip matrix of the graph."""

    name = "gossip"
    lam = 0.0

    def start(self, g: Graph, objs: Quadratic | Absolute) -> None:
        """Build the averaging matrix of ``g``."""
        self._w = uniform_gossip_matrix(g)

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: return W x as a new array."""
        return self._w @ x


Engine = SubgradientEngine | AdmmEngine | GossipEngine


def run(
    engine: Engine,
    g: Graph,
    x0,
    objs: Quadratic | Absolute,
    pinned: Mapping[int, float] = MappingProxyType({}),
    stop: StopRule = StopRule(),
    record_every: int = 1,
    metric_lambda: float | None = None,
) -> Trajectory:
    """Iterate an engine and record metrics until the stop rule fires.

    ``pinned`` maps each stubborn vertex to its value; an unknown or non-integral
    id raises ``InvalidSubsetError`` and a value that is not a finite number ``InvalidFieldError``.
    x(0) is x0 with those entries set to their pinned values, and every state the
    engine returns gets them again, so no engine handles the pins.  The stop rule
    reads the disagreement of the unpinned agents only; the recorded one covers
    all agents.  The recorded objective is F(x) + metric_lambda * tv(x);
    metric_lambda defaults to the engine's own level and is checked as one by ``level``;
    a stop tolerance must be one number and not NaN, and may be ±inf or <= 0.  Both
    raise before the first step.  Iteration 0
    carries the initial metrics with zero change; the final iteration is always
    recorded.  A state or a row metric that overflows or turns NaN raises
    ``DomainError``.  Without pins or a stop rule that can fire, the rounds
    between rows go to the engine's ``advance``, if any; ``run`` steps the rest,
    and steps every later round once ``advance`` has declined one.
    """
    record_every = whole_number(record_every, 1, "record_every")
    max_iterations = whole_number(stop.max_iterations, 0, "max_iterations")
    for name in ("disagreement_tol", "change_tol"):
        if math.isnan(finite_numbers(getattr(stop, name), name, scalar=True, finite=False)):
            raise DomainError(f"{name} must not be NaN")
    lam_metric = engine.lam if metric_lambda is None else level(metric_lambda, "metric_lambda")

    x = check_node_field(g, x0).copy()
    pin_ids, pin_values = _pins(g, pinned)
    x[pin_ids] = pin_values
    has_pins = pin_ids.size > 0
    engine.start(g, objs)

    its: list[int] = []
    dis: list[float] = []
    means: list[float] = []
    objective_values: list[float] = []
    changes: list[float] = []

    # x is checked finite above and np.errstate keeps it so: a row skips the field checks.
    def record(k: int, x_now: np.ndarray, change: float) -> None:
        mean, spread = _mean_and_disagreement(x_now)
        its.append(k)
        dis.append(spread)
        means.append(float(mean))
        # A numpy product, so np.errstate also catches lam_metric * tv overflowing.
        objective_values.append(float(objs.value(x_now) + lam_metric * _total_variation(g, x_now)))
        changes.append(change)

    # Change and disagreement are >= 0, so a tolerance <= 0 is never met.
    can_settle = stop.change_tol > 0.0 and stop.disagreement_tol > 0.0
    free_disagreement = disagreement  # the stop rule reads the unpinned agents only
    if has_pins:  # pins need not agree; with every agent pinned, a flat run has settled
        free = np.bincount(pin_ids, minlength=g.n_vertices) == 0
        free_disagreement = lambda x_now: disagreement(x_now[free]) if free.any() else 0.0
    # Without pins or a stop rule that can fire, nothing reads a round between two rows.
    advance = getattr(engine, "advance", None)
    quiet = advance is not None and not (has_pins or can_settle)
    converged = False
    k = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            record(0, x, 0.0)
            while k < max_iterations:
                if quiet:
                    rounds = min((k // record_every + 1) * record_every, max_iterations) - 1 - k
                    if rounds > 0:
                        # A round the engine did not take is stepped below, and raises there.
                        x, done = advance(x, rounds)
                        k += done
                        quiet = done == rounds  # after a declined round, step the rest here
                k += 1
                try:
                    x_new = engine.step(x)
                except FloatingPointError as exc:
                    raise DomainError(
                        f"{engine.name} engine: the state left the finite range at step {k} ({exc})"
                    ) from exc
                if has_pins:
                    x_new[pin_ids] = pin_values
                due = k % record_every == 0 or k == max_iterations
                if due or can_settle:
                    change = float(np.maximum.reduce(np.abs(x_new - x)))
                    converged = (
                        change < stop.change_tol
                        and free_disagreement(x_new) < stop.disagreement_tol
                    )
                    if due or converged:
                        record(k, x_new, change)
                x = x_new
                if converged:
                    break
    except FloatingPointError as exc:
        raise DomainError(
            f"{engine.name} engine: the row metrics at step {k} left the finite range ({exc})"
        ) from exc

    return Trajectory(
        iterations=np.array(its, dtype=int),
        disagreement=np.array(dis, dtype=float),
        mean=np.array(means, dtype=float),
        objective=np.array(objective_values, dtype=float),
        max_change=np.array(changes, dtype=float),
        final_x=x,
        converged=converged,
        n_steps=k,
    )
