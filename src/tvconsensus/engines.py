"""Synchronous consensus engines: subgradient descent, ADMM, and linear gossip.

Every engine advances a full round at a time: the update of each vertex reads
only round-n values of its neighbors, so per-vertex updates inside a round
are independent.  An engine is two calls: ``start(g, objs)`` checks its
parameters and precomputes its constants, and ``step(x)`` returns x(n + 1) as
a new array.  Pinned (stubborn) agents are a property of the network, not of
the engine: ``run`` validates x(0) and the roles, writes the pinned values into
x(0), and writes them again into every state an engine returns.

The subgradient and ADMM engines sum over the directed neighbour pairs
(talker, owner), (src, dst) for each edge and then (dst, src), in a layout that
``start`` picks from the graph.  A d-regular graph (K_N, cycles) gets a (d, n)
talker table whose column v lists v's talkers in the order in which
``np.bincount(owner, ...)`` adds them (a stable argsort of the owners).  Its
axis-0 sums add row by row from +0.0, as bincount does, so they give its bytes.
Other graphs keep per-edge gathers and bincount: padding them to the maximum
degree is slower, and O(n^2) on a star.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError, InvalidFieldError, UnsupportedGraphError
from .graph import Graph, check_node_field, connected_components
from .objectives import Absolute, Quadratic
from .tv import _total_variation


@dataclass(frozen=True)
class AgentRoles:
    """Partition of the vertices into regular and stubborn agents.

    Stubborn agents hold ``pinned_values`` forever; ``run`` overwrites their
    entries with these values after every round.
    """

    n_vertices: int
    stubborn_ids: tuple[int, ...] = ()
    pinned_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.stubborn_ids) != len(set(self.stubborn_ids)):
            raise ValueError("duplicate stubborn vertex ids")
        if len(self.stubborn_ids) != len(self.pinned_values):
            raise ValueError("need one pinned value per stubborn vertex")
        for v in self.stubborn_ids:
            if not 0 <= v < self.n_vertices:
                raise ValueError(f"stubborn vertex {v} out of range")
        order = np.argsort(self.stubborn_ids)
        object.__setattr__(
            self, "stubborn_ids", tuple(int(self.stubborn_ids[i]) for i in order)
        )
        object.__setattr__(
            self, "pinned_values", tuple(float(self.pinned_values[i]) for i in order)
        )

    @classmethod
    def none(cls, n_vertices: int) -> "AgentRoles":
        return cls(n_vertices=n_vertices)

    @classmethod
    def from_pinned(cls, n_vertices: int, pinned: Mapping[int, float]) -> "AgentRoles":
        ids = tuple(sorted(pinned))
        return cls(
            n_vertices=n_vertices,
            stubborn_ids=ids,
            pinned_values=tuple(float(pinned[v]) for v in ids),
        )

    @property
    def regular_ids(self) -> tuple[int, ...]:
        stub = set(self.stubborn_ids)
        return tuple(v for v in range(self.n_vertices) if v not in stub)


def disagreement(x) -> float:
    """Euclidean norm of the component of x orthogonal to consensus."""
    return _mean_and_disagreement(np.asarray(x, dtype=float).ravel())[1]


def _mean_and_disagreement(x: np.ndarray) -> tuple[np.float64, float]:
    """x.mean() and norm(x - x.mean()) of a 1-D array, with the mean summed once."""
    mean = np.add.reduce(x) / x.size
    d = x - mean
    return mean, math.sqrt(d @ d)


def harmonic_schedule(gamma0: float = 1.0) -> Callable[[int], float]:
    """Steps gamma0 / (n + 1): divergent sum, summable squares."""
    if not gamma0 > 0.0:
        raise ValueError("gamma0 must be positive")

    def schedule(n: int) -> float:
        return gamma0 / (n + 1.0)

    return schedule


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


def gossip_limit(g: Graph, roles: AgentRoles) -> np.ndarray:
    """Fixed point of the regular block: solve (I - W_RR) y = W_RS x_S.

    W is ``uniform_gossip_matrix(g)`` and x_S holds the pinned values.  The
    limit of repeated gossip exists whenever every connected component holds a
    stubborn vertex; it does not depend on the regular agents' initial values.
    Returns the values on regular vertices in ascending vertex order.
    """
    if roles.n_vertices != g.n_vertices:
        raise InvalidFieldError(f"roles for {roles.n_vertices} vertices, graph has {g.n_vertices}")
    if not roles.stubborn_ids:
        raise AssumptionError("gossip limit needs at least one stubborn vertex")
    stubborn = list(roles.stubborn_ids)
    if any(piece.isdisjoint(stubborn) for piece in connected_components(g, range(g.n_vertices))):
        raise AssumptionError("some connected component holds no stubborn vertex")
    w = uniform_gossip_matrix(g)
    regular = list(roles.regular_ids)
    w_rr, w_rs = w[np.ix_(regular, regular)], w[np.ix_(regular, stubborn)]
    return np.linalg.solve(np.eye(len(regular)) - w_rr, w_rs @ np.array(roles.pinned_values))


# ---------------------------------------------------------------------------
# Engines and the trajectory driver
# ---------------------------------------------------------------------------


def _talker_table(g: Graph) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """A d-regular graph's (d, n) talker table and each pair's index into its transpose."""
    if g.degrees.min() != g.degrees.max():
        return None, None
    order = np.argsort(np.concatenate([g.edge_dst, g.edge_src]), kind="stable")
    talkers = np.concatenate([g.edge_src, g.edge_dst])[order].reshape(g.n_vertices, -1)
    return np.ascontiguousarray(talkers.T), np.argsort(order)


@dataclass(frozen=True)
class StopRule:
    """Stop at the iteration cap or once the state is both settled and flat."""

    max_iterations: int = 100_000
    disagreement_tol: float = 1e-9
    change_tol: float = 1e-10


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
    """Descent on the regularized energy with steps gamma_n from ``schedule``.

    Each regular vertex moves by gamma_n times the negative objective
    subgradient plus lam times the sum of neighbor disagreement signs
    (sign(0) = 0); sign terms are antisymmetric per edge, so the network
    average is preserved whenever the objective subgradients sum to zero.
    """

    name = "subgradient"

    def __init__(self, lam: float, schedule: Callable[[int], float] | None = None):
        self.lam = float(lam)
        self.schedule = schedule if schedule is not None else harmonic_schedule()

    def start(self, g: Graph, objs: Quadratic | Absolute) -> None:
        """Validate lam, fix the run's constants and reset the round counter."""
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be nonnegative and finite")
        self.n = 0
        self._objs = objs
        self._table, _ = _talker_table(g)
        self._src, self._dst, self._n_vertices = g.edge_src, g.edge_dst, g.n_vertices

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: return x(n + 1) as a new array."""
        gamma = self.schedule(self.n)
        if self._table is not None:
            # Sums of small integers are exact in any order.
            sign_sum = np.add.reduce(np.sign(x[self._table] - x), axis=0, initial=0.0)
        else:
            s = np.sign(x[self._dst] - x[self._src])
            n = self._n_vertices
            sign_sum = np.bincount(self._src, weights=s, minlength=n) - np.bincount(
                self._dst, weights=s, minlength=n
            )
        x_next = x + gamma * (self.lam * sign_sum - self._objs.subgradient(x))
        self.n += 1
        return x_next


class AdmmEngine:
    """ADMM rounds: project the multipliers, then apply the proximal map.

    ``mu`` holds one private scalar per directed neighbor pair (w, v), owned
    by v and never transmitted; ``mu_mean`` caches its per-owner average so
    the next round can form the 3/2, -1/2 extrapolation without recomputing.

    mu(w, v) absorbs the observed disagreement x(w) - x(v), clipped to
    [-2 lam / rho, 2 lam / rho]; the x update applies prox with weight
    rho * degree(v) to x(v) + new_mean - 1/2 old_mean.  Only the x values
    cross the network.

    On a regular graph the multipliers form a (d, n) array beside the talker
    table (module docstring) and a round updates every pair.  Otherwise the
    pairs of an edge hold exact negatives of one another, so a round updates
    the multiplier once per edge and negates it for the reverse pair.

    The extrapolation coefficients (1, -1/2) come from eliminating the
    auxiliary edge variables of the underlying splitting: the scaled dual
    mean enters once through the edge average and once more halved through
    the dual term, and at a fixed point rho/2 times each multiplier is an
    edge dual variable bounded by lam, matching the optimality system of
    the TV-regularized energy.
    """

    name = "admm"

    def __init__(self, lam: float, rho: float = 1.0):
        self.lam = float(lam)
        self.rho = float(rho)

    def start(self, g: Graph, objs: Quadratic | Absolute) -> None:
        """Validate rho, lam and the graph, fix the run's constants, zero the multipliers."""
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be nonnegative and finite")
        if int(g.degrees.min()) < 1:
            raise UnsupportedGraphError("ADMM needs every vertex to have a neighbor")
        self._objs = objs
        # Each edge {v, w} yields the directed pairs (talker, owner) = (v, w) and (w, v).
        self._src, self._dst, self._m = g.edge_src, g.edge_dst, g.n_edges
        self._owner = np.concatenate([g.edge_dst, g.edge_src])
        self._n_vertices = g.n_vertices
        self._deg = g.degrees.astype(float)
        self._rho_deg = self.rho * self._deg
        self._bound = 2.0 * self.lam / self.rho
        self._table, self._rank = _talker_table(g)
        self._mu = np.zeros(2 * g.n_edges if self._table is None else self._table.shape)
        self.mu_mean = np.zeros(g.n_vertices, dtype=float)

    @property
    def mu(self) -> np.ndarray:
        """The multiplier of every directed pair: (src, dst) pairs, then (dst, src)."""
        return self._mu if self._table is None else self._mu.T.ravel()[self._rank]

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: update ``mu`` and ``mu_mean``, return x(n + 1) as a new array."""
        b = self._bound  # max/min is np.clip without its per-call overhead
        if self._table is not None:
            mu = x[self._table]  # updated in place: the gather is the one new array
            mu -= x
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
            total = np.bincount(self._owner, weights=mu, minlength=self._n_vertices)
        mu_mean = total / self._deg
        target = x + mu_mean - 0.5 * self.mu_mean
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
    roles: AgentRoles,
    stop: StopRule = StopRule(),
    record_every: int = 1,
    metric_lambda: float | None = None,
) -> Trajectory:
    """Iterate an engine and record metrics until the stop rule fires.

    x(0) is x0 with the stubborn entries set to their pinned values, and every
    state the engine returns gets them again, so no engine handles the roles.
    The recorded objective is F(x) + metric_lambda * tv(x); metric_lambda
    defaults to the engine's own regularization level, and a level outside
    [0, inf) raises ``ValueError`` before the first step.  Iteration 0 carries
    the initial metrics with zero change; the final iteration is always
    recorded.  A state that overflows or turns NaN raises ``DomainError``.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    lam_metric = engine.lam if metric_lambda is None else float(metric_lambda)

    if roles.n_vertices != g.n_vertices:
        raise InvalidFieldError(f"roles for {roles.n_vertices} vertices, graph has {g.n_vertices}")
    x = check_node_field(g, x0).copy()
    pin_ids = np.array(roles.stubborn_ids, dtype=int)
    pin_values = np.array(roles.pinned_values, dtype=float)
    pinned = pin_ids.size > 0
    if pinned:
        x[pin_ids] = pin_values
        check_node_field(g, x)  # the pinned values must be finite too
    engine.start(g, objs)
    if not 0.0 <= lam_metric < math.inf:
        raise ValueError(f"metric_lambda must be nonnegative and finite, got {lam_metric}")

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
        objective_values.append(objs.value(x_now) + lam_metric * float(_total_variation(g, x_now)))
        changes.append(change)

    # Change and disagreement are >= 0, so a tolerance <= 0 is never met.
    can_settle = stop.change_tol > 0.0 and stop.disagreement_tol > 0.0
    converged = False
    k = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            record(0, x, 0.0)
            while k < stop.max_iterations:
                k += 1
                x_new = engine.step(x)
                if pinned:
                    x_new[pin_ids] = pin_values
                due = k % record_every == 0 or k == stop.max_iterations
                if due or can_settle:
                    change = float(np.abs(x_new - x).max())
                    converged = (
                        change < stop.change_tol
                        and disagreement(x_new) < stop.disagreement_tol
                    )
                    if due or converged:
                        record(k, x_new, change)
                x = x_new
                if converged:
                    break
    except FloatingPointError as exc:
        raise DomainError(
            f"{engine.name} engine: the state left the finite range at step {k} ({exc})"
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
