"""Synchronous consensus engines: subgradient descent, ADMM, and linear gossip.

Every engine advances a full round at a time: the update of each vertex reads
only round-n values of its neighbors, so per-vertex updates inside a round
are independent.  Pinned (stubborn) agents keep their initial value at every
round regardless of the engine.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError, InvalidFieldError, UnsupportedGraphError
from .graph import Graph, check_node_field
from .objectives import Absolute, Quadratic
from .tv import tv_norm


@dataclass(frozen=True)
class AgentRoles:
    """Partition of the vertices into regular and stubborn agents.

    Stubborn agents hold ``pinned_values`` forever; engines overwrite their
    state with these values after every round.
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

    def stubborn_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[list(self.stubborn_ids)] = True
        return mask

    def pin(self, x: np.ndarray) -> np.ndarray:
        """Return x with stubborn entries reset to their pinned values."""
        if not self.stubborn_ids:
            return x
        x = x.copy()
        x[list(self.stubborn_ids)] = self.pinned_values
        return x

    def apply_to(self, x0: np.ndarray) -> np.ndarray:
        """Initial state consistent with the pinning."""
        return self.pin(np.asarray(x0, dtype=float).copy())


def disagreement(x) -> float:
    """Euclidean norm of the component of x orthogonal to consensus."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - x.mean()))


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


@dataclass(frozen=True)
class GossipMatrix:
    """Row-stochastic update matrix with identity rows at stubborn vertices."""

    matrix: np.ndarray
    stubborn_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        w = np.asarray(self.matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise AssumptionError("gossip matrix must be square")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise AssumptionError("gossip matrix entries must lie in [0, 1]")
        if not np.allclose(w.sum(axis=1), 1.0, atol=1e-12):
            raise AssumptionError("gossip matrix rows must sum to 1")
        n = w.shape[0]
        stubborn = tuple(sorted(int(v) for v in self.stubborn_ids))
        for v in stubborn:
            if not 0 <= v < n:
                raise AssumptionError(f"stubborn vertex {v} out of range")
            row = np.zeros(n)
            row[v] = 1.0
            if not np.array_equal(w[v], row):
                raise AssumptionError(f"stubborn row {v} must be the identity row")
        object.__setattr__(self, "matrix", w)
        object.__setattr__(self, "stubborn_ids", stubborn)

    @property
    def n_vertices(self) -> int:
        return self.matrix.shape[0]

    def every_regular_reaches_stubborn(self) -> bool:
        """Directed-path condition from each regular vertex to some stubborn one."""
        if not self.stubborn_ids:
            return False
        support = self.matrix > 0.0
        reached = np.zeros(self.n_vertices, dtype=bool)
        reached[list(self.stubborn_ids)] = True
        # Reverse reachability along positive entries (v sees w when W[v, w] > 0).
        changed = True
        while changed:
            newly = support[:, reached].any(axis=1) & ~reached
            changed = bool(newly.any())
            reached |= newly
        return bool(reached.all())


def uniform_gossip_matrix(g: Graph, roles: AgentRoles) -> GossipMatrix:
    """Neighborhood averaging with weight 1 / (degree + 1), self included."""
    share = 1.0 / (g.degrees + 1.0)
    w = np.diag(share)
    w[g.edge_src, g.edge_dst] = share[g.edge_src]
    w[g.edge_dst, g.edge_src] = share[g.edge_dst]
    stubborn = list(roles.stubborn_ids)
    w[stubborn] = 0.0
    w[stubborn, stubborn] = 1.0
    return GossipMatrix(matrix=w, stubborn_ids=roles.stubborn_ids)


def gossip_step(w: GossipMatrix, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != w.n_vertices:
        raise InvalidFieldError("field length does not match the gossip matrix")
    return w.matrix @ x


def gossip_limit(w: GossipMatrix, x_stubborn) -> np.ndarray:
    """Fixed point of the regular block: solve (I - W_RR) y = W_RS x_S.

    The limit of repeated gossip exists whenever every regular vertex has a
    directed path to a stubborn one; it does not depend on the regular
    agents' initial values.  Returns the values on regular vertices in
    ascending vertex order.
    """
    if not w.stubborn_ids:
        raise AssumptionError("gossip limit needs at least one stubborn vertex")
    x_stubborn = np.asarray(x_stubborn, dtype=float)
    if x_stubborn.shape[0] != len(w.stubborn_ids):
        raise InvalidFieldError("need one value per stubborn vertex")
    if not w.every_regular_reaches_stubborn():
        raise AssumptionError(
            "some regular vertex has no directed path to a stubborn vertex"
        )
    stubborn = list(w.stubborn_ids)
    regular = np.delete(np.arange(w.n_vertices), stubborn)
    w_rr = w.matrix[np.ix_(regular, regular)]
    w_rs = w.matrix[np.ix_(regular, stubborn)]
    eye = np.eye(len(regular))
    return np.linalg.solve(eye - w_rr, w_rs @ x_stubborn)


# ---------------------------------------------------------------------------
# Engines and the trajectory driver
# ---------------------------------------------------------------------------


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


def _pinned_start(g: Graph, x0, roles: AgentRoles) -> tuple[np.ndarray, ...]:
    """Validated x(0) with the stubborn entries pinned, and the stubborn ids and values."""
    if roles.n_vertices != g.n_vertices:
        raise InvalidFieldError(f"roles for {roles.n_vertices} vertices, graph has {g.n_vertices}")
    x = check_node_field(g, roles.apply_to(check_node_field(g, x0)))
    return x, np.array(roles.stubborn_ids, dtype=int), np.array(roles.pinned_values)


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

    def start(self, g: Graph, x0, objs: Quadratic | Absolute, roles: AgentRoles) -> np.ndarray:
        """Validate the run, fix its constants, reset the round counter; return x(0)."""
        x, self._pin_ids, self._pin_values = _pinned_start(g, x0, roles)
        self.n = 0
        self._objs = objs
        self._src, self._dst, self._n_vertices = g.edge_src, g.edge_dst, g.n_vertices
        return x

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: return x(n + 1) as a new array."""
        gamma = self.schedule(self.n)
        s = np.sign(x[self._dst] - x[self._src])
        n = self._n_vertices
        sign_sum = np.bincount(self._src, weights=s, minlength=n) - np.bincount(
            self._dst, weights=s, minlength=n
        )
        x_next = x + gamma * (self.lam * sign_sum - self._objs.subgradient(x))
        if self._pin_ids.size:
            x_next[self._pin_ids] = self._pin_values
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

    def start(self, g: Graph, x0, objs: Quadratic | Absolute, roles: AgentRoles) -> np.ndarray:
        """Validate the run, fix its constants, zero the multipliers; return x(0)."""
        x, self._pin_ids, self._pin_values = _pinned_start(g, x0, roles)
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        if int(g.degrees.min()) < 1:
            raise UnsupportedGraphError("ADMM needs every vertex to have a neighbor")
        self._objs = objs
        # Each edge {v, w} yields the directed pairs (talker, owner) = (v, w) and (w, v).
        self._talker = np.concatenate([g.edge_src, g.edge_dst])
        self._owner = np.concatenate([g.edge_dst, g.edge_src])
        self._n_vertices = g.n_vertices
        self._deg = g.degrees.astype(float)
        self._rho_deg = self.rho * self._deg
        self._bound = 2.0 * self.lam / self.rho
        self.mu = np.zeros(2 * g.n_edges, dtype=float)
        self.mu_mean = np.zeros(g.n_vertices, dtype=float)
        return x

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: update ``mu`` and ``mu_mean``, return x(n + 1) as a new array."""
        # Parenthesized difference keeps the two orientations of each edge exact
        # negations of one another, so the multipliers stay antisymmetric bitwise.
        mu = np.clip(self.mu + (x[self._talker] - x[self._owner]), -self._bound, self._bound)
        mu_mean = np.bincount(self._owner, weights=mu, minlength=self._n_vertices) / self._deg
        target = x + mu_mean - 0.5 * self.mu_mean
        x_next = self._objs.prox(self._rho_deg, target)
        if self._pin_ids.size:
            x_next[self._pin_ids] = self._pin_values
        self.mu, self.mu_mean = mu, mu_mean
        return x_next


class GossipEngine:
    """Repeated multiplication by a row-stochastic gossip matrix."""

    name = "gossip"

    def __init__(self, matrix: GossipMatrix):
        self.matrix = matrix
        self.lam = 0.0

    def start(self, g: Graph, x0, objs: Quadratic | Absolute, roles: AgentRoles) -> np.ndarray:
        """Validate the run and fix the pinned entries; return x(0)."""
        x, self._pin_ids, self._pin_values = _pinned_start(g, x0, roles)
        if self.matrix.n_vertices != g.n_vertices:
            raise InvalidFieldError("gossip matrix does not match the graph")
        return x

    def step(self, x: np.ndarray) -> np.ndarray:
        """One round: return W x, pinned, as a new array."""
        x_next = self.matrix.matrix @ x
        if self._pin_ids.size:
            x_next[self._pin_ids] = self._pin_values
        return x_next


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

    The recorded objective is F(x) + metric_lambda * tv(x) (defaulting to the
    engine's own regularization level).  Iteration 0 carries the initial
    metrics with zero change; the final iteration is always recorded.  A state
    that overflows or turns NaN raises ``DomainError``.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    lam_metric = engine.lam if metric_lambda is None else float(metric_lambda)

    x = engine.start(g, x0, objs, roles)

    its: list[int] = []
    dis: list[float] = []
    means: list[float] = []
    objective_values: list[float] = []
    changes: list[float] = []

    def record(k: int, x_now: np.ndarray, change: float) -> None:
        its.append(k)
        dis.append(disagreement(x_now))
        means.append(float(x_now.mean()))
        objective_values.append(objs.value(x_now) + lam_metric * tv_norm(g, x_now))
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
