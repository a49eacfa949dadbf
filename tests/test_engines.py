from dataclasses import fields

import numpy as np
import pytest

from tvconsensus import (
    Absolute,
    AdmmEngine,
    AgentRoles,
    AssumptionError,
    GossipEngine,
    Graph,
    InvalidFieldError,
    Quadratic,
    StopRule,
    SubgradientEngine,
    Trajectory,
    UnsupportedGraphError,
    ac_critical_lambda,
    complete_graph,
    cycle_graph,
    disagreement,
    erdos_renyi,
    gossip_limit,
    harmonic_schedule,
    run,
    tv_norm,
    uniform_gossip_matrix,
)
from tvconsensus.engines import _talker_table

from conftest import random_connected_graph
from reference_objectives import AnchoredQuadratic

INF = float("inf")
# A stop-rule tolerance that can never be met.
NEVER = -1.0

# K_N, C_n and the (3-regular, not complete) Petersen graph take the talker table;
# a random connected graph and the star keep the per-edge path.  K12's 11 rows are
# enough for numpy's pairwise summation to take another order than bincount's.
PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, 5 + i) for i in range(5)])
CONTRACT_GRAPHS = {
    "er": lambda rng: random_connected_graph(rng, n_max=40, p=0.3),
    "k6": lambda rng: complete_graph(6),
    "k12": lambda rng: complete_graph(12),
    "c9": lambda rng: cycle_graph(9),
    "petersen": lambda rng: PETERSEN,
    "star": lambda rng: Graph(9, [(0, v) for v in range(1, 9)]),
}
REGULAR = {"k6", "k12", "c9", "petersen"}
# (graph, kind) cases; the random graph keeps its original test ids.
GRAPH_KINDS = [
    pytest.param(graph, kind, id=kind if graph == "er" else f"{graph}-{kind}")
    for graph in CONTRACT_GRAPHS for kind in ("quadratic", "absolute")
]


def contract_graph(name, rng):
    g = CONTRACT_GRAPHS[name](rng)
    assert (_talker_table(g)[0] is not None) == (name in REGULAR)
    return g


def tied_data(rng, n):
    """Whole numbers, so neighbours tie exactly, with a +0.0 and a -0.0 entry."""
    x = np.round(rng.normal(scale=2.0, size=n))
    x[0], x[-1] = 0.0, -0.0
    return x


def with_pins(x, roles):
    """A copy of x with the stubborn entries set to their pinned values."""
    x = np.array(x, dtype=float)
    x[list(roles.stubborn_ids)] = roles.pinned_values
    return x


def reference_subgradient_step(g, x, n, objs, lam, schedule):
    """Round n of subgradient descent, recomputing every constant from g."""
    gamma = schedule(n)
    s = np.sign(x[g.edge_dst] - x[g.edge_src])
    nv = g.n_vertices
    sign_sum = np.bincount(g.edge_src, weights=s, minlength=nv) - np.bincount(
        g.edge_dst, weights=s, minlength=nv
    )
    descent = -objs.subgradient(x)
    return x + gamma * (descent + lam * sign_sum)


class ReferenceSubgradientEngine:
    """Engine shape around ``reference_subgradient_step``, for ``run`` and ``reference_run``."""

    name = "subgradient"

    def __init__(self, lam):
        self.lam = float(lam)
        self.schedule = harmonic_schedule()

    def start(self, g, objs):
        self.g, self.objs, self.n = g, objs, 0

    def step(self, x):
        x_next = reference_subgradient_step(self.g, x, self.n, self.objs, self.lam, self.schedule)
        self.n += 1
        return x_next


class Spy:
    """Wraps an engine for ``run``: keeps every state handed to ``step``, checks
    that ``step`` leaves it unchanged, and keeps ``watch(engine)`` after each step."""

    def __init__(self, engine, watch=None):
        self.engine, self.name, self.lam = engine, engine.name, engine.lam
        self.watch = watch
        self.states, self.watched = [], []

    def start(self, g, objs):
        self.engine.start(g, objs)

    def step(self, x):
        before = x.copy()
        x_next = self.engine.step(x)
        assert np.array_equal(x, before)
        self.states.append(before)
        if self.watch is not None:
            self.watched.append(self.watch(self.engine))
        return x_next


def run_states(spy, g, x0, objs, roles, steps):
    """x(0), ..., x(steps) as ``run`` produces them, pins written."""
    traj = run(spy, g, x0, objs, roles, stop=StopRule(steps, NEVER, NEVER))
    return spy.states + [traj.final_x]


def admm_multipliers(engine):
    return engine.mu.copy(), engine.mu_mean.copy()


def reference_run(engine, g, x0, objs, roles, stop=StopRule(), record_every=1,
                  metric_lambda=None):
    """The eager `run` loop: the max change after every step, recorded or not."""
    lam_metric = engine.lam if metric_lambda is None else float(metric_lambda)
    x = with_pins(x0, roles)
    engine.start(g, objs)
    its, dis, means, objective_values, changes = [], [], [], [], []

    def record(k, x_now, change):
        its.append(k)
        dis.append(disagreement(x_now))
        means.append(float(x_now.mean()))
        objective_values.append(objs.value(x_now) + lam_metric * tv_norm(g, x_now))
        changes.append(change)

    record(0, x, 0.0)
    converged = False
    k = 0
    while k < stop.max_iterations:
        x_new = with_pins(engine.step(x), roles)
        change = float(np.max(np.abs(x_new - x))) if x_new.size else 0.0
        k += 1
        settled = (
            change < stop.change_tol and disagreement(x_new) < stop.disagreement_tol
        )
        if k % record_every == 0 or settled or k == stop.max_iterations:
            record(k, x_new, change)
        x = x_new
        if settled:
            converged = True
            break
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


def assert_same_trajectory(traj, ref):
    for f in fields(Trajectory):
        assert np.array_equal(getattr(traj, f.name), getattr(ref, f.name)), f.name


def reference_admm_step(g, x, mu, mu_mean, objs, rho, lam, roles):
    """One ADMM round from (x, mu, mu_mean), recomputing every constant from g;
    the new x has the pins written, as ``run`` writes them."""
    talker = np.concatenate([g.edge_src, g.edge_dst])
    owner = np.concatenate([g.edge_dst, g.edge_src])
    bound = 2.0 * lam / rho
    mu_next = np.clip(mu + (x[talker] - x[owner]), -bound, bound)
    deg = g.degrees.astype(float)
    mu_mean_next = np.bincount(owner, weights=mu_next, minlength=g.n_vertices) / deg
    target = x + mu_mean_next - 0.5 * mu_mean
    x_next = objs.prox(rho * deg, target)
    return with_pins(x_next, roles), mu_next, mu_mean_next


def reference_uniform_gossip_matrix(g, roles):
    """The original double loop: weight 1 / (degree + 1) on v and each neighbor."""
    n = g.n_vertices
    w = np.zeros((n, n), dtype=float)
    for v in range(n):
        share = 1.0 / (int(g.degrees[v]) + 1.0)
        w[v, v] = share
        for nb in g.neighbors(v):
            w[v, nb] = share
    for v in roles.stubborn_ids:
        w[v] = 0.0
        w[v, v] = 1.0
    return w


class ReferenceGossipEngine:
    """Multiplication by ``reference_uniform_gossip_matrix``, identity rows at the pins."""

    name, lam = "gossip", 0.0

    def __init__(self, roles):
        self.roles = roles

    def start(self, g, objs):
        self.w = reference_uniform_gossip_matrix(g, self.roles)

    def step(self, x):
        return self.w @ x


class TestAgentRoles:
    def test_sorting_and_lookup(self):
        roles = AgentRoles(5, stubborn_ids=(3, 1), pinned_values=(0.3, 0.1))
        assert roles.stubborn_ids == (1, 3)
        assert roles.pinned_values == (0.1, 0.3)
        assert roles.regular_ids == (0, 2, 4)

    def test_pin(self):
        g = complete_graph(3)
        roles = AgentRoles.from_pinned(3, {0: 9.0})
        x0 = np.array([1.0, 2.0, 3.0])
        traj = run(GossipEngine(), g, x0, Quadratic(g, x0), roles,
                   stop=StopRule(max_iterations=0))
        assert traj.final_x.tolist() == [9.0, 2.0, 3.0]
        assert x0.tolist() == [1.0, 2.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentRoles(3, stubborn_ids=(0, 0), pinned_values=(1.0, 1.0))
        with pytest.raises(ValueError):
            AgentRoles(3, stubborn_ids=(5,), pinned_values=(1.0,))


class TestEngineContract:
    STEPS = 500

    @staticmethod
    def scenario(graph, kind, pinned):
        rng = np.random.default_rng(2024)
        g = contract_graph(graph, rng)
        n = g.n_vertices
        x0 = tied_data(rng, n)
        roles = AgentRoles.from_pinned(n, {1: 2.5}) if pinned else AgentRoles.none(n)
        objective = Quadratic if kind == "quadratic" else Absolute
        return g, x0, objective(g, x0), roles

    @pytest.mark.parametrize("graph, kind", GRAPH_KINDS)
    @pytest.mark.parametrize("pinned", [False, True])
    def test_subgradient_matches_reference_bitwise(self, graph, kind, pinned):
        g, x0, objs, roles = self.scenario(graph, kind, pinned)
        engine = SubgradientEngine(0.3)
        states = run_states(Spy(engine), g, x0, objs, roles, self.STEPS)
        ref = with_pins(x0, roles)
        for n, x in enumerate(states):
            assert x.tobytes() == ref.tobytes()
            step = reference_subgradient_step(g, ref, n, objs, 0.3, harmonic_schedule())
            ref = with_pins(step, roles)
        assert engine.n == self.STEPS

    @pytest.mark.parametrize("graph, kind", GRAPH_KINDS)
    @pytest.mark.parametrize("pinned", [False, True])
    def test_admm_matches_reference_bitwise(self, graph, kind, pinned):
        g, x0, objs, roles = self.scenario(graph, kind, pinned)
        rho, lam = 1.3, 2.0
        spy = Spy(AdmmEngine(lam, rho), watch=admm_multipliers)
        states = run_states(spy, g, x0, objs, roles, self.STEPS)
        ref = with_pins(x0, roles)
        assert states[0].tobytes() == ref.tobytes()
        mu, mu_mean = np.zeros(2 * g.n_edges), np.zeros(g.n_vertices)
        for x, (engine_mu, engine_mu_mean) in zip(states[1:], spy.watched, strict=True):
            ref, mu, mu_mean = reference_admm_step(g, ref, mu, mu_mean, objs, rho, lam, roles)
            assert x.tobytes() == ref.tobytes()
            assert engine_mu_mean.tobytes() == mu_mean.tobytes()
            assert np.array_equal(engine_mu, mu)

    @pytest.mark.parametrize("engine", [SubgradientEngine, AdmmEngine])
    @pytest.mark.parametrize("lam", [-1.0, -5e-324, INF, float("nan")])
    def test_start_rejects_lambda_outside_zero_to_infinity(self, engine, lam):
        g = complete_graph(3)
        objs = Quadratic(g, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            engine(lam).start(g, objs)

    def test_admm_start_validation(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        objs = Quadratic(g, x0)
        for rho in (0.0, -1.0):
            with pytest.raises(ValueError):
                AdmmEngine(0.5, rho).start(g, objs)
        with pytest.raises(ValueError):
            AdmmEngine(-0.1, 1.0).start(g, objs)
        isolated = Graph(3, [(0, 1)])
        with pytest.raises(UnsupportedGraphError):
            AdmmEngine(0.5, 1.0).start(isolated, Quadratic(isolated, x0))

    def test_start_rejects_mismatched_sizes(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        objs = Quadratic(g, x0)
        roles = AgentRoles.none(3)
        engines = (
            SubgradientEngine(0.5),
            AdmmEngine(0.5, 1.0),
            GossipEngine(),
        )
        for engine in engines:
            with pytest.raises(InvalidFieldError):
                run(engine, g, x0[:2], objs, roles, stop=StopRule(max_iterations=1))

    def test_start_rejects_roles_of_another_size(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        objs = Quadratic(g, x0)
        engines = (
            SubgradientEngine(0.5),
            AdmmEngine(0.3),
            GossipEngine(),
        )
        for roles in (AgentRoles.from_pinned(5, {4: 1.0}), AgentRoles.none(7)):
            for engine in engines:
                with pytest.raises(InvalidFieldError, match="roles"):
                    run(engine, g, x0, objs, roles, stop=StopRule(max_iterations=1))

    def test_start_rejects_nonfinite_pinned_value(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        roles = AgentRoles.from_pinned(3, {0: float("nan")})
        for engine in (SubgradientEngine(0.5), AdmmEngine(0.5, 1.0)):
            with pytest.raises(InvalidFieldError):
                run(engine, g, x0, Quadratic(g, x0), roles, stop=StopRule(max_iterations=1))

    def test_rerun_with_the_same_engine_is_identical(self, rng):
        g = complete_graph(5)
        other = cycle_graph(7)
        x0 = rng.normal(size=5)
        roles = AgentRoles.from_pinned(5, {0: 1.0})
        objs = Quadratic(g, with_pins(x0, roles))
        other_x0 = rng.normal(size=7)
        stop = StopRule(max_iterations=40, disagreement_tol=-1.0, change_tol=-1.0)
        engines = (
            SubgradientEngine(0.3),
            AdmmEngine(0.3, 1.0),
            GossipEngine(),
        )
        for engine in engines:
            first = run(engine, g, x0, objs, roles, stop=stop, metric_lambda=0.3)
            run(engine, other, other_x0, Quadratic(other, other_x0), AgentRoles.none(7), stop=stop)
            second = run(engine, g, x0, objs, roles, stop=stop, metric_lambda=0.3)
            for name in ("iterations", "disagreement", "mean", "objective", "max_change",
                         "final_x"):
                assert np.array_equal(getattr(first, name), getattr(second, name))
            assert (first.converged, first.n_steps) == (second.converged, second.n_steps)


class TestSubgradientStep:
    def test_fixed_point_at_shared_minimum(self):
        g = complete_graph(4)
        x = 2.0 * np.ones(4)
        objs = Quadratic(g, x)
        engine = SubgradientEngine(0.7)
        engine.start(g, objs)
        new = engine.step(x)
        assert np.array_equal(new, x)
        assert engine.n == 1

    def test_explicit_single_edge_update(self):
        g = Graph(2, [(0, 1)])
        x0 = np.array([0.0, 2.0])
        objs = Quadratic(g, x0)
        engine = SubgradientEngine(1.0, schedule=lambda n: 0.1)
        engine.start(g, objs)
        new = engine.step(x0)
        assert np.allclose(new, [0.1, 1.9], atol=1e-15)

    def test_sign_zero_at_equal_values(self):
        g = Graph(2, [(0, 1)])
        x = np.array([1.0, 1.0])
        objs = Quadratic(g, np.array([0.0, 2.0]))
        engine = SubgradientEngine(10.0, schedule=lambda n: 0.5)
        engine.start(g, objs)
        new = engine.step(x)
        # only the objective pull acts; the edge term vanishes at equality
        assert np.allclose(new, [1.0 + 0.5 * (0.0 - 1.0), 1.0 + 0.5 * (2.0 - 1.0)])

    def test_average_preserved_in_quadratic_case(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng)
            x0 = rng.normal(size=g.n_vertices)
            objs = Quadratic(g, x0)
            engine = SubgradientEngine(0.4)
            engine.start(g, objs)
            x = x0
            for _ in range(200):
                x = engine.step(x)
                assert abs(x.mean() - x0.mean()) <= 1e-12

    def test_stubborn_pinned_exactly(self, rng):
        g = complete_graph(5)
        x0 = rng.normal(size=5)
        roles = AgentRoles.from_pinned(5, {2: x0[2]})
        objs = Quadratic(g, x0)
        for x in run_states(Spy(SubgradientEngine(1.0)), g, x0, objs, roles, 50):
            assert x[2] == x0[2]


class TestAdmmStep:
    def test_lambda_zero_collapses_to_private_minima(self):
        g = complete_graph(4)
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        objs = Quadratic(g, x0)
        engine = AdmmEngine(0.0, 1.0)
        engine.start(g, objs)
        x = np.zeros(4)
        for _ in range(600):
            x = engine.step(x)
            assert np.all(engine.mu == 0.0)
        assert np.allclose(x, x0, atol=1e-10)

    def test_quadratic_case_matches_closed_form_update(self, rng):
        g = cycle_graph(5)
        x0 = rng.normal(size=5)
        objs = Quadratic(g, x0)
        engine = AdmmEngine(0.4, 1.3)
        engine.start(g, objs)
        x = x0
        for _ in range(5):
            prev_x, prev_mu, prev_mu_mean = x, engine.mu, engine.mu_mean
            x = engine.step(x)
        # reproduce the last x update by hand from the previous round
        talker = np.concatenate([g.edge_src, g.edge_dst])
        owner = np.concatenate([g.edge_dst, g.edge_src])
        bound = 2 * engine.lam / engine.rho
        mu_next = np.clip(prev_mu + prev_x[talker] - prev_x[owner], -bound, bound)
        mu_mean_next = np.bincount(owner, weights=mu_next, minlength=5) / g.degrees
        target = prev_x + mu_mean_next - 0.5 * prev_mu_mean
        rho_d = engine.rho * g.degrees
        expected = (x0 + rho_d * target) / (1.0 + rho_d)
        assert np.allclose(x, expected, atol=1e-14)

    def test_multiplier_bound_enforced(self, rng):
        g = random_connected_graph(rng)
        x0 = rng.normal(scale=5.0, size=g.n_vertices)
        objs = Quadratic(g, x0)
        rho, lam = 0.8, 0.25
        engine = AdmmEngine(lam, rho)
        engine.start(g, objs)
        x = x0
        for _ in range(50):
            x = engine.step(x)
            assert np.all(np.abs(engine.mu) <= 2 * lam / rho + 1e-15)

    def test_average_preserved_on_regular_graphs(self, rng):
        for g in (complete_graph(6), cycle_graph(7)):
            x0 = rng.normal(size=g.n_vertices)
            objs = Quadratic(g, x0)
            engine = AdmmEngine(0.3, 1.0)
            engine.start(g, objs)
            x = x0
            for _ in range(300):
                x = engine.step(x)
                assert abs(x.mean() - x0.mean()) <= 1e-12

    def test_multiplier_antisymmetry(self, rng):
        g = random_connected_graph(rng)
        m = g.n_edges
        x0 = rng.normal(size=g.n_vertices)
        objs = Quadratic(g, x0)
        engine = AdmmEngine(0.5, 1.0)
        engine.start(g, objs)
        x = x0
        for _ in range(20):
            x = engine.step(x)
            assert np.array_equal(engine.mu[:m], -engine.mu[m:])

    def test_stubborn_pinned_exactly(self, rng):
        g = complete_graph(5)
        x0 = rng.normal(size=5)
        roles = AgentRoles.from_pinned(5, {0: 7.5})
        x_init = x0.copy()
        x_init[0] = 7.5
        objs = Quadratic(g, x_init)
        for x in run_states(Spy(AdmmEngine(0.2, 1.0)), g, x_init, objs, roles, 100):
            assert x[0] == 7.5

    def test_fixed_point_residuals_decay_at_certified_minimizer(self, rng):
        # Start from a certified consensus minimizer; the engine must stay put.
        from tvconsensus import ac_critical_lambda

        g = complete_graph(6)
        x0 = rng.normal(size=6)
        lam = 1.5 * ac_critical_lambda(g, x0)
        objs = Quadratic(g, x0)
        engine = AdmmEngine(lam, 1.0)
        engine.start(g, objs)
        x = np.full(6, x0.mean())
        for _ in range(3000):
            prev_x, prev_mu = x, engine.mu
            x = engine.step(x)
        assert np.max(np.abs(x - prev_x)) < 1e-8
        assert np.max(np.abs(engine.mu - prev_mu)) < 1e-8
        assert np.allclose(x, x0.mean(), atol=1e-6)

    @staticmethod
    def flipped(g, rng):
        """The same graph with a random half of its edges oriented high to low."""
        edges = np.column_stack([g.edge_src, g.edge_dst])
        flip = rng.random(g.n_edges) < 0.5
        edges[flip] = edges[flip, ::-1]
        return Graph(g.n_vertices, edges, oriented_edges=edges)

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("graph", list(CONTRACT_GRAPHS))
    def test_flipped_orientation_matches_reference_bitwise(self, graph, pinned, kind):
        rng = np.random.default_rng(77)
        base = contract_graph(graph, rng)
        g = self.flipped(base, rng)
        assert any(v > w for v, w in g.oriented_edges)
        n, m = g.n_vertices, g.n_edges
        x0 = tied_data(rng, n)
        roles = AgentRoles.from_pinned(n, {2: 1.5}) if pinned else AgentRoles.none(n)
        objs = kind(g, x0)
        rho, lam = 1.3, 0.3
        spy = Spy(AdmmEngine(lam, rho), watch=admm_multipliers)
        states = run_states(spy, g, x0, objs, roles, 500)
        ref, mu, mu_mean = with_pins(x0, roles), np.zeros(2 * m), np.zeros(n)
        for x, (engine_mu, engine_mu_mean) in zip(states[1:], spy.watched, strict=True):
            ref, mu, mu_mean = reference_admm_step(g, ref, mu, mu_mean, objs, rho, lam, roles)
            assert x.tobytes() == ref.tobytes()
            assert engine_mu_mean.tobytes() == mu_mean.tobytes()
            # Equal as numbers: the reverse pairs may hold -0.0 where the reference holds 0.0.
            assert np.array_equal(engine_mu, mu)
            assert np.array_equal(engine_mu[:m], -engine_mu[m:])


class TestEngineAgreement:
    def test_limits_agree_without_stubborn(self, rng):
        for _ in range(3):
            g = random_connected_graph(rng, n_max=6)
            x0 = rng.normal(size=g.n_vertices)
            from tvconsensus import ac_critical_lambda

            lam = 0.7 * max(ac_critical_lambda(g, x0), 1e-2)
            objs = Quadratic(g, x0)
            roles = AgentRoles.none(g.n_vertices)
            adm = run(
                AdmmEngine(lam, 1.0), g, x0, objs, roles,
                stop=StopRule(200_000, INF, 1e-13), record_every=10**9,
            )
            sub = run(
                SubgradientEngine(lam), g, x0, objs, roles,
                stop=StopRule(100_000, -1.0, -1.0), record_every=10**9,
            )
            assert np.abs(adm.final_x - sub.final_x).max() <= 1e-4

    def test_limits_agree_tightly_above_critical(self):
        # The subgradient iterate hovers within ~gamma_n * lam * degree of its
        # limit, so low-degree instances with modest lam make 1e-5 reachable
        # inside the iteration budget.
        from tvconsensus import ac_critical_lambda, cycle_graph, path_graph

        rng = np.random.default_rng(99)
        for g in (path_graph(4), cycle_graph(5)):
            x0 = rng.uniform(0.0, 1.0, g.n_vertices)
            lam = 1.5 * max(ac_critical_lambda(g, x0), 1e-2)
            objs = Quadratic(g, x0)
            roles = AgentRoles.none(g.n_vertices)
            adm = run(
                AdmmEngine(lam, 1.0), g, x0, objs, roles,
                stop=StopRule(200_000, INF, 1e-13), record_every=10**9,
            )
            sub = run(
                SubgradientEngine(lam), g, x0, objs, roles,
                stop=StopRule(100_000, -1.0, -1.0), record_every=10**9,
            )
            assert np.abs(adm.final_x - sub.final_x).max() <= 1e-5

    def test_stubborn_runs_solve_the_reduced_anchored_problem(self, rng):
        # Full-graph ADMM with pinned agents against the anchored objective
        # on the regular subgraph.
        g = complete_graph(7)
        x0 = rng.uniform(0.0, 1.0, 7)
        stubborn = {5: 2.0, 6: -1.0}
        x_init = x0.copy()
        for v, a in stubborn.items():
            x_init[v] = a
        roles = AgentRoles.from_pinned(7, stubborn)
        lam = 0.15
        objs = Quadratic(g, x_init)
        full = run(
            AdmmEngine(lam, 1.0), g, x_init, objs, roles,
            stop=StopRule(300_000, INF, 1e-13), record_every=10**9,
        )
        regular = list(roles.regular_ids)
        sub_graph, kept = g.induced_subgraph(regular)
        anchored = AnchoredQuadratic(
            x_init[list(kept)],
            [[a for w, a in stubborn.items() if g.has_edge(v, w)] for v in kept],
            lam,
        )
        reduced = run(
            AdmmEngine(lam, 1.0), sub_graph, x_init[regular], anchored,
            AgentRoles.none(len(regular)),
            stop=StopRule(300_000, INF, 1e-13), record_every=10**9,
        )
        assert np.abs(full.final_x[regular] - reduced.final_x).max() <= 1e-4


class TestGossip:
    def test_uniform_matrix_matches_the_loop(self, rng):
        graphs = [random_connected_graph(rng) for _ in range(5)]
        graphs += [complete_graph(7), cycle_graph(8), Graph(5, [(0, 1), (3, 1)])]
        for g in graphs:
            reference = reference_uniform_gossip_matrix(g, AgentRoles.none(g.n_vertices))
            assert np.array_equal(uniform_gossip_matrix(g), reference)

    def test_uniform_complete_graph_averages_in_one_step(self, rng):
        g = complete_graph(6)
        x = rng.normal(size=6)
        assert np.allclose(uniform_gossip_matrix(g) @ x, x.mean(), atol=1e-12)

    @pytest.mark.parametrize("case", ["k100_one_pin", "er400_two_pins"])
    def test_engine_matches_the_identity_row_matrix_bitwise(self, case):
        """Writing the pins after a plain averaging step gives the identity-row states."""
        rng = np.random.default_rng(10)
        if case == "k100_one_pin":
            g, pinned = complete_graph(100), {99: 0.53}
        else:
            g = erdos_renyi(400, 10 / 399, 7)
            assert g.is_connected
            pinned = {17: -1.5, 250: 2.25}
        roles = AgentRoles.from_pinned(g.n_vertices, pinned)
        x0 = rng.uniform(size=g.n_vertices)
        reference = reference_uniform_gossip_matrix(g, roles)
        ref = with_pins(x0, roles)
        for x in run_states(Spy(GossipEngine()), g, x0, Quadratic(g, x0), roles, 2_000):
            assert np.array_equal(x, ref)
            ref = with_pins(reference @ ref, roles)

    def test_limit_matches_the_identity_row_solve_bitwise(self, rng):
        for g, pinned in [
            (complete_graph(100), {99: 0.53}),
            (cycle_graph(6), {0: 0.0, 3: 1.0}),
            (random_connected_graph(rng, n_max=30), {0: -2.0, 1: 3.0}),
        ]:
            roles = AgentRoles.from_pinned(g.n_vertices, pinned)
            w = reference_uniform_gossip_matrix(g, roles)
            stubborn, regular = list(roles.stubborn_ids), list(roles.regular_ids)
            expected = np.linalg.solve(
                np.eye(len(regular)) - w[np.ix_(regular, regular)],
                w[np.ix_(regular, stubborn)] @ np.array(roles.pinned_values),
            )
            assert np.array_equal(gossip_limit(g, roles), expected)

    def test_single_stubborn_drives_everyone(self, rng):
        g = random_connected_graph(rng, n_max=10)
        n = g.n_vertices
        roles = AgentRoles.from_pinned(n, {0: 4.5})
        w = uniform_gossip_matrix(g)
        x = rng.normal(size=n)
        x[0] = 4.5
        for _ in range(100_000):
            x_new = with_pins(w @ x, roles)
            if np.abs(x_new - x).max() < 1e-14:
                x = x_new
                break
            x = x_new
        assert np.allclose(x, 4.5, atol=1e-10)
        limit = gossip_limit(g, roles)
        assert np.allclose(limit, 4.5, atol=1e-12)

    def test_two_stubborn_limit_matches_iteration_and_is_nonconstant(self, rng):
        g = cycle_graph(6)
        roles = AgentRoles.from_pinned(6, {0: 0.0, 3: 1.0})
        w = uniform_gossip_matrix(g)
        limit = gossip_limit(g, roles)
        x = rng.normal(size=6)
        x[0], x[3] = 0.0, 1.0
        for _ in range(200_000):
            x = with_pins(w @ x, roles)
        regular = [1, 2, 4, 5]
        assert np.abs(x[regular] - limit).max() <= 1e-10
        assert limit.max() - limit.min() > 1e-3

    def test_limit_independent_of_regular_initialization(self, rng):
        g = complete_graph(5)
        roles = AgentRoles.from_pinned(5, {0: -2.0, 1: 3.0})
        w = uniform_gossip_matrix(g)
        limit = gossip_limit(g, roles)
        for _ in range(3):
            x = rng.normal(scale=10.0, size=5)
            x[0], x[1] = -2.0, 3.0
            for _ in range(5_000):
                x = with_pins(w @ x, roles)
            assert np.abs(x[2:] - limit).max() <= 1e-10

    def test_rejects_unreachable_regular_vertices(self):
        # Two components; the stubborn vertex lives in the other one.
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(AssumptionError):
            gossip_limit(g, AgentRoles.from_pinned(4, {0: 1.0}))
        # An isolated regular vertex is a component of its own.
        g = Graph(3, [(0, 1)])
        with pytest.raises(AssumptionError):
            gossip_limit(g, AgentRoles.from_pinned(3, {0: 1.0}))

    def test_rejects_no_stubborn(self):
        with pytest.raises(AssumptionError):
            gossip_limit(complete_graph(3), AgentRoles.none(3))

    def test_rejects_roles_of_another_size(self):
        with pytest.raises(InvalidFieldError, match="roles"):
            gossip_limit(complete_graph(3), AgentRoles.from_pinned(4, {0: 1.0}))


class TestRunDriver:
    def test_zero_iteration_run_reports_initial_metrics(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        objs = Quadratic(g, x0)
        traj = run(
            AdmmEngine(0.5, 1.0), g, x0, objs, AgentRoles.none(3),
            stop=StopRule(max_iterations=0),
        )
        assert traj.n_steps == 0
        assert list(traj.iterations) == [0]
        assert traj.max_change[0] == 0.0
        assert np.isclose(traj.disagreement[0], disagreement(x0), atol=1e-15)
        assert np.isclose(traj.mean[0], 1.0, atol=1e-15)

    def test_record_every_keeps_first_and_last(self):
        g = complete_graph(4)
        x0 = np.array([0.0, 1.0, 2.0, 3.0])
        objs = Quadratic(g, x0)
        traj = run(
            AdmmEngine(10.0, 1.0), g, x0, objs, AgentRoles.none(4),
            stop=StopRule(max_iterations=25, disagreement_tol=-1, change_tol=-1),
            record_every=10,
        )
        assert list(traj.iterations) == [0, 10, 20, 25]

    def test_converged_flag_and_final_state(self, rng):
        g = complete_graph(8)
        x0 = rng.normal(size=8)
        from tvconsensus import ac_critical_lambda

        lam = 2.0 * ac_critical_lambda(g, x0)
        objs = Quadratic(g, x0)
        traj = run(
            AdmmEngine(lam, 1.0), g, x0, objs, AgentRoles.none(8),
            stop=StopRule(max_iterations=50_000, disagreement_tol=1e-9, change_tol=1e-10),
        )
        assert traj.converged
        assert traj.disagreement[-1] < 1e-9
        assert np.allclose(traj.final_x, x0.mean(), atol=1e-7)

    def test_gossip_engine_runs(self, rng):
        g = complete_graph(5)
        x0 = rng.normal(size=5)
        roles = AgentRoles.from_pinned(5, {0: 1.0})
        x_init = x0.copy()
        x_init[0] = 1.0
        objs = Quadratic(g, x_init)
        engine = GossipEngine()
        traj = run(engine, g, x_init, objs, roles,
                   stop=StopRule(20_000, 1e-11, 1e-12), metric_lambda=0.3)
        assert traj.converged
        assert np.allclose(traj.final_x, 1.0, atol=1e-9)

    def test_every_state_keeps_the_pins(self):
        class PlusOne:
            """An engine that knows nothing of the roles: every entry moves up by 1."""

            name, lam = "plus_one", 0.0

            def start(self, g, objs):
                pass

            def step(self, x):
                return x + 1.0

        g = cycle_graph(5)
        x0 = np.arange(5.0)
        roles = AgentRoles.from_pinned(5, {1: -3.0, 4: 7.5})
        spy = Spy(PlusOne())
        traj = run(spy, g, x0, Quadratic(g, x0), roles, stop=StopRule(10, NEVER, NEVER))
        states = spy.states + [traj.final_x]
        assert len(states) == 11
        for k, x in enumerate(states):
            assert x[[1, 4]].tolist() == [-3.0, 7.5]
            assert x[[0, 2, 3]].tolist() == [0.0 + k, 2.0 + k, 3.0 + k]
        assert traj.mean.tolist() == [float(x.mean()) for x in states]

    @pytest.mark.parametrize("engine", [SubgradientEngine, AdmmEngine, GossipEngine])
    @pytest.mark.parametrize("metric_lambda", [-1.0, -5e-324, INF, -INF, float("nan")])
    def test_metric_lambda_outside_zero_to_infinity_is_rejected(self, engine, metric_lambda):
        g = complete_graph(4)
        x0 = np.full(4, 2.0)  # constant, so tv = 0 and inf * tv would record a NaN objective
        spy = Spy(engine() if engine is GossipEngine else engine(0.5))
        with pytest.raises(ValueError, match="metric_lambda must be nonnegative and finite"):
            run(spy, g, x0, Quadratic(g, x0), AgentRoles.none(4), metric_lambda=metric_lambda)
        assert spy.states == []


# K12, an irregular graph, one vertex and no edges: every layout of the recorder's sums.
RECORDER_GRAPHS = {
    "k12": lambda: complete_graph(12),
    "irregular": lambda: random_connected_graph(np.random.default_rng(5), n_max=40, p=0.3),
    "single_vertex": lambda: Graph(1, []),
    "edgeless": lambda: Graph(5, []),
}


class TestRecorder:
    """Every recorded row equals, byte for byte, the public formulas on that row's state."""

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    @pytest.mark.parametrize("graph", list(RECORDER_GRAPHS))
    def test_rows_match_the_public_formulas_bitwise(self, graph, kind):
        g = RECORDER_GRAPHS[graph]()
        if graph == "irregular":
            assert g.degrees.min() < g.degrees.max() and g.n_edges > 8
        x0 = tied_data(np.random.default_rng(17), g.n_vertices)
        objs, roles, lam = kind(g, x0), AgentRoles.none(g.n_vertices), 0.37
        engines = [SubgradientEngine(0.3), GossipEngine()]
        if g.degrees.min() > 0:
            engines.append(AdmmEngine(0.3, 1.3))
        for engine in engines:
            spy = Spy(engine)
            traj = run(spy, g, x0, objs, roles, stop=StopRule(60, NEVER, NEVER),
                       metric_lambda=lam)
            states = spy.states + [traj.final_x]
            assert traj.iterations.tolist() == list(range(61))
            for k, x in enumerate(states):
                expected = (disagreement(x), float(x.mean()),
                            objs.value(x) + lam * tv_norm(g, x))
                recorded = (traj.disagreement[k], traj.mean[k], traj.objective[k])
                for want, got in zip(expected, recorded, strict=True):
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (engine, k)


class TestLazyChange:
    """``run`` computes the max change only when a row or the stop rule reads it."""

    @staticmethod
    def scenario(engine_name, pinned):
        g = cycle_graph(6)
        x0 = np.random.default_rng(3).uniform(size=6)
        roles = AgentRoles.from_pinned(6, {2: 0.4}) if pinned else AgentRoles.none(6)
        lam = 2.0 * ac_critical_lambda(g, x0)
        x0 = with_pins(x0, roles)
        engine = {
            "subgradient": lambda: SubgradientEngine(lam),
            "admm": lambda: AdmmEngine(lam, 1.0),
            "gossip": GossipEngine,
        }[engine_name]
        return g, x0, Quadratic(g, x0), roles, engine

    @pytest.mark.parametrize("engine_name", ["subgradient", "admm", "gossip"])
    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("record_every", [1, 7, 100])
    @pytest.mark.parametrize("stop", [
        StopRule(300, NEVER, NEVER),
        StopRule(300, 1e-9, 1e-10),
        StopRule(300, NEVER, 1e-10),
        StopRule(300, 1e-9, NEVER),
        StopRule(300, INF, INF),
        StopRule(0, 1e-9, 1e-10),
    ], ids=["never", "both", "change_only", "disagreement_only", "always", "zero_steps"])
    def test_matches_the_eager_loop(self, engine_name, pinned, record_every, stop):
        g, x0, objs, roles, engine = self.scenario(engine_name, pinned)
        traj = run(engine(), g, x0, objs, roles, stop=stop, record_every=record_every)
        ref = reference_run(engine(), g, x0, objs, roles, stop=stop, record_every=record_every)
        assert_same_trajectory(traj, ref)

    def test_stop_rule_fires_for_admm_and_gossip(self):
        stop = StopRule(300, 1e-9, 1e-10)
        for name in ("admm", "gossip"):
            for pinned in (False, True):
                g, x0, objs, roles, engine = self.scenario(name, pinned)
                traj = run(engine(), g, x0, objs, roles, stop=stop, record_every=100)
                assert traj.converged and traj.n_steps < 300
                assert traj.max_change[-1] < 1e-10

    def test_benchmark_sweep_shape(self):
        """20,000 subgradient steps on K7, every 100th recorded, tolerances never met."""
        g = complete_graph(7)
        x0 = np.random.default_rng(2026).uniform(size=7)
        objs = Quadratic(g, x0)
        lam = 1.25 * ac_critical_lambda(g, x0)
        roles = AgentRoles.none(7)
        stop = StopRule(20_000, NEVER, NEVER)
        traj = run(SubgradientEngine(lam), g, x0, objs, roles, stop=stop, record_every=100)
        ref = reference_run(ReferenceSubgradientEngine(lam), g, x0, objs, roles, stop=stop,
                            record_every=100)
        assert_same_trajectory(traj, ref)
        assert len(traj.iterations) == 201


class TestDegenerateGraphs:
    """One vertex, an isolated vertex, no edges, every vertex pinned."""

    CASES = {
        "single_vertex": (Graph(1, []), {}),
        "isolated_vertex": (Graph(4, [(0, 1), (1, 2)]), {}),
        "edgeless": (Graph(3, []), {}),
        "all_pinned": (complete_graph(4), {0: 1.0, 1: -2.0, 2: 0.5, 3: 3.0}),
    }

    @staticmethod
    def scenario(case):
        g, pinned = TestDegenerateGraphs.CASES[case]
        n = g.n_vertices
        roles = AgentRoles.from_pinned(n, pinned)
        x0 = with_pins(np.random.default_rng(8).normal(size=n), roles)
        return g, x0, Quadratic(g, x0), roles

    @pytest.mark.parametrize("case", list(CASES))
    def test_subgradient_matches_reference(self, case):
        g, x0, objs, roles = self.scenario(case)
        ref = x0.copy()
        for n, x in enumerate(run_states(Spy(SubgradientEngine(0.7)), g, x0, objs, roles, 20)):
            assert np.array_equal(x, ref)
            ref = with_pins(reference_subgradient_step(g, ref, n, objs, 0.7, harmonic_schedule()),
                            roles)
        stop = StopRule(20, NEVER, NEVER)
        assert_same_trajectory(
            run(SubgradientEngine(0.7), g, x0, objs, roles, stop=stop),
            reference_run(ReferenceSubgradientEngine(0.7), g, x0, objs, roles, stop=stop),
        )

    @pytest.mark.parametrize("case", list(CASES))
    def test_gossip_matches_reference(self, case):
        g, x0, objs, roles = self.scenario(case)
        w = reference_uniform_gossip_matrix(g, roles)
        ref = x0.copy()
        for x in run_states(Spy(GossipEngine()), g, x0, objs, roles, 20):
            assert np.array_equal(x, ref)
            ref = with_pins(w @ ref, roles)
        stop = StopRule(20, 1e-9, 1e-10)
        assert_same_trajectory(
            run(GossipEngine(), g, x0, objs, roles, stop=stop),
            reference_run(ReferenceGossipEngine(roles), g, x0, objs, roles, stop=stop),
        )

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    @pytest.mark.parametrize("case", ["single_vertex", "edgeless"])
    def test_degree_zero_graphs_are_regular(self, case, kind):
        g, x0, _, roles = self.scenario(case)
        x0[-1] = -0.0
        objs = kind(g, x0)
        assert _talker_table(g)[0].shape == (0, g.n_vertices)
        ref = x0.copy()
        for n, x in enumerate(run_states(Spy(SubgradientEngine(0.7)), g, x0, objs, roles, 20)):
            assert x.tobytes() == ref.tobytes()
            ref = reference_subgradient_step(g, ref, n, objs, 0.7, harmonic_schedule())
        with pytest.raises(UnsupportedGraphError):
            AdmmEngine(0.7).start(g, objs)

    @pytest.mark.parametrize("case", ["single_vertex", "isolated_vertex", "edgeless"])
    def test_admm_rejects_a_vertex_without_neighbours(self, case):
        g, x0, objs, roles = self.scenario(case)
        with pytest.raises(UnsupportedGraphError):
            run(AdmmEngine(0.7), g, x0, objs, roles, stop=StopRule(5))

    def test_admm_all_pinned_matches_reference(self):
        g, x0, objs, roles = self.scenario("all_pinned")
        engine = AdmmEngine(0.7, 1.3)
        states = run_states(Spy(engine), g, x0, objs, roles, 20)
        ref, mu, mu_mean = x0.copy(), np.zeros(2 * g.n_edges), np.zeros(g.n_vertices)
        for x in states[1:]:
            ref, mu, mu_mean = reference_admm_step(g, ref, mu, mu_mean, objs, 1.3, 0.7, roles)
            assert np.array_equal(x, ref)
            assert np.array_equal(x, x0)
        assert np.array_equal(engine.mu, mu)


class TestLambdaToZero:
    """lam = 0 and the smallest subnormal: no error, nothing non-finite, x0 kept."""

    LAMS = [0.0, 5e-324]

    @staticmethod
    def scenario(kind):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
        x0 = np.random.default_rng(5).normal(size=6)
        return g, x0, kind(g, x0), AgentRoles.none(6)

    @staticmethod
    def assert_finite(traj):
        for f in ("disagreement", "mean", "objective", "max_change", "final_x"):
            assert np.all(np.isfinite(getattr(traj, f))), f

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    def test_subgradient_stays_at_the_centres(self, kind):
        g, x0, objs, roles = self.scenario(kind)
        for lam in self.LAMS:
            traj = run(SubgradientEngine(lam), g, x0, objs, roles, stop=StopRule(300, NEVER, NEVER))
            self.assert_finite(traj)
            assert traj.final_x.tobytes() == x0.tobytes()
            assert np.all(traj.max_change == 0.0)

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    def test_admm_stays_at_the_centres(self, kind):
        g, x0, objs, roles = self.scenario(kind)
        finals = []
        for lam in self.LAMS:
            traj = run(AdmmEngine(lam, 1.0), g, x0, objs, roles, stop=StopRule(300, NEVER, NEVER))
            self.assert_finite(traj)
            finals.append(traj.final_x.tobytes())
            if kind is Absolute:
                assert finals[-1] == x0.tobytes()
            else:
                # The quadratic prox (c + rho * c) / (1 + rho) can round c by an ulp.
                assert np.all(np.abs(traj.final_x - x0) <= np.spacing(np.abs(x0)))
        # A subnormal multiplier bound moves no state off the lam = 0 run.
        assert finals[0] == finals[1]

    def test_gossip_metric_at_lambda_zero(self):
        g, x0, objs, roles = self.scenario(Quadratic)
        engine = GossipEngine()
        runs = [run(engine, g, x0, objs, roles, metric_lambda=lam) for lam in self.LAMS]
        for traj in runs:
            self.assert_finite(traj)
            assert traj.converged
        assert runs[0].final_x.tobytes() == runs[1].final_x.tobytes()
        assert np.all(runs[1].objective >= runs[0].objective)
