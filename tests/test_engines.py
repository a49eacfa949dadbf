import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvconsensus import (
    Absolute,
    AdmmEngine,
    AssumptionError,
    DomainError,
    GossipEngine,
    Graph,
    InvalidFieldError,
    InvalidSubsetError,
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
    path_graph,
    run,
    tv_norm,
    uniform_gossip_matrix,
)

from tvconsensus.engines import PYTHON_BLOCK_SIZE

from conftest import random_connected_graph
from reference_objectives import AnchoredQuadratic

INF = float("inf")
# A stop-rule tolerance that can never be met.
NEVER = -1.0

# K_N takes the subgradient ranks and the ADMM multiplier square; the cycle, the
# (3-regular, not complete) Petersen graph, a random connected graph and the star keep
# the per-edge path.  K12's and K40's rows are enough for numpy's pairwise summation to
# take another order than bincount's.
PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, 5 + i) for i in range(5)])
CONTRACT_GRAPHS = {
    "er": lambda rng: random_connected_graph(rng, n_max=40, p=0.3),
    "k2": lambda rng: complete_graph(2),
    "k3": lambda rng: complete_graph(3),
    "k6": lambda rng: complete_graph(6),
    "k12": lambda rng: complete_graph(12),
    "k40": lambda rng: complete_graph(40),
    "c9": lambda rng: cycle_graph(9),
    "petersen": lambda rng: PETERSEN,
    "star": lambda rng: Graph(9, [(0, v) for v in range(1, 9)]),
}
COMPLETE = {"k2", "k3", "k6", "k12", "k40"}
# (graph, kind) cases; the random graph keeps its original test ids.
GRAPH_KINDS = [
    pytest.param(graph, kind, id=kind if graph == "er" else f"{graph}-{kind}")
    for graph in CONTRACT_GRAPHS for kind in ("quadratic", "absolute")
]


def subgradient_layout(g):
    engine = SubgradientEngine(0.3)
    engine.start(g, Quadratic(g, np.zeros(g.n_vertices)))
    return "ranks" if engine._ranked else "edges"


def admm_layout(g):
    engine = AdmmEngine(0.3)
    engine.start(g, Quadratic(g, np.zeros(g.n_vertices)))
    return "square" if engine._square else "edges"


def contract_graph(name, rng):
    g = CONTRACT_GRAPHS[name](rng)
    want = ("ranks", "square") if name in COMPLETE else ("edges", "edges")
    assert (subgradient_layout(g), admm_layout(g)) == want
    return g


def tied_data(rng, n):
    """Whole numbers, so neighbours tie exactly, with a +0.0 and a -0.0 entry."""
    x = np.round(rng.normal(scale=2.0, size=n))
    x[0], x[-1] = 0.0, -0.0
    return x


def with_pins(x, pins):
    """A copy of x with the stubborn entries set to their pinned values."""
    x = np.array(x, dtype=float)
    x[list(pins)] = list(pins.values())
    return x


def reference_subgradient_step(g, x, n, objs, lam, gamma0):
    """Round n of subgradient descent, recomputing every constant from g."""
    gamma = gamma0 / (n + 1.0)
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
        self.gamma0 = 1.0

    def start(self, g, objs):
        self.g, self.objs, self.n = g, objs, 0

    def step(self, x):
        x_next = reference_subgradient_step(self.g, x, self.n, self.objs, self.lam, self.gamma0)
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


def run_states(spy, g, x0, objs, pins, steps):
    """x(0), ..., x(steps) as ``run`` produces them, pins written."""
    traj = run(spy, g, x0, objs, pins, stop=StopRule(steps, NEVER, NEVER))
    return spy.states + [traj.final_x]


def admm_multipliers(engine):
    return engine.mu.copy(), engine.mu_mean.copy()


def reference_run(engine, g, x0, objs, pins, stop=StopRule(), record_every=1,
                  metric_lambda=None):
    """The eager `run` loop: the max change after every step, recorded or not.  The stop
    rule reads the unpinned agents' disagreement, 0 when every agent is pinned."""
    lam_metric = engine.lam if metric_lambda is None else float(metric_lambda)
    x = with_pins(x0, pins)
    free = [v for v in range(g.n_vertices) if v not in pins]
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
        x_new = with_pins(engine.step(x), pins)
        change = float(np.max(np.abs(x_new - x))) if x_new.size else 0.0
        k += 1
        settled = (
            change < stop.change_tol
            and (disagreement(x_new[free]) if free else 0.0) < stop.disagreement_tol
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


def reference_admm_step(g, x, mu, mu_mean, objs, rho, lam, pins):
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
    return with_pins(x_next, pins), mu_next, mu_mean_next


def reference_uniform_gossip_matrix(g, pins=()):
    """The original double loop: weight 1 / (degree + 1) on v and each neighbor."""
    n = g.n_vertices
    w = np.zeros((n, n), dtype=float)
    for v in range(n):
        share = 1.0 / (int(g.degrees[v]) + 1.0)
        w[v, v] = share
        for nb in g.neighbors(v):
            w[v, nb] = share
    for v in pins:
        w[v] = 0.0
        w[v, v] = 1.0
    return w


class ReferenceGossipEngine:
    """Multiplication by ``reference_uniform_gossip_matrix``, identity rows at the pins."""

    name, lam = "gossip", 0.0

    def __init__(self, pins):
        self.pins = pins

    def start(self, g, objs):
        self.w = reference_uniform_gossip_matrix(g, self.pins)

    def step(self, x):
        return self.w @ x


class TestPins:
    def test_pin(self):
        g = complete_graph(3)
        pins = {0: 9.0}
        x0 = np.array([1.0, 2.0, 3.0])
        traj = run(GossipEngine(), g, x0, Quadratic(g, x0), pins,
                   stop=StopRule(max_iterations=0))
        assert traj.final_x.tolist() == [9.0, 2.0, 3.0]
        assert x0.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("pins, message", [
        ({5: 1.0}, "unknown vertex id 5"),
        ({1.5: 1.0}, "not an integer"),  # int() would truncate 1.5 and pin vertex 1
    ], ids=["unknown", "fractional"])
    def test_a_bad_vertex_id_is_rejected(self, pins, message):
        g = complete_graph(4)
        x0 = np.zeros(4)
        spy = Spy(GossipEngine())
        with pytest.raises(InvalidSubsetError, match=message):
            run(spy, g, x0, Quadratic(g, x0), pins)
        assert spy.states == []
        with pytest.raises(InvalidSubsetError, match=message):
            gossip_limit(g, pins)

    @pytest.mark.parametrize("value", [float("nan"), INF, -INF], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ["run", "gossip_limit"])
    def test_every_entry_point_rejects_a_non_finite_pin_alike(self, entry, value):
        # gossip_limit used to return [nan, nan] with a RuntimeWarning for {1: nan}.
        g = path_graph(3)
        x0 = np.zeros(3)
        spy = Spy(GossipEngine())
        with pytest.raises(InvalidFieldError,
                           match=f"^pinned value {value} at vertex 1 is not finite$"):
            if entry == "run":
                run(spy, g, x0, Quadratic(g, x0), {1: value})
            else:
                gossip_limit(g, {1: value})
        assert spy.states == []

    @pytest.mark.parametrize("value", [[0.5, 0.7], [0.5], np.array([0.5])],
                             ids=["list", "1-element list", "1-element array"])
    @pytest.mark.parametrize("entry", ["run", "gossip_limit"])
    def test_a_pinned_value_must_be_one_number(self, entry, value):
        # gossip_limit used to return a (2, 1) array for {1: [0.5]}, and run raised numpy's
        # bare "shape mismatch" for {1: [0.5, 0.7]}.
        g = path_graph(3)
        x0 = np.zeros(3)
        spy = Spy(GossipEngine())
        with pytest.raises(InvalidFieldError,
                           match=r"^pinned value .* at vertex 1 must be one number, got shape"):
            if entry == "run":
                run(spy, g, x0, Quadratic(g, x0), {1: value})
            else:
                gossip_limit(g, {1: value})
        assert spy.states == []

    def test_a_0d_array_pins_its_value(self):
        g = path_graph(3)
        x0 = np.zeros(3)
        traj = run(GossipEngine(), g, x0, Quadratic(g, x0), {1: np.array(0.5)},
                   stop=StopRule(max_iterations=0))
        assert traj.final_x.tolist() == [0.0, 0.5, 0.0]
        assert gossip_limit(g, {1: np.array(0.5)}).tolist() == [0.5, 0.5]

    def test_an_integral_float_id_pins_its_vertex(self):
        g = complete_graph(4)
        x0 = np.zeros(4)
        traj = run(GossipEngine(), g, x0, Quadratic(g, x0), {1.0: 1.0},
                   stop=StopRule(max_iterations=0))
        assert traj.final_x.tolist() == [0.0, 1.0, 0.0, 0.0]
        assert np.array_equal(gossip_limit(g, {1.0: 1.0}), gossip_limit(g, {1: 1.0}))


class TestEngineContract:
    STEPS = 500

    @staticmethod
    def scenario(graph, kind, pinned):
        rng = np.random.default_rng(2024)
        g = contract_graph(graph, rng)
        n = g.n_vertices
        x0 = tied_data(rng, n)
        pins = {1: 2.5} if pinned else {}
        objective = Quadratic if kind == "quadratic" else Absolute
        return g, x0, objective(g, x0), pins

    @pytest.mark.parametrize("graph, kind", GRAPH_KINDS)
    @pytest.mark.parametrize("pinned", [False, True])
    def test_subgradient_matches_reference_bitwise(self, graph, kind, pinned):
        g, x0, objs, pins = self.scenario(graph, kind, pinned)
        engine = SubgradientEngine(0.3)
        states = run_states(Spy(engine), g, x0, objs, pins, self.STEPS)
        ref = with_pins(x0, pins)
        for n, x in enumerate(states):
            assert x.tobytes() == ref.tobytes()
            step = reference_subgradient_step(g, ref, n, objs, 0.3, 1.0)
            ref = with_pins(step, pins)
        assert engine.n == self.STEPS

    @pytest.mark.parametrize("graph, kind", GRAPH_KINDS)
    @pytest.mark.parametrize("pinned", [False, True])
    def test_admm_matches_reference_bitwise(self, graph, kind, pinned):
        g, x0, objs, pins = self.scenario(graph, kind, pinned)
        rho, lam = 1.3, 2.0
        spy = Spy(AdmmEngine(lam, rho), watch=admm_multipliers)
        states = run_states(spy, g, x0, objs, pins, self.STEPS)
        ref = with_pins(x0, pins)
        assert states[0].tobytes() == ref.tobytes()
        mu, mu_mean = np.zeros(2 * g.n_edges), np.zeros(g.n_vertices)
        for x, (engine_mu, engine_mu_mean) in zip(states[1:], spy.watched, strict=True):
            ref, mu, mu_mean = reference_admm_step(g, ref, mu, mu_mean, objs, rho, lam, pins)
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

    @pytest.mark.parametrize("make, level, least", [
        (lambda v: SubgradientEngine(v), "lam", "nonnegative"),
        (lambda v: SubgradientEngine(1.0, gamma0=v), "gamma0", "positive"),
        (lambda v: AdmmEngine(v), "lam", "nonnegative"),
        (lambda v: AdmmEngine(0.1, rho=v), "rho", "positive"),
    ], ids=["subgradient-lam", "subgradient-gamma0", "admm-lam", "admm-rho"])
    @pytest.mark.parametrize("value, error, rule", [
        ("0.5", InvalidFieldError, "int or float"), ("2", InvalidFieldError, "int or float"),
        (True, InvalidFieldError, "int or float"), (None, InvalidFieldError, "int or float"),
        ([0.5], InvalidFieldError, "one number"),
        (0.0, DomainError, "{least} and finite, got 0.0$"),
        (-1.0, DomainError, "{least} and finite, got -1.0$"),
        (float("nan"), DomainError, "{least} and finite, got nan$"),
        (INF, DomainError, "{least} and finite, got inf$"),
    ], ids=["str", "int str", "bool", "None", "list", "0", "-1", "nan", "inf"])
    def test_a_level_must_be_a_number_at_construction(self, make, level, least, value, error,
                                                      rule):
        # float() used to read "0.5" as 0.5 and True as 1.0, and start checked the range.
        if least == "nonnegative" and value == 0.0:  # lam = 0 is legal
            assert make(value).lam == 0.0
            return
        with pytest.raises(error, match=f"^{level} must be {rule.format(least=least)}"):
            make(value)

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

    def test_admm_rejects_an_infinite_rho_before_the_first_step(self):
        # rho = inf used to pass start and fail at step 1 on the NaN of prox(inf, x).  The
        # constructor rejects it, so no engine is left to step.
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            spy = Spy(AdmmEngine(0.5, INF))
            run(spy, g, x0, Quadratic(g, x0))

    def test_admm_rejects_a_rho_whose_degree_product_overflows(self):
        # rho * degree = inf used to leak numpy's overflow warning from start, then fail
        # at step 1 on the NaN of prox(inf, x).
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        spy = Spy(AdmmEngine(0.5, 1e308))
        with pytest.raises(ValueError, match="rho times the largest degree overflows"):
            run(spy, g, x0, Quadratic(g, x0))
        assert spy.states == []

    def test_start_rejects_mismatched_sizes(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        objs = Quadratic(g, x0)
        engines = (
            SubgradientEngine(0.5),
            AdmmEngine(0.5, 1.0),
            GossipEngine(),
        )
        for engine in engines:
            with pytest.raises(InvalidFieldError):
                run(engine, g, x0[:2], objs, stop=StopRule(max_iterations=1))

    def test_start_rejects_nonfinite_pinned_value(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        pins = {0: float("nan")}
        for engine in (SubgradientEngine(0.5), AdmmEngine(0.5, 1.0)):
            with pytest.raises(InvalidFieldError):
                run(engine, g, x0, Quadratic(g, x0), pins, stop=StopRule(max_iterations=1))

    def test_rerun_with_the_same_engine_is_identical(self, rng):
        g = complete_graph(5)
        other = cycle_graph(7)
        x0 = rng.normal(size=5)
        pins = {0: 1.0}
        objs = Quadratic(g, with_pins(x0, pins))
        other_x0 = rng.normal(size=7)
        stop = StopRule(max_iterations=40, disagreement_tol=-1.0, change_tol=-1.0)
        engines = (
            SubgradientEngine(0.3),
            AdmmEngine(0.3, 1.0),
            GossipEngine(),
        )
        for engine in engines:
            first = run(engine, g, x0, objs, pins, stop=stop, metric_lambda=0.3)
            run(engine, other, other_x0, Quadratic(other, other_x0), stop=stop)
            second = run(engine, g, x0, objs, pins, stop=stop, metric_lambda=0.3)
            for name in ("iterations", "disagreement", "mean", "objective", "max_change",
                         "final_x"):
                assert np.array_equal(getattr(first, name), getattr(second, name))
            assert (first.converged, first.n_steps) == (second.converged, second.n_steps)


class TestSubgradientStep:
    @pytest.mark.parametrize("gamma0", [INF, float("nan"), 0.0, -1.0])
    def test_start_rejects_gamma0_outside_zero_to_infinity(self, gamma0):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="gamma0 must be positive and finite"):
            SubgradientEngine(1.0, gamma0=gamma0).start(g, Quadratic(g, np.zeros(3)))

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
        engine = SubgradientEngine(1.0, gamma0=0.1)
        engine.start(g, objs)
        new = engine.step(x0)
        assert np.allclose(new, [0.1, 1.9], atol=1e-15)

    def test_sign_zero_at_equal_values(self):
        g = Graph(2, [(0, 1)])
        x = np.array([1.0, 1.0])
        objs = Quadratic(g, np.array([0.0, 2.0]))
        engine = SubgradientEngine(10.0, gamma0=0.5)
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
        pins = {2: x0[2]}
        objs = Quadratic(g, x0)
        for x in run_states(Spy(SubgradientEngine(1.0)), g, x0, objs, pins, 50):
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
        pins = {0: 7.5}
        x_init = x0.copy()
        x_init[0] = 7.5
        objs = Quadratic(g, x_init)
        for x in run_states(Spy(AdmmEngine(0.2, 1.0)), g, x_init, objs, pins, 100):
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
        """The edges of ``g`` in random order, a random half of them high to low."""
        edges = np.column_stack([g.edge_src, g.edge_dst])[rng.permutation(g.n_edges)]
        flip = rng.random(g.n_edges) < 0.5
        edges[flip] = edges[flip, ::-1]
        return edges

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    @pytest.mark.parametrize("pinned", [False, True])
    # K2's one edge may stay unflipped, and its vertex 2 does not exist.
    @pytest.mark.parametrize("graph", [name for name in CONTRACT_GRAPHS if name != "k2"])
    def test_flipped_orientation_matches_reference_bitwise(self, graph, pinned, kind):
        # A graph built from reversed, shuffled pairs is its canonical twin, so it
        # takes the same layouts (the ADMM square on K_N) and the same bitwise steps.
        rng = np.random.default_rng(77)
        base = contract_graph(graph, rng)
        edges = self.flipped(base, rng)
        assert (edges[:, 0] > edges[:, 1]).any()
        g = Graph(base.n_vertices, edges)
        assert g.oriented_edges == base.oriented_edges
        assert (subgradient_layout(g), admm_layout(g)) == (
            subgradient_layout(base), admm_layout(base))
        n, m = g.n_vertices, g.n_edges
        x0 = tied_data(rng, n)
        pins = {2: 1.5} if pinned else {}
        objs = kind(g, x0)
        rho, lam = 1.3, 0.3
        spy = Spy(AdmmEngine(lam, rho), watch=admm_multipliers)
        states = run_states(spy, g, x0, objs, pins, 500)
        twin = run_states(Spy(AdmmEngine(lam, rho)), base, x0, kind(base, x0), pins, 500)
        assert [x.tobytes() for x in states] == [x.tobytes() for x in twin]
        ref, mu, mu_mean = with_pins(x0, pins), np.zeros(2 * m), np.zeros(n)
        for x, (engine_mu, engine_mu_mean) in zip(states[1:], spy.watched, strict=True):
            ref, mu, mu_mean = reference_admm_step(g, ref, mu, mu_mean, objs, rho, lam, pins)
            assert x.tobytes() == ref.tobytes()
            assert engine_mu_mean.tobytes() == mu_mean.tobytes()
            assert np.array_equal(engine_mu, mu)
            assert np.array_equal(engine_mu[:m], -engine_mu[m:])
        sub_states = run_states(Spy(SubgradientEngine(lam)), g, x0, objs, pins, 500)
        ref = with_pins(x0, pins)
        for n, x in enumerate(sub_states):
            assert x.tobytes() == ref.tobytes()
            ref = with_pins(reference_subgradient_step(g, ref, n, objs, lam, 1.0),
                            pins)


class TestEngineAgreement:
    def test_limits_agree_without_stubborn(self, rng):
        for _ in range(3):
            g = random_connected_graph(rng, n_max=6)
            x0 = rng.normal(size=g.n_vertices)
            from tvconsensus import ac_critical_lambda

            lam = 0.7 * max(ac_critical_lambda(g, x0), 1e-2)
            objs = Quadratic(g, x0)
            adm = run(
                AdmmEngine(lam, 1.0), g, x0, objs,
                stop=StopRule(200_000, INF, 1e-13), record_every=10**9,
            )
            sub = run(
                SubgradientEngine(lam), g, x0, objs,
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
            adm = run(
                AdmmEngine(lam, 1.0), g, x0, objs,
                stop=StopRule(200_000, INF, 1e-13), record_every=10**9,
            )
            sub = run(
                SubgradientEngine(lam), g, x0, objs,
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
        lam = 0.15
        objs = Quadratic(g, x_init)
        full = run(
            AdmmEngine(lam, 1.0), g, x_init, objs, stubborn,
            stop=StopRule(300_000, INF, 1e-13), record_every=10**9,
        )
        regular = [0, 1, 2, 3, 4]
        sub_graph, kept = g.induced_subgraph(regular)
        anchored = AnchoredQuadratic(
            x_init[list(kept)],
            [[a for w, a in stubborn.items() if w in g.neighbors(v)] for v in kept],
            lam,
        )
        reduced = run(
            AdmmEngine(lam, 1.0), sub_graph, x_init[regular], anchored,
            stop=StopRule(300_000, INF, 1e-13), record_every=10**9,
        )
        assert np.abs(full.final_x[regular] - reduced.final_x).max() <= 1e-4


class TestGossip:
    def test_uniform_matrix_matches_the_loop(self, rng):
        graphs = [random_connected_graph(rng) for _ in range(5)]
        graphs += [complete_graph(7), cycle_graph(8), Graph(5, [(0, 1), (3, 1)])]
        for g in graphs:
            reference = reference_uniform_gossip_matrix(g)
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
            g, pins = complete_graph(100), {99: 0.53}
        else:
            g = erdos_renyi(400, 10 / 399, 7)
            assert g.is_connected
            pins = {17: -1.5, 250: 2.25}
        x0 = rng.uniform(size=g.n_vertices)
        reference = reference_uniform_gossip_matrix(g, pins)
        ref = with_pins(x0, pins)
        for x in run_states(Spy(GossipEngine()), g, x0, Quadratic(g, x0), pins, 2_000):
            assert np.array_equal(x, ref)
            ref = with_pins(reference @ ref, pins)

    def test_limit_matches_the_identity_row_solve_bitwise(self, rng):
        for g, pins in [
            (complete_graph(100), {99: 0.53}),
            (cycle_graph(6), {3: 1.0, 0: 0.0}),
            (random_connected_graph(rng, n_max=30), {0: -2.0, 1: 3.0}),
        ]:
            w = reference_uniform_gossip_matrix(g, pins)
            stubborn = sorted(pins)
            regular = [v for v in range(g.n_vertices) if v not in pins]
            expected = np.linalg.solve(
                np.eye(len(regular)) - w[np.ix_(regular, regular)],
                w[np.ix_(regular, stubborn)] @ np.array([pins[v] for v in stubborn]),
            )
            assert np.array_equal(gossip_limit(g, pins), expected)

    def test_single_stubborn_drives_everyone(self, rng):
        g = random_connected_graph(rng, n_max=10)
        n = g.n_vertices
        pins = {0: 4.5}
        w = uniform_gossip_matrix(g)
        x = rng.normal(size=n)
        x[0] = 4.5
        for _ in range(100_000):
            x_new = with_pins(w @ x, pins)
            if np.abs(x_new - x).max() < 1e-14:
                x = x_new
                break
            x = x_new
        assert np.allclose(x, 4.5, atol=1e-10)
        limit = gossip_limit(g, pins)
        assert np.allclose(limit, 4.5, atol=1e-12)

    def test_two_stubborn_limit_matches_iteration_and_is_nonconstant(self, rng):
        g = cycle_graph(6)
        pins = {0: 0.0, 3: 1.0}
        w = uniform_gossip_matrix(g)
        limit = gossip_limit(g, pins)
        x = rng.normal(size=6)
        x[0], x[3] = 0.0, 1.0
        for _ in range(200_000):
            x = with_pins(w @ x, pins)
        regular = [1, 2, 4, 5]
        assert np.abs(x[regular] - limit).max() <= 1e-10
        assert limit.max() - limit.min() > 1e-3

    def test_limit_independent_of_regular_initialization(self, rng):
        g = complete_graph(5)
        pins = {0: -2.0, 1: 3.0}
        w = uniform_gossip_matrix(g)
        limit = gossip_limit(g, pins)
        for _ in range(3):
            x = rng.normal(scale=10.0, size=5)
            x[0], x[1] = -2.0, 3.0
            for _ in range(5_000):
                x = with_pins(w @ x, pins)
            assert np.abs(x[2:] - limit).max() <= 1e-10

    def test_rejects_unreachable_regular_vertices(self):
        # Two components; the stubborn vertex lives in the other one.
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(AssumptionError):
            gossip_limit(g, {0: 1.0})
        # An isolated regular vertex is a component of its own.
        g = Graph(3, [(0, 1)])
        with pytest.raises(AssumptionError):
            gossip_limit(g, {0: 1.0})

    def test_rejects_no_stubborn(self):
        with pytest.raises(AssumptionError):
            gossip_limit(complete_graph(3), {})


class TestRunDriver:
    def test_zero_iteration_run_reports_initial_metrics(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        objs = Quadratic(g, x0)
        traj = run(
            AdmmEngine(0.5, 1.0), g, x0, objs,
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
            AdmmEngine(10.0, 1.0), g, x0, objs,
            stop=StopRule(max_iterations=25, disagreement_tol=-1, change_tol=-1),
            record_every=10,
        )
        assert list(traj.iterations) == [0, 10, 20, 25]

    def test_rejects_a_fractional_iteration_cap(self):
        # A cap of 2.5 used to take 3 steps and leave the final state unrecorded.
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        spy = Spy(SubgradientEngine(0.5))
        with pytest.raises(ValueError, match="max_iterations must be a whole number"):
            run(spy, g, x0, Quadratic(g, x0), stop=StopRule(2.5))
        assert spy.states == []

    def test_rejects_a_negative_iteration_cap(self):
        # A cap of -5 used to return one row and no step without an error.
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        spy = Spy(SubgradientEngine(0.5))
        with pytest.raises(ValueError, match="^max_iterations must be a whole number of at least 0"):
            run(spy, g, x0, Quadratic(g, x0), stop=StopRule(max_iterations=-5))
        assert spy.states == []
        assert run(spy, g, x0, Quadratic(g, x0), stop=StopRule(max_iterations=0)).n_steps == 0

    def test_rejects_a_fractional_record_interval(self):
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        spy = Spy(SubgradientEngine(0.5))
        with pytest.raises(ValueError, match="record_every must be a whole number"):
            run(spy, g, x0, Quadratic(g, x0), record_every=1.5)
        assert spy.states == []

    def test_converged_flag_and_final_state(self, rng):
        g = complete_graph(8)
        x0 = rng.normal(size=8)
        from tvconsensus import ac_critical_lambda

        lam = 2.0 * ac_critical_lambda(g, x0)
        objs = Quadratic(g, x0)
        traj = run(
            AdmmEngine(lam, 1.0), g, x0, objs,
            stop=StopRule(max_iterations=50_000, disagreement_tol=1e-9, change_tol=1e-10),
        )
        assert traj.converged
        assert traj.disagreement[-1] < 1e-9
        assert np.allclose(traj.final_x, x0.mean(), atol=1e-7)

    def test_gossip_engine_runs(self, rng):
        g = complete_graph(5)
        x0 = rng.normal(size=5)
        pins = {0: 1.0}
        x_init = x0.copy()
        x_init[0] = 1.0
        objs = Quadratic(g, x_init)
        engine = GossipEngine()
        traj = run(engine, g, x_init, objs, pins,
                   stop=StopRule(20_000, 1e-11, 1e-12), metric_lambda=0.3)
        assert traj.converged
        assert np.allclose(traj.final_x, 1.0, atol=1e-9)

    def test_every_state_keeps_the_pins(self):
        class PlusOne:
            """An engine that knows nothing of the pins: every entry moves up by 1."""

            name, lam = "plus_one", 0.0

            def start(self, g, objs):
                pass

            def step(self, x):
                return x + 1.0

        g = cycle_graph(5)
        x0 = np.arange(5.0)
        pins = {1: -3.0, 4: 7.5}
        spy = Spy(PlusOne())
        traj = run(spy, g, x0, Quadratic(g, x0), pins, stop=StopRule(10, NEVER, NEVER))
        states = spy.states + [traj.final_x]
        assert len(states) == 11
        for k, x in enumerate(states):
            assert x[[1, 4]].tolist() == [-3.0, 7.5]
            assert x[[0, 2, 3]].tolist() == [0.0 + k, 2.0 + k, 3.0 + k]
        assert traj.mean.tolist() == [float(x.mean()) for x in states]

    @pytest.mark.parametrize("engine", [SubgradientEngine, AdmmEngine, GossipEngine])
    @pytest.mark.parametrize("metric_lambda, error, rule", [
        *((value, DomainError, "nonnegative and finite")
          for value in (-1.0, -5e-324, INF, -INF, float("nan"))),
        # float() used to read "0.5" as 0.5 and True as 1.0; None is the engine's level.
        ("0.5", InvalidFieldError, "int or float"), (True, InvalidFieldError, "int or float"),
        ([0.5], InvalidFieldError, "one number"),
    ], ids=["-1", "-tiny", "inf", "-inf", "nan", "str", "bool", "list"])
    def test_metric_lambda_outside_zero_to_infinity_is_rejected(self, engine, metric_lambda,
                                                               error, rule):
        g = complete_graph(4)
        x0 = np.full(4, 2.0)  # constant, so tv = 0 and inf * tv would record a NaN objective
        spy = Spy(engine() if engine is GossipEngine else engine(0.5))
        with pytest.raises(error, match=f"^metric_lambda must be {rule}"):
            run(spy, g, x0, Quadratic(g, x0), metric_lambda=metric_lambda)
        assert spy.states == []

    @pytest.mark.parametrize("engine", [SubgradientEngine, AdmmEngine, GossipEngine])
    @pytest.mark.parametrize("field", ["disagreement_tol", "change_tol"])
    @pytest.mark.parametrize("tol, error, rule", [
        # NaN used to run every step, as no change is below it; the others raised a bare
        # TypeError at the first comparison, and True was read as 1.0.
        (float("nan"), DomainError, "{field} must not be NaN"),
        ("1e-3", InvalidFieldError, "{field} must be int or float"),
        (None, InvalidFieldError, "{field} must be int or float"),
        (True, InvalidFieldError, "{field} must be int or float"),
        ([1e-3], InvalidFieldError, "{field} must be one number"),
    ], ids=["nan", "str", "None", "bool", "list"])
    def test_a_stop_tolerance_that_is_not_a_number_raises_before_the_first_step(
            self, engine, field, tol, error, rule):
        g = complete_graph(4)
        x0 = np.arange(4.0)
        spy = Spy(engine() if engine is GossipEngine else engine(0.5))
        stop = StopRule(**{"max_iterations": 50, "disagreement_tol": 1e-3, "change_tol": 1e-3,
                           field: tol})
        with pytest.raises(error, match="^" + rule.format(field=field)):
            run(spy, g, x0, Quadratic(g, x0), stop=stop)
        assert spy.states == []

    @pytest.mark.parametrize("x", [["1", "2"], [True, False], None],
                             ids=["str", "bool", "None"])
    def test_disagreement_takes_numbers_only(self, x):
        # ["1", "2"] used to give 0.707, and booleans were read as 0 and 1.
        with pytest.raises(InvalidFieldError, match="^x must be int or float"):
            disagreement(x)
        assert disagreement([1, 2]) == disagreement(np.array([[1.0], [2.0]])) == 0.5**0.5

    def test_an_overflowing_metric_term_names_the_engine_and_step(self):
        # tv(x0) = 10 on K4, so 1e308 * tv overflows while every state stays finite.
        g = complete_graph(4)
        x0 = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="gossip engine: the row metrics at step 0 left"):
            run(GossipEngine(), g, x0, Quadratic(g, x0),
                stop=StopRule(3, -1.0, -1.0), metric_lambda=1e308)

    @pytest.mark.parametrize("record_every", [1, 10])
    @pytest.mark.parametrize("graph, x0, centres, lam, gamma0, step", [
        # On K3 (ranks) and the star (edges) vertex 0 has sign sum 2, so 2 * lam overflows.
        (complete_graph(3), [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1.7e308, 1.0, 1),
        (Graph(3, [(0, 1), (0, 2)]), [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1.7e308, 1.0, 1),
        # gamma0 = 1e170 takes x - c from 1e-200 to about 1e-30, then 5e139 (whose rows
        # stay finite), then past the range: inside a block unless every round is recorded.
        (cycle_graph(5), [1e-200, -2e-200, 3e-200, 0.0, 5e-200], [0.0] * 5, 0.0, 1e170, 3),
        (complete_graph(4), [1e-200, -2e-200, 3e-200, 0.0], [0.0] * 4, 1e-300, 1e170, 3),
        # Too large for the Python-float block: run steps every round.
        (complete_graph(12), [1e-200 * (v - 5) for v in range(12)], [0.0] * 12, 1e-300, 1e170, 3),
    ], ids=["k3", "star", "c5-later-round", "k4-later-round", "k12-later-round"])
    def test_an_overflowing_state_names_the_engine_and_step(
            self, graph, x0, centres, lam, gamma0, step, record_every):
        x0 = np.array(x0)
        with pytest.raises(DomainError,
                           match=f"subgradient engine: the state left the finite range at step "
                                 f"{step} "):
            run(SubgradientEngine(lam, gamma0), graph, x0, Quadratic(graph, centres),
                stop=StopRule(20, NEVER, NEVER),
                record_every=record_every, metric_lambda=0.0)

    def test_integral_float_intervals_give_the_integer_bytes(self):
        g = complete_graph(7)
        x0 = np.random.default_rng(2026).uniform(size=7)
        objs = Quadratic(g, x0)
        lam = 1.25 * ac_critical_lambda(g, x0)
        whole = run(SubgradientEngine(lam), g, x0, objs,
                    stop=StopRule(20_000, NEVER, NEVER), record_every=100)
        floats = run(SubgradientEngine(lam), g, x0, objs,
                     stop=StopRule(20_000.0, NEVER, NEVER), record_every=100.0)
        assert_same_trajectory(floats, whole)
        assert len(floats.iterations) == 201 and type(floats.n_steps) is int


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
        objs, lam = kind(g, x0), 0.37
        engines = [SubgradientEngine(0.3), GossipEngine()]
        if g.degrees.min() > 0:
            engines.append(AdmmEngine(0.3, 1.3))
        for engine in engines:
            spy = Spy(engine)
            traj = run(spy, g, x0, objs, stop=StopRule(60, NEVER, NEVER),
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
        pins = {2: 0.4} if pinned else {}
        lam = 2.0 * ac_critical_lambda(g, x0)
        x0 = with_pins(x0, pins)
        engine = {
            "subgradient": lambda: SubgradientEngine(lam),
            "admm": lambda: AdmmEngine(lam, 1.0),
            "gossip": GossipEngine,
        }[engine_name]
        return g, x0, Quadratic(g, x0), pins, engine

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
        g, x0, objs, pins, engine = self.scenario(engine_name, pinned)
        traj = run(engine(), g, x0, objs, pins, stop=stop, record_every=record_every)
        ref = reference_run(engine(), g, x0, objs, pins, stop=stop, record_every=record_every)
        assert_same_trajectory(traj, ref)

    def test_stop_rule_fires_for_admm_and_gossip(self):
        stop = StopRule(300, 1e-9, 1e-10)
        for name in ("admm", "gossip"):
            for pinned in (False, True):
                g, x0, objs, pins, engine = self.scenario(name, pinned)
                traj = run(engine(), g, x0, objs, pins, stop=stop, record_every=100)
                assert traj.converged and traj.n_steps < 300
                assert traj.max_change[-1] < 1e-10

    def test_a_pin_away_from_the_regular_limit_still_converges(self):
        # The regular agents settle at stubborn_limit's clipped_high x* = 2.5, away from
        # the pin at 5.0; the stop rule reads the unpinned agents only, so the run stops
        # instead of going on to its 100,000-step cap.
        g = complete_graph(3)
        x0 = np.array([0.0, 1.0, 2.0])
        traj = run(AdmmEngine(1.0), g, x0, Quadratic(g, x0), {0: 5.0})
        assert traj.converged and traj.n_steps < 1_000
        assert traj.final_x[0] == 5.0
        assert np.allclose(traj.final_x[1:], 2.5, rtol=0.0, atol=1e-8)
        # The recorded disagreement still covers every agent, the pin included.
        assert traj.disagreement[-1] == pytest.approx(disagreement(traj.final_x))
        assert traj.disagreement[-1] > 2.0

    def test_benchmark_sweep_shape(self):
        """20,000 subgradient steps on K7, every 100th recorded, tolerances never met."""
        g = complete_graph(7)
        x0 = np.random.default_rng(2026).uniform(size=7)
        objs = Quadratic(g, x0)
        lam = 1.25 * ac_critical_lambda(g, x0)
        stop = StopRule(20_000, NEVER, NEVER)
        traj = run(SubgradientEngine(lam), g, x0, objs, stop=stop, record_every=100)
        ref = reference_run(ReferenceSubgradientEngine(lam), g, x0, objs, {}, stop=stop,
                            record_every=100)
        assert_same_trajectory(traj, ref)
        assert len(traj.iterations) == 201


def block_size(g):
    return g.n_edges + g.n_vertices


@st.composite
def small_graphs(draw):
    """Graphs whose edge and vertex counts add up to at most ``PYTHON_BLOCK_SIZE``,
    isolated vertices and edgeless graphs included."""
    n = draw(st.integers(1, PYTHON_BLOCK_SIZE))
    pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=PYTHON_BLOCK_SIZE - n)
                 if pairs else st.just([]))
    return Graph(n, edges)


class TestAdvance:
    """``advance(x, r)`` gives the bytes of r ``step`` calls or takes no round, and
    ``run`` hands it the rounds between recorded rows only where nothing reads them."""

    @staticmethod
    def scenario(graph, kind, lam):
        rng = np.random.default_rng(2024)
        g = contract_graph(graph, rng)
        x0 = tied_data(rng, g.n_vertices)
        objective = Quadratic if kind == "quadratic" else Absolute
        return g, x0, objective(g, x0), SubgradientEngine(lam), SubgradientEngine(lam)

    def test_the_contract_set_has_graphs_on_both_sides_of_the_block_size(self):
        sizes = {name: block_size(contract_graph(name, np.random.default_rng(2024)))
                 for name in CONTRACT_GRAPHS}
        small = {name for name, size in sizes.items() if size <= PYTHON_BLOCK_SIZE}
        assert {"k2", "k3", "k6", "c9", "petersen", "star"} <= small
        assert {"k12", "k40"}.isdisjoint(small)

    @pytest.mark.parametrize("graph, kind", GRAPH_KINDS)
    @pytest.mark.parametrize("lam", [0.0, -0.0, 0.05], ids=["zero", "negative-zero", "0.05"])
    def test_advance_matches_step_bitwise(self, graph, kind, lam):
        g, x0, objs, blocked, stepped = self.scenario(graph, kind, lam)
        blocked.start(g, objs)
        stepped.start(g, objs)
        if block_size(g) > PYTHON_BLOCK_SIZE:
            x_block, done = blocked.advance(x0, 5)  # run steps the rounds instead
            assert done == 0 and blocked.n == 0 and x_block.tobytes() == x0.tobytes()
            return
        x_block, x_step = x0, x0
        with np.errstate(over="raise", invalid="raise"):
            for rounds in (1, 6, 0, 93, 200):
                x_block, done = blocked.advance(x_block, rounds)
                for _ in range(rounds):
                    x_step = stepped.step(x_step)
                assert done == rounds and blocked.n == stepped.n
                assert x_block.tobytes() == x_step.tobytes()
        assert blocked.n == 300

    @pytest.mark.parametrize("graph, kind", GRAPH_KINDS)
    def test_record_intervals_agree_on_shared_rows(self, graph, kind):
        g, x0, objs, _, _ = self.scenario(graph, kind, 0.05)
        stop = StopRule(300, NEVER, NEVER)
        every = run(SubgradientEngine(0.05), g, x0, objs, stop=stop)
        for record_every in (7, 100):
            traj = run(SubgradientEngine(0.05), g, x0, objs, stop=stop,
                       record_every=record_every)
            rows = traj.iterations
            assert rows.tolist() == sorted({0, 300, *range(0, 301, record_every)})
            for name in ("disagreement", "mean", "objective", "max_change"):
                assert getattr(traj, name).tobytes() == getattr(every, name)[rows].tobytes()
            assert traj.final_x.tobytes() == every.final_x.tobytes()
            assert traj.n_steps == 300 and not traj.converged

    def test_a_state_beyond_the_block_bound_is_stepped(self):
        # |x| sums past 2**1022 on the star, so advance takes no round and run steps them.
        # A consensus state and the absolute objective keep every row finite.
        g = Graph(3, [(0, 1), (0, 2)])
        x0, objs = np.full(3, 2e307), Absolute(g, np.full(3, 1e307))
        blocked = SubgradientEngine(0.05)
        blocked.start(g, objs)
        assert blocked._pairs is not None
        x_block, done = blocked.advance(x0, 5)
        assert done == 0 and blocked.n == 0 and x_block.tobytes() == x0.tobytes()
        stop = StopRule(20, NEVER, NEVER)
        every = run(SubgradientEngine(0.05), g, x0, objs, stop=stop)
        fifth = run(SubgradientEngine(0.05), g, x0, objs, stop=stop, record_every=5)
        rows = fifth.iterations
        assert rows.tolist() == [0, 5, 10, 15, 20]
        for name in ("disagreement", "mean", "objective", "max_change"):
            assert getattr(fifth, name).tobytes() == getattr(every, name)[rows].tobytes()
        assert fifth.final_x.tobytes() == every.final_x.tobytes()

    def test_run_steps_every_round_when_a_pin_or_the_stop_rule_reads_it(self):
        g = cycle_graph(6)
        x0 = np.random.default_rng(3).uniform(size=6)
        objs = Quadratic(g, x0)
        cases = [
            ({2: 0.4}, StopRule(50, NEVER, NEVER)),
            ({}, StopRule(50, 1e-9, 1e-10)),
        ]
        for pins, stop in cases:
            spy = Spy(SubgradientEngine(0.05))  # a Spy has no advance
            run(spy, g, x0, objs, pins, stop=stop, record_every=10)
            assert len(spy.states) == 50


    def test_a_declined_stretch_is_not_handed_back(self):
        # K12 is above the block size, so advance declines the first stretch; run then
        # steps every round without asking again.
        g = complete_graph(12)
        x0 = np.random.default_rng(5).uniform(size=12)
        objs, stop = Quadratic(g, x0), StopRule(2_000, NEVER, NEVER)
        engine, calls = SubgradientEngine(0.05), []
        advance = engine.advance

        def counted(x, rounds):
            calls.append(rounds)
            return advance(x, rounds)

        engine.advance = counted
        traj = run(engine, g, x0, objs, stop=stop, record_every=100)
        assert calls == [99]
        every = run(SubgradientEngine(0.05), g, x0, objs, stop=stop)
        assert traj.final_x.tobytes() == every.final_x.tobytes()

    @staticmethod
    def assert_advance_is_step(engine, g, objs, x0):
        """Start ``engine`` and check its advances against a fresh engine's steps."""
        stepped = SubgradientEngine(engine.lam, engine.gamma0)
        engine.start(g, objs)
        stepped.start(g, objs)
        x_block, x_step = x0, x0
        with np.errstate(over="raise", invalid="raise"):
            for rounds in (1, 6, 0, 93, 200):
                x_block, done = engine.advance(x_block, rounds)
                for _ in range(rounds):
                    x_step = stepped.step(x_step)
                assert done == rounds and engine.n == stepped.n
                assert x_block.tobytes() == x_step.tobytes()

    def test_a_restarted_engine_rebuilds_its_kernel(self):
        # C8 after K7, then an 8-vertex path with vertex 7 isolated, then its absolute
        # objective after the quadratic one: a kernel kept from an earlier start unpacks
        # the wrong number of vertices, or takes the wrong edges or objective.
        rng = np.random.default_rng(11)
        engine = SubgradientEngine(0.05)
        k7 = complete_graph(7)
        x0 = tied_data(rng, 7)
        run(engine, k7, x0, Quadratic(k7, x0), stop=StopRule(300, NEVER, NEVER),
            record_every=100)
        c8, path = cycle_graph(8), Graph(8, [(v, v + 1) for v in range(6)])
        for g, objective in [(c8, Quadratic), (path, Quadratic), (path, Absolute)]:
            x0 = tied_data(rng, g.n_vertices)
            self.assert_advance_is_step(engine, g, objective(g, x0), x0)

    def test_the_kernel_is_freed_with_its_engine(self):
        # No reference cycle holds the generated function, so it goes without a collection.
        g, x0 = cycle_graph(8), np.arange(8.0)
        engine = SubgradientEngine(0.05)
        engine.start(g, Quadratic(g, x0))
        kernel = weakref.ref(engine._kernel)
        gc.disable()
        try:
            del engine
            assert kernel() is None
        finally:
            gc.enable()

    # One-vertex unpacking, empty sign sums and absolute vertices sitting on their centres.
    DEGENERATE = {
        "single_vertex": Graph(1, []),
        "edgeless": Graph(3, []),
        "isolated_vertex": Graph(4, [(0, 1), (1, 2)]),
        "k2": complete_graph(2),
    }

    @pytest.mark.parametrize("graph", list(DEGENERATE))
    @pytest.mark.parametrize("objective", [Quadratic, Absolute])
    @pytest.mark.parametrize("lam", [0.0, -0.0, 0.05], ids=["zero", "negative-zero", "0.05"])
    @pytest.mark.parametrize("start", ["on-centres", "off-centres"])
    def test_degenerate_graphs_match_step_bitwise(self, graph, objective, lam, start):
        g = self.DEGENERATE[graph]
        centres = np.array([-0.0, 0.0, -0.0, 2.0])[: g.n_vertices]
        x0 = centres if start == "on-centres" else np.array([0.0, -0.0, 1.0, 2.0])[: g.n_vertices]
        self.assert_advance_is_step(SubgradientEngine(lam), g, objective(g, centres), x0)

    # sweep_small's full-scale shapes: K7, C8 and an 8-vertex graph with 17 edges.
    SWEEP_GRAPHS = {
        "k7": complete_graph(7),
        "c8": cycle_graph(8),
        "er8": Graph(8, [(v, (v + 1) % 8) for v in range(8)]
                     + [(0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (2, 6), (3, 7), (4, 6), (5, 7)]),
    }

    @pytest.mark.parametrize("graph", list(SWEEP_GRAPHS))
    @pytest.mark.parametrize("objective", [Quadratic, Absolute])
    def test_the_sweep_graphs_take_every_round_they_are_handed(self, graph, objective):
        g = self.SWEEP_GRAPHS[graph]
        assert g.n_edges == {"k7": 21, "c8": 8, "er8": 17}[graph]
        x0 = np.random.default_rng(2026).uniform(size=g.n_vertices)
        engine, calls = SubgradientEngine(0.05), []
        advance = engine.advance

        def counted(x, rounds):
            x, done = advance(x, rounds)
            calls.append((rounds, done))
            return x, done

        engine.advance = counted
        run(engine, g, x0, objective(g, x0), stop=StopRule(2_000, NEVER, NEVER),
            record_every=100)
        assert calls == [(99, 99)] * 20

    def test_the_block_stops_before_the_round_that_leaves_the_bound(self):
        # gamma0 = 1e170 takes x - c from 1e-200 to about 1e-30, then 5e139, then past
        # 2**1022 in round 3: the block takes two rounds, and step raises on the third.
        g = cycle_graph(5)
        x0 = np.array([1e-200, -2e-200, 3e-200, 0.0, 5e-200])
        objs = Quadratic(g, np.zeros(5))
        blocked, stepped = SubgradientEngine(0.0, 1e170), SubgradientEngine(0.0, 1e170)
        blocked.start(g, objs)
        stepped.start(g, objs)
        x_block, done = blocked.advance(x0, 10)
        assert done == 2 and blocked.n == 2
        assert x_block.tobytes() == stepped.step(stepped.step(x0)).tobytes()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            blocked.step(x_block)

    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(), data=st.data(), objective=st.sampled_from([Quadratic, Absolute]),
           lam=st.one_of(st.sampled_from([0.0, -0.0, 0.05]),
                         st.floats(0.0, 1e308, allow_infinity=False)),
           gamma0=st.floats(0.0, 1e308, exclude_min=True, allow_infinity=False),
           rounds=st.integers(0, 300))
    def test_advance_is_step_up_to_the_first_round_beyond_the_bound(
        self, g, data, objective, lam, gamma0, rounds
    ):
        ties = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
        field = st.lists(ties, min_size=g.n_vertices, max_size=g.n_vertices).map(np.array)
        x0, centres = data.draw(field), data.draw(field)
        objs = objective(g, centres)
        blocked, stepped = SubgradientEngine(lam, gamma0), SubgradientEngine(lam, gamma0)
        blocked.start(g, objs)
        stepped.start(g, objs)
        # Step every round, and take the rounds up to the first state that is not finite
        # or whose |x|_1, summed left to right, is above 2**1022.
        states = [x0]
        with np.errstate(all="ignore"):
            while len(states) <= rounds:
                states.append(stepped.step(states[-1]))
        beyond = [not sum(map(abs, x.tolist())) <= 2.0**1022 for x in states]
        expected = beyond.index(True) - 1 if any(beyond) else rounds
        x_block, done = blocked.advance(x0, rounds)
        assert done == expected and blocked.n == done
        assert x_block.tobytes() == states[done].tobytes()


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
        g, pins = TestDegenerateGraphs.CASES[case]
        x0 = with_pins(np.random.default_rng(8).normal(size=g.n_vertices), pins)
        return g, x0, Quadratic(g, x0), pins

    @pytest.mark.parametrize("case", list(CASES))
    def test_subgradient_matches_reference(self, case):
        g, x0, objs, pins = self.scenario(case)
        ref = x0.copy()
        for n, x in enumerate(run_states(Spy(SubgradientEngine(0.7)), g, x0, objs, pins, 20)):
            assert np.array_equal(x, ref)
            ref = with_pins(reference_subgradient_step(g, ref, n, objs, 0.7, 1.0),
                            pins)
        stop = StopRule(20, NEVER, NEVER)
        assert_same_trajectory(
            run(SubgradientEngine(0.7), g, x0, objs, pins, stop=stop),
            reference_run(ReferenceSubgradientEngine(0.7), g, x0, objs, pins, stop=stop),
        )

    @pytest.mark.parametrize("case", list(CASES))
    def test_gossip_matches_reference(self, case):
        g, x0, objs, pins = self.scenario(case)
        w = reference_uniform_gossip_matrix(g, pins)
        ref = x0.copy()
        for x in run_states(Spy(GossipEngine()), g, x0, objs, pins, 20):
            assert np.array_equal(x, ref)
            ref = with_pins(w @ ref, pins)
        stop = StopRule(20, 1e-9, 1e-10)
        assert_same_trajectory(
            run(GossipEngine(), g, x0, objs, pins, stop=stop),
            reference_run(ReferenceGossipEngine(pins), g, x0, objs, pins, stop=stop),
        )

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    @pytest.mark.parametrize("case", ["single_vertex", "edgeless"])
    def test_degree_zero_graphs_are_regular(self, case, kind):
        g, x0, _, pins = self.scenario(case)
        x0[-1] = -0.0
        objs = kind(g, x0)
        assert subgradient_layout(g) == ("ranks" if case == "single_vertex" else "edges")
        ref = x0.copy()
        for n, x in enumerate(run_states(Spy(SubgradientEngine(0.7)), g, x0, objs, pins, 20)):
            assert x.tobytes() == ref.tobytes()
            ref = reference_subgradient_step(g, ref, n, objs, 0.7, 1.0)
        with pytest.raises(UnsupportedGraphError):
            AdmmEngine(0.7).start(g, objs)

    @pytest.mark.parametrize("case", ["single_vertex", "isolated_vertex", "edgeless"])
    def test_admm_rejects_a_vertex_without_neighbours(self, case):
        g, x0, objs, pins = self.scenario(case)
        with pytest.raises(UnsupportedGraphError):
            run(AdmmEngine(0.7), g, x0, objs, pins, stop=StopRule(5))

    def test_admm_all_pinned_matches_reference(self):
        g, x0, objs, pins = self.scenario("all_pinned")
        engine = AdmmEngine(0.7, 1.3)
        states = run_states(Spy(engine), g, x0, objs, pins, 20)
        ref, mu, mu_mean = x0.copy(), np.zeros(2 * g.n_edges), np.zeros(g.n_vertices)
        for x in states[1:]:
            ref, mu, mu_mean = reference_admm_step(g, ref, mu, mu_mean, objs, 1.3, 0.7, pins)
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
        return g, x0, kind(g, x0)

    @staticmethod
    def assert_finite(traj):
        for f in ("disagreement", "mean", "objective", "max_change", "final_x"):
            assert np.all(np.isfinite(getattr(traj, f))), f

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    def test_subgradient_stays_at_the_centres(self, kind):
        g, x0, objs = self.scenario(kind)
        for lam in self.LAMS:
            traj = run(SubgradientEngine(lam), g, x0, objs, stop=StopRule(300, NEVER, NEVER))
            self.assert_finite(traj)
            assert traj.final_x.tobytes() == x0.tobytes()
            assert np.all(traj.max_change == 0.0)

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    def test_admm_stays_at_the_centres(self, kind):
        g, x0, objs = self.scenario(kind)
        finals = []
        for lam in self.LAMS:
            traj = run(AdmmEngine(lam, 1.0), g, x0, objs, stop=StopRule(300, NEVER, NEVER))
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
        g, x0, objs = self.scenario(Quadratic)
        engine = GossipEngine()
        runs = [run(engine, g, x0, objs, metric_lambda=lam) for lam in self.LAMS]
        for traj in runs:
            self.assert_finite(traj)
            assert traj.converged
        assert runs[0].final_x.tobytes() == runs[1].final_x.tobytes()
        assert np.all(runs[1].objective >= runs[0].objective)
