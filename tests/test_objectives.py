import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvconsensus import Absolute, InvalidFieldError, Quadratic, complete_graph, path_graph

from reference_objectives import AnchoredQuadratic, reference_subgradient_box

# Two agents share the center 1.0, so their kinks coincide.
CENTERS = np.array([0.0, 3.0, 1.0, -2.5, 1.0, 1.5])
ANCHORS = [[2.0], [], [-1.0, 0.5, 0.5, 4.0], [1.0, 1.0], [], [0.0]]
N = CENTERS.size
KINDS = [Quadratic, Absolute, AnchoredQuadratic]


def objective(kind, vertices=range(N)):
    """The objective of ``kind`` on the given agents of CENTERS (and ANCHORS)."""
    vertices = list(vertices)
    if kind is AnchoredQuadratic:
        return AnchoredQuadratic(CENTERS[vertices], [ANCHORS[v] for v in vertices], 0.3)
    return kind(path_graph(len(vertices)), CENTERS[vertices])


def scalar(kind, v):
    """f_v of ``kind`` as a function of one float."""
    f = objective(kind, [v])
    return lambda t: f.value(np.array([t]))


def golden_section(f, lo, hi, tol=1e-12, max_iter=300):
    """Derivative-free 1-D minimization of a unimodal function."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestValues:
    def test_quadratic_minimum(self):
        assert objective(Quadratic).value(CENTERS) == 0.0

    def test_absolute(self):
        assert Absolute(path_graph(2), [1.0, 0.0]).value([-1.0, 0.5]) == 2.5

    def test_quadratic_plus_stubborn(self):
        obj = AnchoredQuadratic([0.0, 1.0], [[2.0], []], 1.0)
        assert obj.value([1.0, 3.0]) == (0.5 + 1.0) + 2.0

    def test_midpoint_convexity(self, rng):
        for kind in KINDS:
            obj = objective(kind)
            for _ in range(200):
                x, y = rng.normal(scale=3.0, size=(2, N))
                mid = obj.value(0.5 * (x + y))
                assert mid <= 0.5 * obj.value(x) + 0.5 * obj.value(y) + 1e-9


class TestSubgradients:
    def test_quadratic_gradient(self):
        grad = Quadratic(path_graph(2), [2.0, -1.0]).subgradient([5.0, 0.0])
        assert np.array_equal(grad, [3.0, 1.0])

    def test_absolute_kink_is_zero(self):
        assert np.array_equal(objective(Absolute).subgradient(CENTERS), np.zeros(N))

    def test_absolute_sides(self):
        obj = Absolute(path_graph(2), [0.0, 0.0])
        assert np.array_equal(obj.subgradient([2.0, -2.0]), [1.0, -1.0])

    def test_subgradient_inequality(self, rng):
        for kind in KINDS:
            obj = objective(kind)
            for _ in range(2_000):
                x, y = rng.normal(scale=3.0, size=(2, N))
                assert obj.value(y) >= obj.value(x) + obj.subgradient(x) @ (y - x) - 1e-10

    def test_interval_contains_point_selection(self, rng):
        kinks = [float(c) for c in CENTERS] + [a for anchors in ANCHORS for a in anchors]
        for kind in KINDS:
            obj = objective(kind)
            for t in [*rng.normal(scale=3.0, size=50), *kinks]:
                lo, hi = obj.subgradient_box(float(t))
                selection = obj.subgradient(np.full(N, t))
                assert np.all(lo - 1e-12 <= selection) and np.all(selection <= hi + 1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_box_matches_the_vertex_loop(self, offset):
        # At each center, between centers, on the shared center and outside the data.
        centers = CENTERS + offset
        ordered = np.unique(centers)
        points = [*ordered, *(0.5 * (ordered[1:] + ordered[:-1])),
                  ordered[0] - 1.0, ordered[-1] + 1.0]
        for kind in (Quadratic, Absolute):
            obj = kind(path_graph(N), centers)
            for x_star in points:
                lo, hi = obj.subgradient_box(float(x_star))
                ref_lo, ref_hi = reference_subgradient_box(obj, float(x_star))
                assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)


class TestProx:
    def test_quadratic_closed_form(self, rng):
        rho = rng.uniform(0.5, 2.0, N)
        x = rng.normal(size=N)
        expected = (CENTERS + rho * x) / (1.0 + rho)
        assert np.array_equal(objective(Quadratic).prox(rho, x), expected)

    def test_absolute_soft_threshold(self):
        obj = Absolute(path_graph(3), [1.0, 1.0, 1.0])
        # Shrink 1.0 by 1/2; 0.3 lies inside the dead zone of width 1; shrink -4.0 by 2.
        y = obj.prox(np.array([2.0, 1.0, 0.5]), [2.0, 1.3, -3.0])
        assert np.array_equal(y, [1.5, 1.0, -1.0])

    @given(
        t=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
        omega=st.floats(1e-3, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_soft_threshold_properties(self, t, omega):
        # Absolute.prox with center 0 and weight 1/omega shrinks t toward 0 by omega.
        t = np.array(t)
        obj = Absolute(path_graph(t.size), np.zeros(t.size))
        s = obj.prox(1.0 / omega, t)
        assert np.all(np.abs(s) <= np.maximum(np.abs(t) - omega, 0.0) + 1e-12)
        assert np.all(s * t >= 0.0)
        assert np.allclose(obj.prox(1.0 / omega, -t), -s, rtol=0.0, atol=1e-12)

    def test_prox_matches_golden_section(self, rng):
        # Value-only golden section cannot localize a smooth minimum beyond
        # sqrt(eps), so require positional agreement at that level plus
        # energy dominance of the closed form, agent by agent.
        for kind in KINDS:
            obj = objective(kind)
            parts = [scalar(kind, v) for v in range(N)]
            for _ in range(20):
                rho = rng.uniform(0.1, 5.0, N)
                x = rng.normal(scale=4.0, size=N)
                y = obj.prox(rho, x)
                for v, f in enumerate(parts):
                    span = 20.0 + abs(x[v])
                    energy = lambda t: f(t) + 0.5 * rho[v] * (t - x[v]) ** 2
                    oracle = golden_section(energy, -span, span)
                    assert abs(y[v] - oracle) <= 2e-6
                    assert energy(y[v]) <= energy(oracle) + 1e-12

    def test_prox_matches_subderivative_bisection(self, rng):
        # Independent root find on the strictly increasing stationarity
        # function, every agent at once, pins the minimizer to full precision.
        for kind in KINDS:
            obj = objective(kind)
            for _ in range(20):
                rho = rng.uniform(0.1, 5.0, N)
                x = rng.normal(scale=4.0, size=N)
                lo, hi = np.full(N, -60.0), np.full(N, 60.0)
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    below = obj.subgradient(mid) + rho * (mid - x) < 0.0
                    lo = np.where(below, mid, lo)
                    hi = np.where(below, hi, mid)
                assert np.abs(obj.prox(rho, x) - 0.5 * (lo + hi)).max() <= 1e-10

    def test_stubborn_prox_hits_anchor(self):
        # Strong anchor pull keeps the minimizer pinned at the anchor.
        obj = AnchoredQuadratic([0.0], [[1.0]], 5.0)
        assert np.array_equal(obj.prox(1.0, [1.0]), [1.0])

    def test_stubborn_prox_repeated_anchors(self, rng):
        obj = AnchoredQuadratic([0.5], [[1.0, 1.0, 1.0]], 0.7)
        for _ in range(20):
            rho = float(rng.uniform(0.2, 3.0))
            x = float(rng.normal(scale=3.0))
            y = float(obj.prox(rho, [x])[0])
            energy = lambda t: obj.value([t]) + 0.5 * rho * (t - x) ** 2
            oracle = golden_section(energy, -20.0, 20.0)
            assert abs(y - oracle) <= 2e-6
            assert energy(y) <= energy(oracle) + 1e-12

    def test_prox_optimality_condition(self, rng):
        # rho (x - prox(x)) is a subgradient at the prox point.
        for kind in KINDS:
            obj = objective(kind)
            for _ in range(100):
                rho = rng.uniform(0.1, 4.0, N)
                x = rng.normal(scale=3.0, size=N)
                p = obj.prox(rho, x)
                slope = rho * (x - p)
                for d in (np.full(N, 1e-6), np.full(N, -1e-6), rng.choice([-1e-6, 1e-6], N)):
                    assert obj.value(p + d) >= obj.value(p) + slope @ d - 1e-10

    def test_prox_nonexpansive(self, rng):
        for kind in KINDS:
            obj = objective(kind)
            for _ in range(200):
                rho = rng.uniform(0.1, 4.0, N)
                x, y = rng.normal(scale=3.0, size=(2, N))
                assert np.all(np.abs(obj.prox(rho, x) - obj.prox(rho, y)) <= np.abs(x - y) + 1e-12)

    def test_rejects_nonpositive_rho(self):
        for kind in KINDS:
            obj = objective(kind)
            for rho in (0.0, -1.0, np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]), np.nan):
                with pytest.raises(ValueError):
                    obj.prox(rho, CENTERS)

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["scalar", "first", "last"])
    def test_prox_weight_check_names_the_smallest_weight(self, kind, bad, where):
        if where == "scalar":
            rho = bad
        else:
            rho = np.full(N, 2.0)
            rho[0 if where == "first" else -1] = bad
        with pytest.raises(ValueError, match=f"prox weight must be positive, got {bad}"):
            objective(kind).prox(rho, CENTERS)


class TestAggregate:
    def test_value_is_plain_sum(self, rng):
        x0 = rng.normal(size=5)
        x = rng.normal(size=5)
        g = complete_graph(5)
        expected = sum(0.5 * (x[v] - x0[v]) ** 2 for v in range(5))
        assert np.isclose(Quadratic(g, x0).value(x), expected, rtol=0.0, atol=1e-14)
        expected = sum(abs(x[v] - x0[v]) for v in range(5))
        assert np.isclose(Absolute(g, x0).value(x), expected, rtol=0.0, atol=1e-14)

    def test_vectorized_matches_scalar(self, rng):
        # Every agent's entry equals its one-agent objective's, bitwise.
        for kind in KINDS:
            obj = objective(kind)
            x = rng.normal(size=N)
            rho = rng.uniform(0.5, 2.0, size=N)
            prox, grad = obj.prox(rho, x), obj.subgradient(x)
            for v in range(N):
                part = objective(kind, [v])
                assert prox[v] == part.prox(rho[v], x[v:v + 1])[0]
                assert grad[v] == part.subgradient(x[v:v + 1])[0]

    def test_size_mismatch(self):
        g = complete_graph(3)
        for kind in (Quadratic, Absolute):
            for centers in ([0.0, 0.0], np.zeros((3, 1))):
                with pytest.raises(InvalidFieldError):
                    kind(g, centers)
