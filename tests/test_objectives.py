import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvconsensus import (
    Absolute,
    AggregateObjective,
    CustomObjective,
    Quadratic,
    QuadraticPlusStubborn,
    UnsupportedOperationError,
    aggregate_quadratic,
    complete_graph,
    soft_threshold,
)

ALL_KINDS = [
    Quadratic(0.0),
    Quadratic(3.0),
    Absolute(1.0),
    Absolute(-2.5),
    QuadraticPlusStubborn(0.0, [2.0], 1.0),
    QuadraticPlusStubborn(1.5, [-1.0, 0.5, 0.5, 4.0], 0.3),
]


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
        assert Quadratic(3.0).value(3.0) == 0.0

    def test_absolute(self):
        assert Absolute(1.0).value(-1.0) == 2.0

    def test_quadratic_plus_stubborn(self):
        obj = QuadraticPlusStubborn(0.0, [2.0], 1.0)
        assert obj.value(1.0) == 0.5 + 1.0

    def test_midpoint_convexity(self, rng):
        for obj in ALL_KINDS:
            for _ in range(200):
                x, y = rng.normal(scale=3.0, size=2)
                mid = obj.value(0.5 * (x + y))
                assert mid <= 0.5 * obj.value(x) + 0.5 * obj.value(y) + 1e-9


class TestSubgradients:
    def test_quadratic_gradient(self):
        assert Quadratic(2.0).subgradient(5.0) == 3.0

    def test_absolute_kink_is_zero(self):
        assert Absolute(1.5).subgradient(1.5) == 0.0

    def test_absolute_sides(self):
        assert Absolute(0.0).subgradient(2.0) == 1.0
        assert Absolute(0.0).subgradient(-2.0) == -1.0

    def test_subgradient_inequality(self, rng):
        for obj in ALL_KINDS:
            x = rng.normal(scale=3.0, size=10_000)
            y = rng.normal(scale=3.0, size=10_000)
            fx = np.array([obj.value(t) for t in x])
            fy = np.array([obj.value(t) for t in y])
            gx = np.array([obj.subgradient(t) for t in x])
            assert np.all(fy >= fx + gx * (y - x) - 1e-10)

    def test_interval_contains_point_selection(self, rng):
        for obj in ALL_KINDS:
            for t in rng.normal(scale=3.0, size=50):
                lo, hi = obj.subgradient_interval(float(t))
                assert lo - 1e-12 <= obj.subgradient(float(t)) <= hi + 1e-12


class TestProx:
    def test_quadratic_closed_form(self):
        obj = Quadratic(1.0)
        rho, x = 2.0, 4.0
        assert np.isclose(obj.prox(rho, x), (1.0 + rho * x) / (1.0 + rho), atol=1e-15)

    def test_absolute_soft_threshold(self):
        obj = Absolute(1.0)
        assert np.isclose(obj.prox(2.0, 2.0), 1.0 + soft_threshold(1.0, 0.5), atol=1e-15)
        assert obj.prox(1.0, 1.3) == 1.0  # inside the dead zone

    @given(
        t=st.floats(-50, 50, allow_nan=False),
        omega=st.floats(0, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_soft_threshold_properties(self, t, omega):
        s = soft_threshold(t, omega)
        assert abs(s) <= max(abs(t) - omega, 0.0) + 1e-12
        assert s * t >= 0.0
        assert np.isclose(soft_threshold(-t, omega), -s, atol=1e-12)

    def test_prox_matches_golden_section(self, rng):
        # Value-only golden section cannot localize a smooth minimum beyond
        # sqrt(eps), so require positional agreement at that level plus
        # energy dominance of the closed form.
        for obj in ALL_KINDS:
            for _ in range(40):
                rho = float(rng.uniform(0.1, 5.0))
                x = float(rng.normal(scale=4.0))
                y = obj.prox(rho, x)
                span = 20.0 + abs(x)
                energy = lambda t: obj.value(t) + 0.5 * rho * (t - x) ** 2
                oracle = golden_section(energy, -span, span)
                assert abs(y - oracle) <= 2e-6
                assert energy(y) <= energy(oracle) + 1e-12

    def test_prox_matches_subderivative_bisection(self, rng):
        # Independent root find on the strictly increasing stationarity
        # function pins the minimizer to full precision.
        for obj in ALL_KINDS:
            for _ in range(40):
                rho = float(rng.uniform(0.1, 5.0))
                x = float(rng.normal(scale=4.0))

                def slope(t: float) -> float:
                    return obj.subgradient(t) + rho * (t - x)

                lo, hi = -60.0, 60.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if slope(mid) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                assert abs(obj.prox(rho, x) - 0.5 * (lo + hi)) <= 1e-10

    def test_stubborn_prox_hits_anchor(self):
        # Strong anchor pull keeps the minimizer pinned at the anchor.
        obj = QuadraticPlusStubborn(0.0, [1.0], 5.0)
        assert obj.prox(1.0, 1.0) == 1.0

    def test_stubborn_prox_repeated_anchors(self, rng):
        obj = QuadraticPlusStubborn(0.5, [1.0, 1.0, 1.0], 0.7)
        for _ in range(20):
            rho = float(rng.uniform(0.2, 3.0))
            x = float(rng.normal(scale=3.0))
            y = obj.prox(rho, x)
            energy = lambda t: obj.value(t) + 0.5 * rho * (t - x) ** 2
            oracle = golden_section(energy, -20.0, 20.0)
            assert abs(y - oracle) <= 2e-6
            assert energy(y) <= energy(oracle) + 1e-12

    def test_prox_optimality_condition(self, rng):
        # rho (x - prox(x)) is a subgradient at the prox point.
        for obj in ALL_KINDS:
            for _ in range(100):
                rho = float(rng.uniform(0.1, 4.0))
                x = float(rng.normal(scale=3.0))
                p = obj.prox(rho, x)
                slope = rho * (x - p)
                for eps in (1e-6, -1e-6):
                    assert obj.value(p + eps) >= obj.value(p) + slope * eps - 1e-10

    def test_prox_nonexpansive(self, rng):
        for obj in ALL_KINDS:
            for _ in range(200):
                rho = float(rng.uniform(0.1, 4.0))
                x, y = rng.normal(scale=3.0, size=2)
                assert abs(obj.prox(rho, x) - obj.prox(rho, y)) <= abs(x - y) + 1e-12

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            Quadratic(0.0).prox(0.0, 1.0)


class TestCustomObjective:
    def test_callable_passthrough(self):
        obj = CustomObjective(lambda x: x**4, lambda x: 4 * x**3)
        assert obj.value(2.0) == 16.0
        assert obj.subgradient(2.0) == 32.0

    def test_prox_unsupported(self):
        obj = CustomObjective(lambda x: x**2, lambda x: 2 * x)
        with pytest.raises(UnsupportedOperationError):
            obj.prox(1.0, 0.0)

    def test_prox_provided(self):
        obj = CustomObjective(
            lambda x: 0.5 * x**2,
            lambda x: x,
            prox=lambda rho, x: rho * x / (1.0 + rho),
        )
        assert np.isclose(obj.prox(1.0, 2.0), 1.0, atol=1e-15)


class TestAggregate:
    def test_value_is_plain_sum(self, rng):
        g = complete_graph(5)
        x0 = rng.normal(size=5)
        objs = aggregate_quadratic(g, x0)
        x = rng.normal(size=5)
        expected = sum(0.5 * (x[v] - x0[v]) ** 2 for v in range(5))
        assert np.isclose(objs.value(x), expected, atol=1e-14)

    def test_mixed_kind_paths(self, rng):
        g = complete_graph(3)
        objs = AggregateObjective(
            g, [Quadratic(1.0), Absolute(0.0), QuadraticPlusStubborn(0.0, [1.0], 0.5)]
        )
        x = rng.normal(size=3)
        direct = sum(o.value(float(t)) for o, t in zip(objs.objectives, x))
        assert np.isclose(objs.value(x), direct, atol=1e-14)
        sub = objs.subgradient_vector(x)
        assert sub.shape == (3,)
        prox = objs.prox_vector(np.array([1.0, 2.0, 3.0]), x)
        assert np.isclose(prox[0], objs.objectives[0].prox(1.0, float(x[0])), atol=1e-14)

    def test_vectorized_matches_scalar(self, rng):
        g = complete_graph(6)
        centers = rng.normal(size=6)
        objs = aggregate_quadratic(g, centers)
        x = rng.normal(size=6)
        rho = rng.uniform(0.5, 2.0, size=6)
        scalar = [o.prox(float(r), float(t)) for o, r, t in zip(objs.objectives, rho, x)]
        assert np.allclose(objs.prox_vector(rho, x), scalar, atol=1e-14)

    def test_size_mismatch(self):
        g = complete_graph(3)
        with pytest.raises(Exception):
            AggregateObjective(g, [Quadratic(0.0)] * 2)
