import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvconsensus import (
    Graph,
    InvalidFieldError,
    UnsupportedGraphError,
    coarea_decompose,
    complete_graph,
    connected_components,
    dual_norm_algorithm0,
    is_dual_certificate,
    path_graph,
    perimeter,
    tv_norm,
)
from tvconsensus import maxflow, tv

from conftest import mean_zero_field, random_connected_graph


class TestTvNorm:
    def test_constant_is_zero(self):
        g = complete_graph(6)
        assert tv_norm(g, 2.5 * np.ones(6)) == 0.0

    def test_indicator_equals_perimeter(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng)
            size = int(rng.integers(1, g.n_vertices))
            subset = list(rng.choice(g.n_vertices, size=size, replace=False))
            x = np.zeros(g.n_vertices)
            x[subset] = 1.0
            assert tv_norm(g, x) == perimeter(g, subset)

    def test_path_example(self):
        assert tv_norm(path_graph(3), [0.0, 2.0, 1.0]) == 3.0

    def test_matches_the_sum_over_reversed_input_pairs(self, rng):
        for _ in range(20):
            base = random_connected_graph(rng)
            edges = np.column_stack([base.edge_src, base.edge_dst])[::-1]
            flip = rng.random(base.n_edges) < 0.5
            edges[flip] = edges[flip, ::-1]
            x = rng.normal(size=base.n_vertices)
            expected = sum(abs(x[v] - x[w]) for v, w in edges.tolist())
            assert tv_norm(Graph(base.n_vertices, edges), x) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        g = path_graph(3)
        for x in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], [1.0, np.nan, 2.0],
                  [1.0, np.inf, 2.0]):
            with pytest.raises(InvalidFieldError):
                tv_norm(g, x)

    def test_translation_invariance(self, rng):
        g = random_connected_graph(rng)
        x = rng.normal(size=g.n_vertices)
        assert np.isclose(tv_norm(g, x + 17.3), tv_norm(g, x), atol=1e-10)

    def test_triangle_inequality_and_homogeneity(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng)
            x = rng.normal(size=g.n_vertices)
            y = rng.normal(size=g.n_vertices)
            c = float(rng.normal())
            assert tv_norm(g, x + y) <= tv_norm(g, x) + tv_norm(g, y) + 1e-10
            assert np.isclose(tv_norm(g, c * x), abs(c) * tv_norm(g, x), atol=1e-9)

    @given(c=st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity_on_fixed_field(self, c):
        g = path_graph(4)
        x = np.array([0.0, 1.0, -2.0, 0.5])
        assert np.isclose(tv_norm(g, c * x), abs(c) * tv_norm(g, x), rtol=1e-12, atol=1e-9)

    def test_zero_iff_constant_per_component(self):
        g = Graph(4, [(0, 1), (2, 3)])
        x = np.array([5.0, 5.0, -1.0, -1.0])
        assert tv_norm(g, x) == 0.0
        x[1] = 5.1
        assert tv_norm(g, x) > 0.0
        assert len(connected_components(g, range(4))) == 2


class TestCoarea:
    def test_constant_field(self):
        g = complete_graph(4)
        dec = coarea_decompose(g, np.ones(4))
        assert dec.perimeters == ()
        assert dec.integral() == 0.0

    def test_scaled_indicator(self):
        g = complete_graph(5)
        x = np.zeros(5)
        x[[0, 1]] = 2.5
        dec = coarea_decompose(g, x)
        assert dec.thresholds == (0.0, 2.5)
        assert dec.perimeters == (perimeter(g, [0, 1]),)
        assert np.isclose(dec.integral(), 2.5 * perimeter(g, [0, 1]), atol=1e-12)

    def test_identity_on_random_fields(self, rng):
        for _ in range(200):
            g = random_connected_graph(rng)
            x = rng.normal(size=g.n_vertices)
            dec = coarea_decompose(g, x)
            assert abs(dec.integral() - tv_norm(g, x)) <= 1e-9

    def test_identity_with_ties(self, rng):
        g = complete_graph(5)
        x = np.array([1.0, 1.0, 0.0, 0.0, -2.0])
        dec = coarea_decompose(g, x)
        assert abs(dec.integral() - tv_norm(g, x)) <= 1e-12


class TestDualCertificate:
    def test_zero_pair(self):
        g = path_graph(3)
        assert is_dual_certificate(g, np.zeros(3), np.zeros(3))

    def test_any_small_u_certifies_zero(self, rng):
        g = complete_graph(4)
        # Dual norm of u is at most ||u||_1 / 2 <= 1 here; <u, 0> = 0 = tv(0).
        u = np.array([0.5, -0.5, 0.25, -0.25])
        assert is_dual_certificate(g, u, np.zeros(4))

    def test_single_edge_certificate(self):
        g = Graph(2, [(0, 1)])
        assert is_dual_certificate(g, np.array([-1.0, 1.0]), np.array([0.0, 1.0]))

    def test_rejects_large_dual_norm(self):
        g = Graph(2, [(0, 1)])
        assert not is_dual_certificate(g, np.array([-2.0, 2.0]), np.array([0.0, 1.0]))

    def test_rejects_wrong_pairing(self):
        g = Graph(2, [(0, 1)])
        # dual norm fine, but <u, x> = -1 != tv(x) = 1
        assert not is_dual_certificate(g, np.array([1.0, -1.0]), np.array([0.0, 1.0]))

    def test_rejects_nonzero_mean(self):
        g = Graph(2, [(0, 1)])
        assert not is_dual_certificate(g, np.array([0.5, 1.0]), np.array([0.0, 1.0]))

    def test_disconnected_unsupported(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(UnsupportedGraphError):
            is_dual_certificate(g, np.zeros(4), np.zeros(4))

    def test_mean_tolerance_is_relative(self):
        # sum(u) = 2e-12: not a TV subgradient, whatever an absolute tolerance says.
        assert not is_dual_certificate(Graph(2, [(0, 1)]), [1e-12, 1e-12], [0.0, 0.0])

    def test_one_cut_and_no_dual_norm(self, rng, monkeypatch):
        # The dual norm iteration would take several cuts; the certificate takes one.
        calls = []

        def counted(inner, name):
            def wrapper(*args):
                calls.append(name)
                return inner(*args)
            return wrapper

        monkeypatch.setattr(tv, "maximize_cut_functional",
                            counted(tv.maximize_cut_functional, "functional"))
        monkeypatch.setattr(maxflow, "min_cut", counted(maxflow.min_cut, "cut"))
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        field = mean_zero_field(rng, 6)
        u = field / dual_norm_algorithm0(g, field).value
        calls.clear()
        assert is_dual_certificate(g, u, np.zeros(6))
        assert calls == ["functional", "cut"]
        calls.clear()
        assert not is_dual_certificate(g, 1.5 * u, np.zeros(6))
        assert calls == ["functional", "cut"]

    def test_pairing_tolerance_is_relative(self):
        # <u, x> = 1 against tv(x) = 3; at scale 1e-12 an absolute tolerance
        # took the miss of 2e-12 for a match.
        g = path_graph(4)
        u = np.array([-1.0, 1.0, 0.0, 0.0])
        x = np.array([0.0, 1.0, 2.0, 3.0])
        for s in (1.0, 1e-12):
            assert not is_dual_certificate(g, u, s * x)

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-12.0, 6.0),
        offset=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=30, deadline=None)
    def test_verdicts_ignore_shift_and_scale(self, seed, log_scale, offset):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng)
        # u / ||u||_* pairs with the indicator of its witness set S to exactly
        # perimeter(S) = tv(1_S), so it certifies 1_S and not 1 - 1_S.
        field = mean_zero_field(rng, g.n_vertices)
        result = dual_norm_algorithm0(g, field)
        u = field / result.value
        inside = np.zeros(g.n_vertices)
        inside[list(result.witness_subset)] = 1.0
        scale = 10.0**log_scale
        for x, verdict in ((inside, True), (1.0 - inside, False)):
            for shown in (x, scale * x, x + offset):
                assert is_dual_certificate(g, u, shown) == verdict
