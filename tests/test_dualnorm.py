import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvconsensus import (
    DomainError,
    Graph,
    SizeCapError,
    UnsupportedGraphError,
    complete_graph,
    cycle_graph,
    dual_feasibility_gap,
    dual_norm_algorithm0,
    dual_norm_bruteforce,
    erdos_renyi,
    maximize_cut_functional,
    path_graph,
)
from tvconsensus import dualnorm
from tvconsensus.dualnorm import center_field

from conftest import (
    dinic_maximize_cut_functional,
    largest_entry_dual_norm,
    mean_zero_field,
    random_connected_graph,
)


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, v) for v in range(1, n)])


def first_connected_er(n: int, p: float) -> Graph:
    return next(g for g in (erdos_renyi(n, p, seed) for seed in range(100)) if g.is_connected)


def counted_cuts(monkeypatch) -> list[float]:
    """Record the level of each cut ``dual_norm_algorithm0`` makes from now on."""
    lams = []

    def counted(g, u, lam):
        lams.append(lam)
        return maximize_cut_functional(g, u, lam)

    monkeypatch.setattr(dualnorm, "maximize_cut_functional", counted)
    return lams


class TestRatioIteration:
    def test_zero_field(self):
        g = complete_graph(4)
        result = dual_norm_algorithm0(g, np.zeros(4))
        assert result.value == 0.0
        assert result.witness_subset == frozenset()
        assert result.iterations == 0

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        for c in (0.5, 1.0, 3.25):
            result = dual_norm_algorithm0(g, np.array([c, -c]))
            assert np.isclose(result.value, c, atol=1e-12)

    def test_k3_spread(self):
        g = complete_graph(3)
        result = dual_norm_algorithm0(g, np.array([2.0, -1.0, -1.0]))
        assert np.isclose(result.value, 1.0, atol=1e-12)
        assert result.witness_subset == frozenset({0})

    def test_negative_peak_uses_complement_start(self):
        g = complete_graph(3)
        result = dual_norm_algorithm0(g, np.array([-2.0, 1.0, 1.0]))
        assert np.isclose(result.value, 1.0, atol=1e-12)

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(UnsupportedGraphError):
            dual_norm_algorithm0(g, np.array([1.0, -1.0, 1.0, -1.0]))

    def test_lambda_sequence_strictly_increasing(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng)
            u = mean_zero_field(rng, g.n_vertices)
            result = dual_norm_algorithm0(g, u)
            seq = result.lambda_sequence
            assert all(b > a for a, b in zip(seq, seq[1:]))
            assert np.isclose(seq[-1], result.value, atol=1e-15)

    def test_iteration_bound(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng)
            u = mean_zero_field(rng, g.n_vertices)
            result = dual_norm_algorithm0(g, u)
            assert result.iterations <= g.n_edges
            assert not result.anomaly

    def test_stalled_ratio_keeps_the_previous_witness(self, monkeypatch):
        """A cut that reports a positive gain for a subset with no better ratio ends
        the iteration; the last improving subset stays the witness."""
        lams = []

        def no_better_cut(g, u, lam):
            lams.append(lam)
            return frozenset({0, 1}), 1.0  # ratio 1 / 1 on the path, below lam

        monkeypatch.setattr(dualnorm, "maximize_cut_functional", no_better_cut)
        result = dual_norm_algorithm0(path_graph(3), np.array([2.0, -1.0, -1.0]))
        assert lams == [2.0]
        assert result.value == 2.0
        assert result.witness_subset == frozenset({0})
        assert result.lambda_sequence == (2.0,)
        assert result.iterations == 1
        assert not result.anomaly

    def test_one_cut_when_a_leaf_beats_the_hub(self, monkeypatch):
        # The hub holds the largest |u| (ratio 3 / 5), leaf 1 the best |u| / deg
        # (1.5 / 1), which is the dual norm: the one cut only verifies the start.
        g = star_graph(6)
        u = np.array([3.0, -1.5, -0.5, -0.5, -0.25, -0.25])
        assert largest_entry_dual_norm(g, u).iterations == 2
        lams = counted_cuts(monkeypatch)
        result = dual_norm_algorithm0(g, u)
        assert lams == [1.5]
        assert (result.value, result.iterations) == (1.5, 1)
        assert result.witness_subset == frozenset(range(6)) - {1}

    def test_one_cut_on_a_sparse_random_graph(self, monkeypatch):
        g = erdos_renyi(400, 10 / 399, 0)
        assert g.is_connected
        u = center_field(np.random.default_rng(0).uniform(0.0, 1.0, 400))
        reference = largest_entry_dual_norm(g, u)
        assert reference.iterations == 7
        lams = counted_cuts(monkeypatch)
        result = dual_norm_algorithm0(g, u)
        assert len(lams) == result.iterations == 1
        assert result.value == reference.value
        assert result.witness_subset == reference.witness_subset

    def test_witness_achieves_value(self, rng):
        from tvconsensus import perimeter

        for _ in range(40):
            g = random_connected_graph(rng)
            u = mean_zero_field(rng, g.n_vertices)
            result = dual_norm_algorithm0(g, u)
            witness = list(result.witness_subset)
            assert abs(
                result.value * perimeter(g, witness) - abs(u[witness].sum())
            ) <= 1e-9


class TestStartingPoint:
    """``dual_norm_algorithm0`` against ``largest_entry_dual_norm``, the same
    loop started at the largest |u| rather than the largest |u| / deg.

    Both starts are subsets whose ratio is a lower bound on the dual norm, so
    both loops end at its value.  With continuous data the maximizer is unique
    and found by the same cut, so value and witness are equal bit for bit.
    Integer-valued data has ties: another optimal subset can be the witness,
    and its sum, taken over other entries, can differ in the last bits (of the
    108 such fields here, 7 end at another witness and 4 at another value, by
    at most 6.7e-16 relative), so the value is compared to 1e-14 relative.
    """

    GRAPHS = {
        **{f"sparse-er{n}": first_connected_er(n, 4 / (n - 1)) for n in (12, 30, 60)},
        **{f"dense-er{n}": first_connected_er(n, 0.5) for n in (8, 25, 60)},
        **{f"path{n}": path_graph(n) for n in (2, 7, 60)},
        **{f"cycle{n}": cycle_graph(n) for n in (3, 8, 60)},
        **{f"star{n}": star_graph(n) for n in (3, 10, 60)},
        **{f"K{n}": complete_graph(n) for n in (4, 9, 60)},
    }

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_continuous_data_gives_the_same_answer_in_no_more_cuts(self, name):
        g = self.GRAPHS[name]
        for seed in range(6):
            u = center_field(np.random.default_rng(seed).uniform(0.0, 1.0, g.n_vertices))
            reference = largest_entry_dual_norm(g, u)
            result = dual_norm_algorithm0(g, u)
            assert result.value == reference.value
            assert result.witness_subset == reference.witness_subset
            assert result.iterations <= reference.iterations

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_integer_data_gives_the_same_value(self, name):
        g = self.GRAPHS[name]
        for seed in range(6):
            x = np.random.default_rng(seed).integers(0, 4, g.n_vertices).astype(float)
            if np.ptp(x) == 0.0:
                continue
            u = center_field(x)
            reference = largest_entry_dual_norm(g, u).value
            assert abs(dual_norm_algorithm0(g, u).value - reference) <= 1e-14 * reference


class TestEnumerationOracle:
    def test_matches_ratio_iteration_on_examples(self):
        g = Graph(2, [(0, 1)])
        for c in (0.5, 2.0):
            a = dual_norm_algorithm0(g, np.array([c, -c])).value
            b = dual_norm_bruteforce(g, np.array([c, -c])).value
            assert np.isclose(a, b, atol=1e-15)

    def test_path_three(self):
        g = path_graph(3)
        result = dual_norm_bruteforce(g, np.array([1.0, 0.0, -1.0]))
        assert np.isclose(result.value, 1.0, atol=1e-15)
        assert result.witness_subset in (frozenset({0}), frozenset({2}))

    def test_k4_peak(self):
        g = complete_graph(4)
        result = dual_norm_bruteforce(g, np.array([3.0, -1.0, -1.0, -1.0]))
        assert np.isclose(result.value, 1.0, atol=1e-15)
        assert result.witness_subset == frozenset({0})

    def test_witness_is_small_and_connected(self, rng):
        from tvconsensus import connected_components

        for _ in range(20):
            g = random_connected_graph(rng, n_max=8)
            u = mean_zero_field(rng, g.n_vertices)
            result = dual_norm_bruteforce(g, u)
            assert 1 <= len(result.witness_subset) <= g.n_vertices / 2
            assert len(connected_components(g, result.witness_subset)) == 1

    @pytest.mark.parametrize("g", [path_graph(3), Graph(1, [])])
    def test_zero_field(self, g):
        result = dual_norm_bruteforce(g, np.zeros(g.n_vertices))
        assert (result.value, result.witness_subset, result.iterations) == (0.0, frozenset(), 0)

    @pytest.mark.parametrize("g, u", [(path_graph(3), [1.0, 1.0, 1.0]), (Graph(1, []), [2.0])])
    def test_rejects_a_field_that_is_not_mean_zero(self, g, u):
        with pytest.raises(DomainError, match=r"^node field must have zero mean, got mean "):
            dual_norm_bruteforce(g, u)
        with pytest.raises(DomainError, match=r"^node field must have zero mean, got mean "):
            dual_norm_algorithm0(g, u)

    def test_size_cap(self):
        g = complete_graph(18)
        with pytest.raises(SizeCapError):
            dual_norm_bruteforce(g, mean_zero_field(np.random.default_rng(0), 18))

    def test_oracle_equivalence(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng)
            u = mean_zero_field(rng, g.n_vertices)
            fast = dual_norm_algorithm0(g, u)
            slow = dual_norm_bruteforce(g, u)
            assert abs(fast.value - slow.value) <= 1e-9


class TestNormAxioms:
    def test_homogeneity(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, n_max=9)
            u = mean_zero_field(rng, g.n_vertices)
            c = float(rng.normal())
            a = dual_norm_algorithm0(g, c * u).value
            b = abs(c) * dual_norm_algorithm0(g, u).value
            assert np.isclose(a, b, rtol=1e-10, atol=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, n_max=9)
            u = mean_zero_field(rng, g.n_vertices)
            v = mean_zero_field(rng, g.n_vertices)
            lhs = dual_norm_algorithm0(g, u + v).value
            rhs = dual_norm_algorithm0(g, u).value + dual_norm_algorithm0(g, v).value
            assert lhs <= rhs + 1e-10

    def test_definite_on_connected(self, rng):
        g = random_connected_graph(rng)
        u = mean_zero_field(rng, g.n_vertices)
        assert dual_norm_algorithm0(g, u).value > 0.0

    def test_flow_sandwich(self, rng):
        # For u = div(xi), the net flow of xi out of each vertex, the dual norm
        # never exceeds the sup norm of xi.
        for _ in range(30):
            g = random_connected_graph(rng)
            xi = rng.normal(size=g.n_edges)
            n = g.n_vertices
            u = np.bincount(g.edge_src, xi, n) - np.bincount(g.edge_dst, xi, n)
            u = u - u.mean()  # numerically exact zero mean
            value = dual_norm_algorithm0(g, u).value
            assert value <= np.abs(xi).max() + 1e-10


class TestScaleInvariance:
    @pytest.mark.parametrize("g", [cycle_graph(10), complete_graph(8)], ids=["C10", "K8"])
    def test_exact_at_any_data_scale(self, g):
        # Regression: absolute tolerances in the cut layer once lost 43% of
        # the norm at scale 1e-13 on C10 and rejected the field at scale 1e6.
        u = mean_zero_field(np.random.default_rng(3), g.n_vertices)
        reference = dual_norm_bruteforce(g, u).value
        for s in (1e-15, 1e-13, 1e-6, 1.0, 1e6):
            value = dual_norm_algorithm0(g, s * u).value
            assert abs(value - s * reference) <= 1e-12 * s * reference

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneous_on_random_graphs(self, seed, log_scale):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng)
        u = mean_zero_field(rng, g.n_vertices)
        s = 10.0**log_scale
        expected = s * dual_norm_algorithm0(g, u).value
        assert dual_norm_algorithm0(g, s * u).value == pytest.approx(expected, rel=1e-9)


class TestCompleteGraphClosedForm:
    @pytest.mark.parametrize("n", [5, 20, 60, 99, 150])
    def test_matches_top_k_prefix_sums(self, n):
        # On K_N a k-subset has perimeter k(N-k), and for each k the best
        # subset holds the k largest (or smallest) values of u.
        x = np.random.default_rng(n).uniform(0.0, 1.0, n)
        u = x - x.mean()
        k = np.arange(1, n)
        prefix = np.cumsum(np.sort(u)[::-1])[:-1]
        closed_form = float(np.max(np.abs(prefix) / (k * (n - k))))
        value = dual_norm_algorithm0(complete_graph(n), u).value
        assert abs(value - closed_form) <= 1e-12 * closed_form

    @pytest.mark.parametrize("n", [99, 100, 150])
    def test_same_iteration_as_the_max_flow(self, n, monkeypatch):
        g = complete_graph(n)
        draws = [np.random.default_rng(seed).uniform(0.0, 1.0, n) for seed in range(5)]
        if n == 99:
            draws.append(np.random.default_rng(42).uniform(0.0, 1.0, n))  # the paper's draw
        fields = [center_field(x) for x in draws]
        closed_form = [dual_norm_algorithm0(g, u) for u in fields]
        monkeypatch.setattr(dualnorm, "maximize_cut_functional", dinic_maximize_cut_functional)
        for u, fast in zip(fields, closed_form):
            flow = dual_norm_algorithm0(g, u)
            assert fast.value == flow.value
            assert fast.witness_subset == flow.witness_subset
            assert fast.iterations == flow.iterations
            assert fast.lambda_sequence == flow.lambda_sequence


class TestFeasibilityGap:
    def test_zero_field(self):
        g = complete_graph(3)
        assert dual_feasibility_gap(g, np.zeros(3), lam=1.0) == 0.0

    def test_single_edge_feasible(self):
        g = Graph(2, [(0, 1)])
        assert np.isclose(
            dual_feasibility_gap(g, np.array([1.0, -1.0]), lam=2.0), 0.0, atol=1e-12
        )

    def test_single_edge_infeasible(self):
        g = Graph(2, [(0, 1)])
        assert np.isclose(
            dual_feasibility_gap(g, np.array([1.0, -1.0]), lam=0.25), 0.75, atol=1e-12
        )

    def test_zero_gap_iff_inside_ball(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, n_max=9)
            u = mean_zero_field(rng, g.n_vertices)
            norm = dual_norm_algorithm0(g, u).value
            assert dual_feasibility_gap(g, u, lam=1.01 * norm) <= 1e-10
            if norm > 1e-6:
                assert dual_feasibility_gap(g, u, lam=0.8 * norm) > 0.0
