from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvconsensus import (
    Absolute,
    AdmmEngine,
    DomainError,
    DualNormResult,
    Graph,
    InvalidFieldError,
    IterationAnomalyError,
    Quadratic,
    SizeCapError,
    StopRule,
    UnsupportedGraphError,
    ac_critical_lambda,
    build_network,
    certify_consensus_minimizer,
    complete_graph,
    cycle_graph,
    dual_feasibility_gap,
    dual_norm_algorithm0,
    dual_norm_bruteforce,
    erdos_renyi,
    is_dual_certificate,
    maximize_cut_functional,
    mc_lambda0_exact,
    mc_lambda0_upper,
    path_graph,
    run,
    stubborn_limit,
    tv_norm,
)

from tvconsensus import analysis, maxflow
from tvconsensus.analysis import CERTIFIED, VIOLATED, median_sign_pattern
from tvconsensus.dualnorm import center_field

from conftest import random_connected_graph
from reference_objectives import reference_subgradient_box

INF = float("inf")


def grid_consensus_minimum(objs, x0):
    """Independent 1-D search for the best consensus state."""
    lo, hi = x0.min() - 1.0, x0.max() + 1.0
    grid = np.arange(lo, hi + 1e-12, 1e-4)
    values = np.array([objs.value(np.full(len(x0), c)) for c in grid])
    return float(grid[int(np.argmin(values))])


class TestCertify:
    def test_average_certified_above_critical(self, rng):
        g = complete_graph(6)
        x0 = rng.normal(size=6)
        crit = ac_critical_lambda(g, x0)
        objs = Quadratic(g, x0)
        cert = certify_consensus_minimizer(g, objs, float(x0.mean()), 1.2 * crit)
        assert cert.verdict == "certified"
        assert abs(cert.mean_u) <= 1e-12
        assert cert.dual_gap <= 1e-9

    def test_average_violated_below_critical(self, rng):
        g = complete_graph(6)
        x0 = rng.normal(size=6)
        crit = ac_critical_lambda(g, x0)
        objs = Quadratic(g, x0)
        cert = certify_consensus_minimizer(g, objs, float(x0.mean()), 0.5 * crit)
        assert cert.verdict == "violated"
        assert cert.dual_gap > 0.0

    def test_single_edge_example(self):
        g = Graph(2, [(0, 1)])
        objs = Quadratic(g, np.array([0.0, 2.0]))
        cert = certify_consensus_minimizer(g, objs, 1.0, 1.0)
        assert cert.verdict == "certified"
        assert np.allclose(cert.u, [1.0, -1.0], atol=1e-12)

    def test_wrong_candidate_violated(self, rng):
        g = complete_graph(5)
        x0 = rng.normal(size=5)
        objs = Quadratic(g, x0)
        lam = 2.0 * ac_critical_lambda(g, x0)
        cert = certify_consensus_minimizer(g, objs, float(x0.mean()) + 0.5, lam)
        assert cert.verdict == "violated"

    def test_median_certified_for_absolute_objectives(self, rng):
        g = complete_graph(7)
        x0 = rng.normal(size=7)
        objs = Absolute(g, x0)
        lam = 0.5  # far above the worst-case pattern level for K7
        cert = certify_consensus_minimizer(g, objs, float(np.median(x0)), lam)
        assert cert.verdict == "certified"

    def test_certified_candidate_matches_grid_and_engine(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, n_max=7)
            x0 = rng.normal(size=g.n_vertices)
            objs = Quadratic(g, x0)
            crit = ac_critical_lambda(g, x0)
            lam = 1.3 * max(crit, 1e-3)
            cert = certify_consensus_minimizer(g, objs, float(x0.mean()), lam)
            assert cert.verdict == "certified"
            grid_best = grid_consensus_minimum(objs, x0)
            assert abs(grid_best - cert.x_star) <= 1e-4
            traj = run(
                AdmmEngine(lam, 1.0), g, x0, objs,
                stop=StopRule(200_000, INF, 1e-13), record_every=10**9,
            )
            assert np.abs(traj.final_x - cert.x_star).max() <= 1e-4

    def test_violated_candidate_does_not_minimize(self, rng):
        g = complete_graph(6)
        x0 = rng.normal(size=6)
        objs = Quadratic(g, x0)
        crit = ac_critical_lambda(g, x0)
        lam = 0.3 * crit
        cert = certify_consensus_minimizer(g, objs, float(x0.mean()), lam)
        assert cert.verdict == "violated"
        traj = run(
            AdmmEngine(lam, 1.0), g, x0, objs,
            stop=StopRule(200_000, INF, 1e-13), record_every=10**9,
        )
        candidate_energy = objs.value(np.full(6, x0.mean())) + lam * tv_norm(
            g, np.full(6, x0.mean())
        )
        limit_energy = objs.value(traj.final_x) + lam * tv_norm(g, traj.final_x)
        assert limit_energy < candidate_energy - 1e-9

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        objs = Quadratic(g, np.zeros(4))
        with pytest.raises(UnsupportedGraphError):
            certify_consensus_minimizer(g, objs, 0.0, 1.0)

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    def test_rejects_non_finite_x_star_and_lam_outside_the_open_half_line(self, kind):
        g = path_graph(3)
        objs = kind(g, np.array([0.1, 0.2, 0.3]))
        for x_star in (np.inf, -np.inf, np.nan):
            with pytest.raises(DomainError, match="x_star"):
                certify_consensus_minimizer(g, objs, x_star, 1.0)
        for lam in (0.0, -1.0, np.inf, np.nan):
            for x_star in (0.2, 100.0):
                with pytest.raises(DomainError, match="lam"):
                    certify_consensus_minimizer(g, objs, x_star, lam)

    @pytest.mark.parametrize(
        "scale, offset",
        [(1e-12, 0.0), (1e-10, 0.0), (1.0, 0.0), (1e6, 0.0), (1.0, 1e8), (1.0, -1e8)],
    )
    def test_verdicts_at_any_data_scale_and_offset(self, scale, offset):
        # Regression: with absolute tolerances, scales 1e-12 and 1e-10 certified
        # 0.5 * lambda_c (the gap fell below 1e-9), and offsets of 1e8 rejected
        # 1.5 * lambda_c (the mean of u rounded to -1.6e-8).
        g = complete_graph(30)
        x0 = np.random.default_rng(11).uniform(0.0, 1.0, 30)
        crit = ac_critical_lambda(g, x0)
        data = scale * x0 + offset
        objs = Quadratic(g, data)
        for factor, verdict in ((0.5, "violated"), (1.5, "certified")):
            cert = certify_consensus_minimizer(g, objs, float(data.mean()), factor * scale * crit)
            assert cert.verdict == verdict
        # A point 5% of the data spread off the mean is no minimizer at any offset.
        off_mean = float(data.mean()) + 0.05 * scale
        cert = certify_consensus_minimizer(g, objs, off_mean, 1.5 * scale * crit)
        assert cert.verdict == "violated"

    @pytest.mark.parametrize("offset", [0.0, 1e8, -1e8])
    def test_unbalanced_signs_violate_at_any_offset(self, offset):
        # 21 of 40 absolute-value subgradients are +1 and 19 are -1: mean 0.05.
        g = complete_graph(40)
        data = offset + np.arange(40.0)
        objs = Absolute(g, data)
        cert = certify_consensus_minimizer(g, objs, offset + 20.5, 100.0)
        assert cert.mean_u == pytest.approx(0.05)
        assert cert.verdict == "violated"

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-12.0, 6.0),
        offset=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=30, deadline=None)
    def test_verdicts_ignore_shift_and_scale(self, seed, log_scale, offset):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng)
        x0 = rng.uniform(0.0, 1.0, g.n_vertices)
        crit = ac_critical_lambda(g, x0)
        scale = 10.0**log_scale
        for data, level in ((x0, crit), (scale * x0, scale * crit), (x0 + offset, crit)):
            objs = Quadratic(g, data)
            for factor, verdict in ((0.5, "violated"), (1.5, "certified")):
                cert = certify_consensus_minimizer(g, objs, float(data.mean()), factor * level)
                assert cert.verdict == verdict

    @pytest.mark.parametrize("kind", [Quadratic, Absolute])
    @pytest.mark.parametrize("candidate", ["lower middle", "upper middle", "midpoint", "tie"])
    def test_array_box_keeps_the_median_certificate(self, kind, candidate):
        # With even n the two middle data values are kinks, and so is the median
        # when they tie; there the absolute boxes are intervals and the two box
        # cuts run.  The verdict, gap and selection match the per-agent loop.
        class LoopBox(kind):
            def subgradient_box(self, x_star):
                return reference_subgradient_box(self, x_star)

        x0 = np.array([0.3, -1.2, 2.5, 0.9, -0.4, 1.7, 0.1, 3.3])
        if candidate == "tie":
            x0[3] = 0.3
        x_star = {"lower middle": 0.3, "upper middle": 0.9}.get(candidate, float(np.median(x0)))
        for g in (complete_graph(8), cycle_graph(8)):
            for lam in (0.05, 0.5, 5.0):
                cert = certify_consensus_minimizer(g, kind(g, x0), x_star, lam)
                ref = certify_consensus_minimizer(g, LoopBox(g, x0), x_star, lam)
                assert (cert.verdict, cert.dual_gap) == (ref.verdict, ref.dual_gap)
                assert np.array_equal(cert.u, ref.u)

    EDGE_CASES = {
        # name: graph, data, lam, dual norm of the centered data, {kind: (verdict, gap)}
        "one vertex": (Graph(1, []), [0.7], 1.0, 0.0,
                       {Quadratic: ("certified", 0.0), Absolute: ("certified", 0.0)}),
        "edgeless": (Graph(3, []), [0.0, 1.0, 2.0], 1.0, UnsupportedGraphError, None),
        "isolated vertex": (Graph(3, [(0, 1)]), [0.0, 1.0, 2.0], 1.0, UnsupportedGraphError, None),
        "lambda near zero": (path_graph(2), [0.0, 1.0], 1e-300, 0.5,
                             {Quadratic: ("violated", 0.5), Absolute: ("violated", 1.0)}),
        "huge lambda": (path_graph(2), [0.0, 1.0], 1e300, 0.5,
                        {Quadratic: ("certified", 0.0), Absolute: ("certified", 0.0)}),
    }

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_dual_norm_and_certificates_on_edge_cases(self, case):
        g, data, lam, level, verdicts = self.EDGE_CASES[case]
        data = np.array(data)
        candidates = {Quadratic: float(data.mean()), Absolute: float(np.median(data))}
        if verdicts is None:
            calls = [lambda: dual_norm_algorithm0(g, center_field(data)),
                     lambda: ac_critical_lambda(g, data)]
            calls += [lambda kind=kind: certify_consensus_minimizer(g, kind(g, data), x, lam)
                      for kind, x in candidates.items()]
            for call in calls:
                with pytest.raises(UnsupportedGraphError):
                    call()
            return
        assert dual_norm_algorithm0(g, center_field(data)).value == level
        assert ac_critical_lambda(g, data) == level
        for kind, expected in verdicts.items():
            cert = certify_consensus_minimizer(g, kind(g, data), candidates[kind], lam)
            assert (cert.verdict, cert.dual_gap) == expected


def box_gains_by_enumeration(g, lo, hi, lam):
    """max_A lo(A) - lam * per(A) and max_A -hi(A) - lam * per(A), over every subset."""
    n = g.n_vertices
    inside = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    per = (inside[:, g.edge_src] != inside[:, g.edge_dst]).sum(axis=1)
    return float(np.max(inside @ lo - lam * per)), float(np.max(inside @ -hi - lam * per))


class WeightedAbsolute(Absolute):
    """weights[v] * |x - centers[v]|: the absolute box scaled per agent."""

    def __init__(self, g, centers, weights):
        super().__init__(g, centers)
        self.weights = weights

    def subgradient_box(self, x_star):
        lo, hi = reference_subgradient_box(self, x_star)
        return self.weights * lo, self.weights * hi


class TestCertificateAgainstEnumeration:
    """A zero-sum selection of the box lies in the dual ball iff both box gains are <= 0."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
    def test_verdict_matches_subset_enumeration(self, scale, offset):
        rng = np.random.default_rng([int(np.log10(scale)) + 6, int(offset / 1e6) + 1])
        verdicts = set()
        for _ in range(25):
            n = int(rng.integers(2, 8))
            while not (g := erdos_renyi(n, float(rng.uniform(0.3, 1.0)),
                                        int(rng.integers(2**31)))).is_connected:
                pass
            # Few distinct centres, so medians and data points tie across agents.
            centers = offset + scale * rng.integers(0, 3, size=n).astype(float)
            weights = scale * rng.integers(1, 4, size=n).astype(float)
            plain = Absolute(g, centers)
            weighted = WeightedAbsolute(g, centers, weights)
            for x_star in {*centers.tolist(), float(np.median(centers))}:
                unit_lo, unit_hi = reference_subgradient_box(plain, x_star)
                for objs, w, box_scale in ((plain, 1.0, 1.0), (weighted, weights, scale)):
                    lo, hi = w * unit_lo, w * unit_hi
                    for lam0 in (0.05, 0.125, 0.25, 0.29, 0.5, 0.7071, 1.0, 3.0):
                        lam = lam0 * box_scale
                        cert = certify_consensus_minimizer(g, objs, x_star, lam)
                        gains = box_gains_by_enumeration(g, lo, hi, lam)
                        slack = 1e-9 * box_scale
                        expected = CERTIFIED if max(gains) <= slack else VIOLATED
                        case = (n, g.edge_src.tolist(), g.edge_dst.tolist(), x_star, lam)
                        assert cert.verdict == expected, case
                        verdicts.add((cert.verdict, bool(np.any(lo != hi))))
                        if np.any(lo != hi):
                            assert abs(cert.dual_gap - max(gains)) <= slack, case
                        if cert.verdict == CERTIFIED:
                            assert np.all((lo - slack <= cert.u) & (cert.u <= hi + slack)), case
                            assert abs(cert.u.sum()) <= slack, case
        assert verdicts == {(CERTIFIED, True), (CERTIFIED, False), (VIOLATED, True), (VIOLATED, False)}


class TestCriticalLambda:
    def test_constant_data_needs_no_regularization(self):
        g = complete_graph(5)
        assert ac_critical_lambda(g, 3.0 * np.ones(5)) == 0.0

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert np.isclose(ac_critical_lambda(g, np.array([0.0, 2.0])), 1.0, atol=1e-12)

    def test_anomaly_raises(self, monkeypatch):
        def cut_off(g, u):
            return DualNormResult(1.0, frozenset({0}), iterations=1, anomaly=True)

        monkeypatch.setattr(analysis, "dual_norm_algorithm0", cut_off)
        with pytest.raises(IterationAnomalyError):
            ac_critical_lambda(Graph(2, [(0, 1)]), np.array([0.0, 2.0]))

    def test_matches_enumeration(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, n_max=9)
            x0 = rng.normal(size=g.n_vertices)
            fast = ac_critical_lambda(g, x0)
            slow = dual_norm_bruteforce(g, x0 - x0.mean()).value
            assert abs(fast - slow) <= 1e-9

    @pytest.mark.parametrize("offset", [1e3, 1e6, -1e6])
    def test_invariant_under_large_offsets(self, offset):
        # At 1e6 one centering pass leaves a residual mean above the
        # mean-zero tolerance on both draws.
        for n, seed in ((99, 42), (30, 11)):
            g = complete_graph(n)
            x0 = np.random.default_rng(seed).uniform(0.0, 1.0, n)
            expected = ac_critical_lambda(g, x0)
            assert ac_critical_lambda(g, x0 + offset) == pytest.approx(expected, rel=1e-9)


    @given(seed=st.integers(0, 2**32 - 1), offset=st.floats(-1e6, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariant_on_random_graphs(self, seed, offset):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng)
        # Data on the grid that x0 + offset can hold, so the offset is the only difference.
        x0 = (rng.uniform(0.0, 1.0, g.n_vertices) + offset) - offset
        expected = ac_critical_lambda(g, x0)
        assert ac_critical_lambda(g, x0 + offset) == pytest.approx(expected, rel=1e-9)


class TestMedianLevel:
    def test_k3_exact(self):
        assert np.isclose(mc_lambda0_exact(complete_graph(3)), 0.5, atol=1e-12)

    def test_two_vertex_path_exact(self):
        assert np.isclose(mc_lambda0_exact(path_graph(2)), 1.0, atol=1e-12)

    def test_k99_closed_form_bound(self):
        assert np.isclose(mc_lambda0_upper(complete_graph(99)), 99.0 / 196.0, atol=1e-15)

    def test_closed_form_bound_needs_two_vertices(self):
        with pytest.raises(UnsupportedGraphError, match="^need at least two vertices$"):
            mc_lambda0_upper(complete_graph(1))

    def test_k99_exact_via_symmetry(self):
        # One representative placement suffices on a complete graph.
        assert np.isclose(mc_lambda0_exact(complete_graph(99)), 1.0 / 50.0, atol=1e-12)

    def test_upper_bound_dominates_exact_on_complete_graphs(self):
        for n in (3, 5, 8, 11):
            g = complete_graph(n)
            assert mc_lambda0_exact(g) <= mc_lambda0_upper(g) + 1e-12

    def test_enumeration_on_cycle(self):
        g = cycle_graph(5)
        # patterns (-1,-1,0,1,1): exhaustive answer computed by this call
        value = mc_lambda0_exact(g)
        # worst case pairs each sign class contiguously: two boundary edges
        # per side, ratio 2/2 = 1.0
        assert np.isclose(value, 1.0, atol=1e-12)

    def test_bound_requires_complete(self):
        with pytest.raises(UnsupportedGraphError):
            mc_lambda0_upper(path_graph(4))

    def test_even_n_limit_lands_in_median_interval(self, rng):
        # With an even vertex count any point between the two central data
        # values is a minimizer; the engine must settle inside that interval.
        g = complete_graph(8)
        x0 = rng.uniform(0.0, 1.0, 8)
        lam = 2.0 * mc_lambda0_exact(g)
        traj = run(
            AdmmEngine(lam, 1.0), g, x0, Absolute(g, x0),
            stop=StopRule(300_000, INF, 1e-12), record_every=10**9,
        )
        lo, hi = np.sort(x0)[3], np.sort(x0)[4]
        assert traj.final_x.max() - traj.final_x.min() <= 1e-5
        value = float(traj.final_x.mean())
        assert lo - 1e-5 <= value <= hi + 1e-5

    def test_enumeration_cap(self):
        with pytest.raises(SizeCapError):
            mc_lambda0_exact(cycle_graph(14))

    @staticmethod
    def placement_enumeration(g):
        """Every placement of the median sign pattern, one dual norm each."""
        n = g.n_vertices
        n_plus = int(np.count_nonzero(median_sign_pattern(n) > 0))
        best = 0.0
        for plus in combinations(range(n), n_plus):
            rest = [v for v in range(n) if v not in plus]
            for zero in rest if n % 2 else [None]:
                u = -np.ones(n)
                u[list(plus)] = 1.0
                if zero is not None:
                    u[zero] = 0.0
                best = max(best, dual_norm_algorithm0(g, u).value)
        return best

    def test_subset_enumeration_matches_the_placements_bitwise(self, rng):
        graphs = [random_connected_graph(rng, n_max=8, p=0.4) for _ in range(30)]
        graphs += [cycle_graph(5), path_graph(4), Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])]
        for g in graphs:
            assert mc_lambda0_exact(g) == self.placement_enumeration(g)

    def test_no_dual_norm_on_a_non_complete_graph(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("a dual norm ran on a non-complete graph")

        monkeypatch.setattr(analysis, "dual_norm_algorithm0", refuse)
        for g in (cycle_graph(12), path_graph(3), random_connected_graph(rng, n_max=12)):
            if g.n_edges < g.n_vertices * (g.n_vertices - 1) // 2:
                assert mc_lambda0_exact(g) > 0.0


    def test_sign_pattern_keeps_its_bytes(self):
        def concatenated(n):
            k = n // 2
            middle = [0.0] if n % 2 else []
            return np.concatenate([-np.ones(k), middle, np.ones(k)])

        for n in range(1, 500):
            pattern = median_sign_pattern(n)
            assert pattern.dtype == np.float64
            assert pattern.tobytes() == concatenated(n).tobytes()

    def test_complete_graph_rows_match_the_dual_norm_bitwise(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a dual norm ran for a median level")

        for n in range(1, 301):
            g = complete_graph(n)
            expected = dual_norm_algorithm0(g, median_sign_pattern(n)).value
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "dual_norm_algorithm0", refuse)
                assert mc_lambda0_exact(g) == expected


class TestCompleteGraphsSkipTheMaxFlow:
    def test_paper_k99_runs_without_a_network(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a complete graph reached the max-flow")

        monkeypatch.setattr(maxflow, "build_network", refuse)
        monkeypatch.setattr(maxflow, "min_cut", refuse)
        g = complete_graph(99)
        x0 = np.random.default_rng(42).uniform(0.0, 1.0, 99)
        lam_c = ac_critical_lambda(g, x0)
        assert dual_norm_algorithm0(g, center_field(x0)).value == lam_c
        average = Quadratic(g, x0)
        assert certify_consensus_minimizer(g, average, x0.mean(), 1.5 * lam_c).verdict == CERTIFIED
        assert certify_consensus_minimizer(g, average, x0.mean(), 0.5 * lam_c).verdict == VIOLATED
        median, x_med = Absolute(g, x0), float(np.median(x0))
        assert certify_consensus_minimizer(g, median, x_med, 0.5).verdict == CERTIFIED
        # Below lambda0 = 1/50 the 49 agents under the median gain 49 * (1 - 50 lam).
        low = certify_consensus_minimizer(g, median, x_med, 0.01)
        assert (low.verdict, low.dual_gap) == (VIOLATED, 24.5)
        assert np.isclose(mc_lambda0_exact(g), 1.0 / 50.0, atol=1e-12)


class TestStubbornLimit:
    def test_reported_three_cases(self):
        # x0 mean 0.1284, lam 0.05, one pinned agent
        x0r = np.array([0.1284] * 4)
        high = stubborn_limit(x0r, 10.0, 0.05, 1)
        mid = stubborn_limit(x0r, 0.16, 0.05, 1)
        low = stubborn_limit(x0r, -10.0, 0.05, 1)
        assert np.isclose(high.x_star, 0.1784, atol=1e-12)
        assert high.case == "clipped_high"
        assert np.isclose(mid.x_star, 0.16, atol=1e-12)
        assert mid.case == "pulled_to_a"
        assert np.isclose(low.x_star, 0.0784, atol=1e-12)
        assert low.case == "clipped_low"

    def test_boundary_belongs_to_anchor_case(self):
        x0r = np.zeros(3)
        pred = stubborn_limit(x0r, 0.1, 0.05, 2)  # |mean - a| == margin
        assert pred.case == "pulled_to_a"
        assert pred.x_star == 0.1

    def test_prediction_within_margin(self, rng):
        for _ in range(200):
            x0r = rng.normal(size=5)
            lam = float(rng.uniform(0.01, 1.0))
            s = int(rng.integers(1, 4))
            a = float(rng.uniform(-1000.0, 1000.0))
            pred = stubborn_limit(x0r, a, lam, s)
            assert abs(pred.x_star - x0r.mean()) <= lam * s + 1e-6

    def test_lambda_precondition_check(self, rng):
        g = complete_graph(6)
        x0r = rng.uniform(0.0, 1.0, 6)
        crit = ac_critical_lambda(g, x0r)
        ok = stubborn_limit(x0r, 5.0, 2.0 * crit, 1, critical_level=crit)
        bad = stubborn_limit(x0r, 5.0, 0.5 * crit, 1, critical_level=crit)
        unchecked = stubborn_limit(x0r, 5.0, 2.0 * crit, 1)
        assert ok.lambda_ok is True
        assert bad.lambda_ok is False
        assert unchecked.lambda_ok is None

    def test_cross_validated_by_admm_all_three_cases(self, rng):
        n_reg = 12
        g = complete_graph(n_reg + 1)  # pinned vertex wired to everyone
        gr = complete_graph(n_reg)
        x0r = rng.uniform(0.0, 1.0, n_reg)
        crit = ac_critical_lambda(gr, x0r)
        lam = max(2.0 * crit, 0.05)
        mean_r = x0r.mean()
        for a in (mean_r + 20.0, mean_r + 0.5 * lam, mean_r - 20.0):
            pred = stubborn_limit(x0r, a, lam, 1, critical_level=crit)
            assert pred.lambda_ok
            x0 = np.concatenate([x0r, [a]])
            objs = Quadratic(g, x0)
            traj = run(
                AdmmEngine(lam, 1.0), g, x0, objs, {n_reg: a},
                stop=StopRule(300_000, INF, 1e-13), record_every=10**9,
            )
            achieved = traj.final_x[:n_reg]
            assert np.abs(achieved - pred.x_star).max() <= 1e-4
            assert abs(achieved.mean() - mean_r) <= lam * 1 + 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stubborn_limit(np.array([]), 1.0, 0.1, 1)
        with pytest.raises(ValueError):
            stubborn_limit(np.ones(3), 1.0, -0.1, 1)
        with pytest.raises(ValueError):
            stubborn_limit(np.ones(3), 1.0, 0.1, 0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidFieldError):
                stubborn_limit(np.array([0.0, bad, 1.0]), 1.0, 0.1, 1)
            with pytest.raises(ValueError, match="finite"):
                stubborn_limit(np.ones(3), bad, 0.1, 1)

    @pytest.mark.parametrize("a", [[5.0], np.array([5.0]), [5.0, 6.0]],
                             ids=["1-element list", "1-element array", "list"])
    def test_a_must_be_one_number(self, a):
        # A 1-element list used to raise float()'s bare TypeError.
        with pytest.raises(InvalidFieldError,
                           match=r"^pinned value a must be one number, got shape"):
            stubborn_limit(np.ones(3), a, 0.1, 1)

    def test_a_0d_array_is_a(self):
        assert stubborn_limit(np.ones(3), np.array(5.0), 0.1, 1) == stubborn_limit(
            np.ones(3), 5.0, 0.1, 1)

    def test_rejects_a_fractional_pinned_count(self):
        # 1.5 pinned agents used to give the margin 1.5 * lam.
        with pytest.raises(ValueError, match="s_count must be a whole number"):
            stubborn_limit(np.ones(3), 5.0, 0.1, s_count=1.5)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_lam_must_be_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            stubborn_limit(np.array([0.1, 0.2]), 10.0, lam, 1)


def _spread(g):
    """A nonzero mean-zero field on g."""
    return np.arange(g.n_vertices) - (g.n_vertices - 1) / 2


# Every entry point that needs a connected graph, given the graph and a mean-zero field.
CONNECTED_ENTRY_POINTS = {
    "dual_norm_algorithm0": lambda g: dual_norm_algorithm0(g, _spread(g)),
    "dual_norm_bruteforce": lambda g: dual_norm_bruteforce(g, _spread(g)),
    "dual_feasibility_gap": lambda g: dual_feasibility_gap(g, _spread(g), 1.0),
    "is_dual_certificate": lambda g: is_dual_certificate(g, _spread(g), _spread(g)),
    "certify_consensus_minimizer": lambda g: certify_consensus_minimizer(
        g, Quadratic(g, _spread(g)), 0.0, 1.0),
    "mc_lambda0_exact": mc_lambda0_exact,
}

DISCONNECTED = {
    "two_pieces": Graph(4, [(0, 1), (2, 3)]),
    "isolated_vertex": Graph(3, [(0, 1)]),
}


class TestConnectivityRule:
    @pytest.mark.parametrize("graph", DISCONNECTED)
    @pytest.mark.parametrize("entry", CONNECTED_ENTRY_POINTS)
    def test_every_entry_point_rejects_a_disconnected_graph_alike(self, entry, graph):
        with pytest.raises(UnsupportedGraphError, match="^[a-z ]+ need a connected graph$"):
            CONNECTED_ENTRY_POINTS[entry](DISCONNECTED[graph])


# Every entry point that takes a cut level lam, on a 3-vertex graph.
LAM_ENTRY_POINTS = {
    "maximize_cut_functional_kn": lambda lam: maximize_cut_functional(
        complete_graph(3), _spread(complete_graph(3)), lam),
    "maximize_cut_functional": lambda lam: maximize_cut_functional(
        path_graph(3), _spread(path_graph(3)), lam),
    "build_network": lambda lam: build_network(path_graph(3), _spread(path_graph(3)), lam),
    "certify_consensus_minimizer": lambda lam: certify_consensus_minimizer(
        path_graph(3), Quadratic(path_graph(3), _spread(path_graph(3))), 0.0, lam),
    "stubborn_limit": lambda lam: stubborn_limit(np.array([0.1, 0.2]), 10.0, lam, 1),
}


class TestCutLevelRule:
    @pytest.mark.parametrize("lam", [0.0, -0.0, np.nan, np.inf], ids=["0", "-0", "nan", "inf"])
    @pytest.mark.parametrize("entry", LAM_ENTRY_POINTS)
    def test_every_entry_point_rejects_a_bad_level_alike(self, entry, lam):
        with pytest.raises(DomainError, match=f"^lam must be positive and finite, got {lam}$"):
            LAM_ENTRY_POINTS[entry](lam)
