from itertools import chain, combinations

import numpy as np
import pytest

from tvconsensus import (
    DomainError,
    Graph,
    build_network,
    complete_graph,
    dual_norm_algorithm0,
    erdos_renyi,
    maximize_cut_functional,
    min_cut,
    path_graph,
    perimeter,
)
from tvconsensus.analysis import median_sign_pattern
from tvconsensus.dualnorm import center_field

from conftest import dinic_maximize_cut_functional, mean_zero_field, random_connected_graph


def all_subsets(n):
    return chain.from_iterable(combinations(range(n), k) for k in range(n + 1))


def cut_capacity(g, u, lam, subset):
    """Capacity of the cut with source side `subset`, from the arc definition."""
    inside = set(subset)
    total = lam * perimeter(g, subset)
    total += sum(-u[v] for v in inside if u[v] < 0)
    total += sum(u[v] for v in range(g.n_vertices) if v not in inside and u[v] > 0)
    return total


def arc_capacities(net):
    """Capacity from node i to node j, summed over arcs, for every (i, j) with some."""
    arcs = {}
    for i, j, c in zip(net.tail.tolist(), net.head.tolist(), net.cap.tolist()):
        if c != 0.0:
            arcs[(i, j)] = arcs.get((i, j), 0.0) + c
    return arcs


def audit_flow(g, u, lam, net, result, tol):
    """Capacity, conservation, duality and capacity-identity checks of one cut."""
    assert np.all(result.flow <= net.cap + tol)
    assert np.all(result.flow >= -tol)
    n_nodes = g.n_vertices + 2
    net_out = np.bincount(net.tail, result.flow, n_nodes) - np.bincount(
        net.head, result.flow, n_nodes
    )
    assert np.all(np.abs(net_out[: g.n_vertices]) <= tol)
    assert abs(net_out[net.source] - result.max_flow_value) <= tol
    assert abs(result.cut_value - result.max_flow_value) <= tol
    subset = result.source_side
    identity = lam * perimeter(g, subset) - u[list(subset)].sum() + u[u > 0.0].sum()
    assert abs(result.cut_value - identity) <= tol


def brute_force_best_subset(g, u, lam):
    best_value = -np.inf
    best = None
    for subset in all_subsets(g.n_vertices):
        value = sum(u[v] for v in subset) - lam * perimeter(g, subset)
        if value > best_value + 1e-15:
            best_value = value
            best = subset
    return best, best_value


class TestBuildNetwork:
    def test_zero_field_has_no_terminal_arcs(self):
        g = Graph(2, [(0, 1)])
        net = build_network(g, np.zeros(2), lam=1.0)
        assert net.cap[net.tail == net.source].sum() == 0.0
        assert net.cap[net.head == net.sink].sum() == 0.0

    def test_single_edge_arcs(self):
        g = Graph(2, [(0, 1)])
        net = build_network(g, np.array([1.0, -1.0]), lam=2.0)
        assert arc_capacities(net) == {
            (net.source, 0): 1.0,
            (1, net.sink): 1.0,
            (0, 1): 2.0,
            (1, 0): 2.0,
        }

    def test_k3_construction(self):
        g = complete_graph(3)
        net = build_network(g, np.array([2.0, -1.0, -1.0]), lam=0.5)
        arcs = arc_capacities(net)
        assert net.cap[net.tail == net.source].sum() == 2.0
        assert arcs[(1, net.sink)] == 1.0 and arcs[(2, net.sink)] == 1.0
        internal = {arc: c for arc, c in arcs.items() if max(arc) < 3}
        assert len(internal) == 6
        assert all(c == 0.5 for c in internal.values())

    def test_arc_pairs_are_reverses(self):
        g = complete_graph(4)
        net = build_network(g, np.array([3.0, -1.0, -2.0, 0.0]), lam=0.5)
        assert np.array_equal(net.tail[0::2], net.head[1::2])
        assert np.array_equal(net.head[0::2], net.tail[1::2])
        assert net.cap.size == 2 * (g.n_edges + 3)

    def test_rejects_bad_domain(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(DomainError):
            build_network(g, np.array([1.0, -1.0]), lam=0.0)
        # The network takes any finite field; the dual norm needs a mean-zero one.
        build_network(g, np.array([1.0, 0.0]), lam=1.0)
        with pytest.raises(DomainError, match="zero mean"):
            dual_norm_algorithm0(g, np.array([1.0, 0.0]))


class TestMinCut:
    def test_single_edge_wide_internal(self):
        # Both the empty set and the full set cut at value 1; the canonical
        # residual-reachability rule returns the minimal source side.
        g = Graph(2, [(0, 1)])
        u = np.array([1.0, -1.0])
        result = min_cut(build_network(g, u, lam=2.0))
        assert np.isclose(result.max_flow_value, 1.0, atol=1e-12)
        assert np.isclose(result.cut_value, result.max_flow_value, atol=1e-10)
        best = min(cut_capacity(g, u, 2.0, s) for s in all_subsets(2))
        assert np.isclose(result.cut_value, best, atol=1e-12)

    def test_single_edge_narrow_internal(self):
        g = Graph(2, [(0, 1)])
        u = np.array([1.0, -1.0])
        result = min_cut(build_network(g, u, lam=0.25))
        assert result.source_side == frozenset({0})
        assert np.isclose(result.max_flow_value, 0.25, atol=1e-12)
        # capacity identity: lam * per(A) - <u, 1_A> + sum of positive u
        assert np.isclose(result.cut_value, 0.25 * 1 - 1.0 + 1.0, atol=1e-12)

    def test_zero_field(self):
        g = complete_graph(4)
        result = min_cut(build_network(g, np.zeros(4), lam=1.0))
        assert result.max_flow_value == 0.0
        assert result.source_side == frozenset()

    def test_duality_and_conservation_on_random_instances(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, n_max=10)
            u = mean_zero_field(rng, g.n_vertices)
            lam = float(rng.uniform(0.05, 1.5))
            net = build_network(g, u, lam)
            result = min_cut(net)
            audit_flow(g, u, lam, net, result, tol=1e-12)
            # returned cut is at least as good as every enumerated cut
            best = min(cut_capacity(g, u, lam, s) for s in all_subsets(g.n_vertices))
            assert result.cut_value <= best + 1e-10


    def test_audits_at_production_size(self):
        # K99 with the paper's seed-42 data, and a connected ER(400) of mean
        # degree 10, each below, near and above its critical level.
        x99 = np.random.default_rng(42).uniform(0.0, 1.0, 99)
        seed = 400
        while not (g400 := erdos_renyi(400, 10 / 399, seed)).is_connected:
            seed += 1
        x400 = np.random.default_rng(seed).uniform(0.0, 1.0, 400)
        for g, x in ((complete_graph(99), x99), (g400, x400)):
            u = x - x.mean()
            critical = dual_norm_algorithm0(g, u).value
            for multiple in (0.1, 0.99, 1.5):
                lam = multiple * critical
                net = build_network(g, u, lam)
                audit_flow(g, u, lam, net, min_cut(net), tol=1e-12 * np.abs(u).sum())


class TestMaximizeCutFunctional:
    def test_zero_field(self):
        g = complete_graph(3)
        subset, value = maximize_cut_functional(g, np.zeros(3), lam=1.0)
        assert value == 0.0
        assert perimeter(g, subset) == 0

    def test_single_edge_narrow(self):
        g = Graph(2, [(0, 1)])
        subset, value = maximize_cut_functional(g, np.array([1.0, -1.0]), lam=0.25)
        assert subset == frozenset({0})
        assert np.isclose(value, 0.75, atol=1e-12)

    def test_single_edge_wide(self):
        g = Graph(2, [(0, 1)])
        subset, value = maximize_cut_functional(g, np.array([1.0, -1.0]), lam=2.0)
        assert np.isclose(value, 0.0, atol=1e-12)
        assert perimeter(g, subset) == 0  # empty or full

    def test_agrees_with_subset_enumeration(self, rng):
        for offset in [0.0] * 60 + [0.7, -0.7] * 30:  # any finite field, not only mean-zero ones
            g = random_connected_graph(rng, n_max=9)
            u = mean_zero_field(rng, g.n_vertices) + offset
            lam = float(rng.uniform(0.05, 1.0))
            subset, value = maximize_cut_functional(g, u, lam)
            _, best = brute_force_best_subset(g, u, lam)
            assert abs(value - best) <= 1e-10
            direct = sum(u[v] for v in subset) - lam * perimeter(g, subset)
            assert abs(direct - value) <= 1e-12

    def test_value_nonincreasing_in_lambda(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, n_max=9)
            u = mean_zero_field(rng, g.n_vertices)
            lams = np.sort(rng.uniform(0.01, 2.0, size=5))
            values = [maximize_cut_functional(g, u, lam)[1] for lam in lams]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def offset_fields(n):
    """Named fields on n vertices whose sum is not zero."""
    rng = np.random.default_rng(n)
    yield "offset", 1.0 + rng.normal(size=n)
    yield "all positive", rng.uniform(0.1, 1.0, size=n)
    yield "all negative", -rng.uniform(0.1, 1.0, size=n)
    yield "signs", rng.choice([-1.0, 1.0], size=n)


def complete_graph_fields(n):
    """Named mean-zero fields on n vertices: tiny, huge, offset, and two tied kinds."""
    rng = np.random.default_rng(n)
    yield "scale 1e-6", center_field(1e-6 * rng.normal(size=n))
    yield "scale 1e6", center_field(1e6 * rng.normal(size=n))
    yield "offset 1e6", center_field(1e6 + rng.uniform(size=n))
    yield "median signs", median_sign_pattern(n)
    yield "integers", center_field(rng.integers(-3, 4, size=n).astype(float))


def bits(value):
    return np.float64(value).tobytes()


class TestCompleteGraphCut:
    """The closed-form cut on K_N against the max-flow it replaces there."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_the_max_flow(self, n):
        g = complete_graph(n)
        for name, u in complete_graph_fields(n):
            norm = dual_norm_algorithm0(g, u)
            # The ratio iteration's levels end with the terminal call at the norm.
            lams = {*norm.lambda_sequence, 0.5 * norm.value, 2.0 * norm.value, 5e-324, 1e300, 1e307}
            for lam in sorted(lam for lam in lams if lam > 0.0):
                subset, value = maximize_cut_functional(g, u, lam)
                expected_subset, expected_value = dinic_maximize_cut_functional(g, u, lam)
                assert subset == expected_subset, (name, lam)
                assert bits(value) == bits(expected_value), (name, lam)
            if norm.value > 0.0:
                assert maximize_cut_functional(g, u, norm.value) == (frozenset(), 0.0), name
        # Any finite field: the levels 1/k tie a top-k set of the signs with the empty set.
        ties = {1.0 / k for k in range(1, n + 1)}
        for name, u in offset_fields(n):
            for lam in sorted({*ties, 1e-3, 0.3, 5e-324, 1e300, 1e307}):
                subset, value = maximize_cut_functional(g, u, lam)
                expected_subset, expected_value = dinic_maximize_cut_functional(g, u, lam)
                assert subset == expected_subset, (name, lam)
                assert bits(value) == bits(expected_value), (name, lam)

    @pytest.mark.parametrize("g", [complete_graph(4), path_graph(4)], ids=["K4", "P4"])
    def test_typed_errors_on_both_paths(self, g):
        u = np.array([1.0, -2.0, 0.5, 0.5])
        for lam in (0.0, -0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                maximize_cut_functional(g, u, lam)
        maximize_cut_functional(g, u + 1.0, 1.0)
        with pytest.raises(DomainError, match="zero mean"):
            dual_norm_algorithm0(g, u + 1.0)
