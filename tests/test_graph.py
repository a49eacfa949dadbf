import numpy as np
import pytest

from tvconsensus import (
    Graph,
    InvalidFieldError,
    InvalidSubsetError,
    complete_graph,
    connected_components,
    cycle_graph,
    div,
    erdos_renyi,
    grad,
    laplacian_apply,
    load_edge_list,
    path_graph,
    perimeter,
    read_node_field,
    save_edge_list,
)

from conftest import random_connected_graph


def reference_erdos_renyi_edges(n, p, seed):
    """The generator's original loop: one scalar draw per pair in row-major order."""
    rng = np.random.default_rng(seed)
    return tuple((v, w) for v in range(n) for w in range(v + 1, n) if rng.random() < p)


def reference_pieces(n, edges, subset):
    """Components of the subgraph induced by ``subset``, by union-find over the edges."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v, w in edges:
        if v in subset and w in subset:
            parent[find(v)] = find(w)
    pieces = {}
    for v in sorted(subset):
        pieces.setdefault(find(v), set()).add(v)
    return sorted((frozenset(p) for p in pieces.values()), key=min)


def csr_test_graphs():
    """Seeded random graphs, disconnected ones and explicitly oriented ones."""
    rng = np.random.default_rng(2024)
    graphs = [random_connected_graph(rng) for _ in range(6)]
    graphs += [erdos_renyi(12, 0.15, seed) for seed in range(4)]
    graphs += [Graph(7, [(0, 1), (2, 3), (3, 4), (6, 2)]), Graph(4, []), Graph(1, [])]
    for g in graphs[:4]:
        flips = rng.random(g.n_edges) < 0.5
        oriented = [(w, v) if flip else (v, w) for (v, w), flip in zip(g.oriented_edges, flips)]
        graphs.append(Graph(g.n_vertices, oriented[::-1], oriented_edges=oriented))
    return graphs


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            Graph(2, [(0, 5)])

    def test_rejects_non_integral_vertex_ids(self):
        for edges in ([(0, 1.5), (1, 2)], np.array([[0.0, 1.0], [1.0, 2.5]]),
                      [(0, float("nan"))], np.array([[0.0, np.inf]])):
            with pytest.raises(ValueError, match="integers"):
                Graph(3, edges)
            with pytest.raises(ValueError, match="integers"):
                Graph(3, [(0, 1), (1, 2)], oriented_edges=edges)
        # Integral floats are still vertex ids.
        for edges in ([(0, 1.0), (2.0, 1)], np.array([[0.0, 1.0], [2.0, 1.0]])):
            assert Graph(3, edges).oriented_edges == ((0, 1), (1, 2))

    def test_canonical_orientation_is_low_to_high(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert g.oriented_edges == ((0, 2), (1, 2))

    def test_explicit_orientation(self):
        g = Graph(3, [(0, 1), (1, 2)], oriented_edges=[(1, 0), (1, 2)])
        assert g.oriented_edges == ((1, 0), (1, 2))
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 2)], oriented_edges=[(0, 1), (0, 1)])

    def test_degrees_and_adjacency(self):
        g = complete_graph(4)
        assert list(g.degrees) == [3, 3, 3, 3]
        assert g.neighbors(2) == (0, 1, 3)
        assert g.has_edge(3, 0) and not g.has_edge(0, 0)

    def test_connectivity_flag(self):
        assert path_graph(5).is_connected
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected
        assert Graph(1, []).is_connected

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, kept = g.induced_subgraph([0, 1, 2, 4])
        assert kept == (0, 1, 2, 4)
        assert sub.n_edges == 3  # edges 01, 12, 40
        assert not sub.is_connected or sub.is_connected  # smoke: valid graph
        assert sub.has_edge(0, 3)  # old (0, 4) relabeled


class TestCsrAdjacency:
    @pytest.mark.parametrize("g", csr_test_graphs())
    def test_matches_the_edge_arrays(self, g):
        n = g.n_vertices
        edges = list(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        undirected = {frozenset(e) for e in edges}
        assert np.array_equal(g.indptr, np.concatenate([[0], np.cumsum(g.degrees)]))
        for v in range(n):
            expected = tuple(sorted(w for a, b in edges for w in (a, b) if v in (a, b) and w != v))
            assert g.neighbors(v) == expected
            assert g.degrees[v] == len(expected)
            for w in range(-1, n + 1):
                assert g.has_edge(v, w) == (frozenset((v, w)) in undirected)
        everything = set(range(n))
        assert g.is_connected == (len(reference_pieces(n, edges, everything)) == 1)

        rng = np.random.default_rng(n)
        for _ in range(5):
            subset = {int(v) for v in np.flatnonzero(rng.random(n) < 0.6)}
            assert connected_components(g, subset) == reference_pieces(n, edges, subset)
            if not subset:
                continue
            sub, kept = g.induced_subgraph(subset)
            assert kept == tuple(sorted(subset))
            index = {old: new for new, old in enumerate(kept)}
            expected_edges = sorted(
                (min(index[v], index[w]), max(index[v], index[w]))
                for v, w in edges
                if v in subset and w in subset
            )
            assert sub.n_vertices == len(kept)
            assert list(sub.oriented_edges) == expected_edges

    def test_paths_with_shuffled_labels(self):
        # Shuffled labels make the hooking rounds grow with the path length.
        n = 3000
        labels = np.random.default_rng(5).permutation(n)
        v = np.arange(n - 1)
        pairs = np.column_stack([labels[v], labels[v + 1]])
        whole = Graph(n, pairs)
        assert whole.is_connected
        split = [frozenset(labels[:1000].tolist()), frozenset(labels[1000:].tolist())]
        split.sort(key=min)
        cut = Graph(n, np.delete(pairs, 999, axis=0))
        assert not cut.is_connected
        assert connected_components(cut, range(n)) == split
        gap = [frozenset(labels[:1000].tolist()), frozenset(labels[1001:].tolist())]
        gap.sort(key=min)
        assert connected_components(whole, set(range(n)) - {int(labels[1000])}) == gap

    def test_neighbors_of_an_unknown_vertex(self):
        # A negative id would otherwise index the row pointers from the end.
        g = complete_graph(3)
        for v in (-2, -1, 3):
            with pytest.raises(InvalidSubsetError, match="unknown vertex"):
                g.neighbors(v)

    def test_index_arrays_are_read_only(self):
        g = cycle_graph(5)
        for array in (g.edge_src, g.edge_dst, g.indptr, g.indices, g.degrees):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_accepts_an_index_array_and_no_edges(self):
        listed = Graph(4, [(2, 0), (1, 2), (3, 2)])
        stacked = Graph(4, np.array([[2, 0], [1, 2], [3, 2]], dtype=np.int32))
        assert stacked.oriented_edges == listed.oriented_edges == ((0, 2), (1, 2), (2, 3))
        assert np.array_equal(stacked.indices, listed.indices)
        for empty in ([], np.empty((0, 2), dtype=int)):
            g = Graph(3, empty)
            assert g.n_edges == 0 and g.oriented_edges == ()
            assert list(g.degrees) == [0, 0, 0] and g.neighbors(1) == ()
            assert not g.is_connected
        assert connected_components(Graph(3, []), range(3)) == [
            frozenset({0}), frozenset({1}), frozenset({2})
        ]


class TestOperators:
    def test_grad_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert grad(g, [0.0, 1.0]).tolist() == [1.0]

    def test_grad_constant_field_is_zero(self):
        g = complete_graph(5)
        assert np.all(grad(g, 3.7 * np.ones(5)) == 0.0)

    def test_grad_path(self):
        g = path_graph(3)
        assert grad(g, [0.0, 2.0, 1.0]).tolist() == [2.0, -1.0]

    def test_div_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert div(g, [1.0]).tolist() == [1.0, -1.0]

    def test_div_zero_field(self):
        g = cycle_graph(4)
        assert np.all(div(g, np.zeros(4)) == 0.0)

    def test_div_path(self):
        g = path_graph(3)
        assert div(g, [1.0, 1.0]).tolist() == [1.0, 0.0, -1.0]

    def test_div_sums_to_zero(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng)
            xi = rng.normal(size=g.n_edges)
            assert abs(div(g, xi).sum()) < 1e-12

    def test_laplacian_constant(self):
        g = complete_graph(4)
        assert np.all(laplacian_apply(g, np.ones(4)) == 0.0)

    def test_laplacian_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert laplacian_apply(g, [0.0, 1.0]).tolist() == [-1.0, 1.0]

    def test_laplacian_matches_degree_minus_adjacency(self, rng):
        g = complete_graph(4)
        dense = np.diag(g.degrees.astype(float))
        for v, w in g.oriented_edges:
            dense[v, w] -= 1.0
            dense[w, v] -= 1.0
        for _ in range(10):
            x = rng.normal(size=4)
            assert np.allclose(laplacian_apply(g, x), dense @ x, atol=1e-12)
            assert x @ laplacian_apply(g, x) >= 0.0

    def test_laplacian_orthogonal_to_ones(self, rng):
        g = random_connected_graph(rng)
        x = rng.normal(size=g.n_vertices)
        assert abs(laplacian_apply(g, x).sum()) < 1e-10

    def test_integration_by_parts(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng)
            x = rng.normal(size=g.n_vertices)
            xi = rng.normal(size=g.n_edges)
            lhs = float(grad(g, x) @ xi)
            rhs = -float(x @ div(g, xi))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_orientation_independence_of_div(self, rng):
        g = random_connected_graph(rng)
        xi = rng.normal(size=g.n_edges)
        baseline = div(g, xi)
        flip = int(rng.integers(0, g.n_edges))
        oriented = list(g.oriented_edges)
        oriented[flip] = (oriented[flip][1], oriented[flip][0])
        flipped = Graph(g.n_vertices, g.oriented_edges, oriented_edges=oriented)
        xi2 = xi.copy()
        xi2[flip] = -xi2[flip]
        assert np.allclose(div(flipped, xi2), baseline, atol=1e-15)

    def test_dimension_mismatch(self):
        g = path_graph(3)
        with pytest.raises(InvalidFieldError):
            grad(g, [1.0, 2.0])
        with pytest.raises(InvalidFieldError):
            div(g, [1.0, 2.0, 3.0])
        with pytest.raises(InvalidFieldError):
            grad(g, [1.0, np.nan, 2.0])


class TestPerimeter:
    def test_empty_and_full(self):
        g = complete_graph(5)
        assert perimeter(g, []) == 0
        assert perimeter(g, range(5)) == 0

    def test_singleton_in_complete(self):
        for n in (3, 6, 9):
            g = complete_graph(n)
            assert perimeter(g, [0]) == n - 1

    def test_path_prefix(self):
        g = path_graph(3)
        assert perimeter(g, [0]) == 1

    def test_complement_symmetry(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng)
            size = int(rng.integers(0, g.n_vertices + 1))
            subset = list(rng.choice(g.n_vertices, size=size, replace=False))
            complement = [v for v in range(g.n_vertices) if v not in subset]
            assert perimeter(g, subset) == perimeter(g, complement)

    def test_unknown_vertex(self):
        with pytest.raises(InvalidSubsetError):
            perimeter(path_graph(3), [7])


class TestComponents:
    def test_non_adjacent_pair(self):
        g = path_graph(3)
        assert connected_components(g, [0, 2]) == [frozenset({0}), frozenset({2})]

    def test_whole_connected_graph(self):
        g = cycle_graph(6)
        assert connected_components(g, range(6)) == [frozenset(range(6))]

    def test_empty_subset(self):
        assert connected_components(path_graph(3), []) == []


class TestGeneratorsAndIo:
    def test_complete_edge_count(self):
        assert complete_graph(99).n_edges == 99 * 98 // 2

    def test_cycle_and_path(self):
        assert cycle_graph(5).n_edges == 5
        assert path_graph(5).n_edges == 4
        assert all(d == 2 for d in cycle_graph(7).degrees)

    def test_complete_graph_edge_order(self):
        assert complete_graph(5).oriented_edges == tuple(
            (v, w) for v in range(5) for w in range(v + 1, 5)
        )
        assert complete_graph(1).n_edges == 0

    @pytest.mark.parametrize(
        "n, p, seed", [(1, 0.5, 0), (2, 1.0, 1), (10, 0.5, 3), (40, 0.1, 7), (60, 0.9, 11)]
    )
    def test_erdos_renyi_keeps_the_scalar_stream(self, n, p, seed):
        assert erdos_renyi(n, p, seed).oriented_edges == reference_erdos_renyi_edges(n, p, seed)

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(10, 0.5, seed=3)
        b = erdos_renyi(10, 0.5, seed=3)
        assert a.oriented_edges == b.oriented_edges

    def test_edge_list_roundtrip(self, tmp_path):
        g = erdos_renyi(8, 0.6, seed=1)
        path = tmp_path / "g.txt"
        save_edge_list(g, str(path))
        loaded = load_edge_list(str(path))
        assert loaded.oriented_edges == g.oriented_edges

    def test_edge_list_comments_and_errors(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1\n1 2  # trailing\n")
        g = load_edge_list(str(path))
        assert g.n_edges == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n")
        with pytest.raises(ValueError):
            load_edge_list(str(bad))

    def test_node_field_file(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("# header\n0.5\n1.25\n-3\n")
        x = read_node_field(str(path), 3)
        assert x.tolist() == [0.5, 1.25, -3.0]
        with pytest.raises(InvalidFieldError):
            read_node_field(str(path), 4)
