import re

import numpy as np
import pytest

from tvconsensus import (
    DomainError,
    GossipEngine,
    Graph,
    InvalidFieldError,
    InvalidSubsetError,
    Quadratic,
    StopRule,
    UnsupportedGraphError,
    complete_graph,
    connected_components,
    cycle_graph,
    dual_norm_algorithm0,
    erdos_renyi,
    gossip_limit,
    load_edge_list,
    maximize_cut_functional,
    parse_csv,
    path_graph,
    perimeter,
    read_node_field,
    run,
    save_edge_list,
    stubborn_limit,
    tv_norm,
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


def shuffled_and_reversed(g, rng):
    """The edges of ``g`` in random order, a random half of them high to low."""
    edges = np.column_stack([g.edge_src, g.edge_dst])[rng.permutation(g.n_edges)]
    flip = rng.random(g.n_edges) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges


def csr_test_graphs():
    """Seeded random graphs, disconnected ones and ones built from shuffled, reversed edges."""
    rng = np.random.default_rng(2024)
    graphs = [random_connected_graph(rng) for _ in range(6)]
    graphs += [erdos_renyi(12, 0.15, seed) for seed in range(4)]
    graphs += [Graph(7, [(0, 1), (2, 3), (3, 4), (6, 2)]), Graph(4, []), Graph(1, [])]
    graphs += [Graph(g.n_vertices, shuffled_and_reversed(g, rng)) for g in graphs[:4]]
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
        # Integral floats are still vertex ids.
        for edges in ([(0, 1.0), (2.0, 1)], np.array([[0.0, 1.0], [2.0, 1.0]])):
            assert Graph(3, edges).oriented_edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 2, 3)], r"edges must be \(u, v\) pairs, got shape \(1, 4\)"),
        (np.zeros((2, 3), int), r"edges must be \(u, v\) pairs, got shape \(2, 3\)"),
        ([0, 1], r"edges must be \(u, v\) pairs, got shape \(2,\)"),
        ([[(0, 1)]], r"edges must be \(u, v\) pairs, got shape \(1, 1, 2\)"),
        ([(0, 1), (2,)], "vertex ids must form an array, got a ragged nesting"),
    ], ids=["one-quadruple", "triples", "flat", "nested", "ragged"])
    def test_rejects_edges_of_the_wrong_shape(self, edges, message):
        # numpy's reshape or inhomogeneous-shape ValueError used to escape, or, for a nested
        # list, the pair was read as an edge.
        with pytest.raises(InvalidSubsetError, match=f"^{message}$"):
            Graph(4, edges)

    @pytest.mark.parametrize("edges", [[], (), np.empty((0, 2), int), np.empty(0)],
                             ids=["list", "tuple", "empty-pairs", "empty-flat"])
    def test_any_empty_edge_input_builds_an_edgeless_graph(self, edges):
        g = Graph(4, edges)
        assert (g.n_vertices, g.n_edges, g.degrees.tolist()) == (4, 0, [0, 0, 0, 0])

    def test_canonical_orientation_is_low_to_high(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert g.oriented_edges == ((0, 2), (1, 2))

    def test_explicit_orientation(self):
        # Orientation is not a Graph setting: reversed pairs come back canonical,
        # a pair and its reverse are one edge, and the old keyword is refused.
        g = Graph(3, [(1, 0), (2, 1)])
        assert g.oriented_edges == ((0, 1), (1, 2))
        assert g.edge_src.tolist() == [0, 1] and g.edge_dst.tolist() == [1, 2]
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(TypeError):
            Graph(3, [(0, 1), (1, 2)], oriented_edges=[(1, 0), (1, 2)])

    def test_every_graph_holds_canonical_sorted_edges(self, rng, tmp_path):
        # ADMM's (n, n) square on K_N relies on this without checking it.
        graphs = [complete_graph(1), complete_graph(7), path_graph(6), cycle_graph(6),
                  erdos_renyi(20, 0.3, 4), Graph(4, [])]
        for _ in range(6):
            base = random_connected_graph(rng)
            edges = shuffled_and_reversed(base, rng)
            g = Graph(base.n_vertices, edges)
            assert g.oriented_edges == base.oriented_edges
            path = tmp_path / f"g{len(graphs)}.txt"
            path.write_text("".join(f"{v} {w}\n" for v, w in edges.tolist()))
            subset = np.flatnonzero(rng.random(g.n_vertices) < 0.6).tolist() or [0]
            graphs += [g, load_edge_list(str(path)), g.induced_subgraph(subset)[0]]
        graphs.append(Graph(5, [(4, 3), (0, 4), (2, 1), (3, 0), (1, 0)]))
        for g in graphs:
            assert (g.edge_src < g.edge_dst).all()
            assert g.oriented_edges == tuple(sorted(g.oriented_edges))

    def test_rejects_a_vertex_count_that_is_not_a_whole_number(self):
        # int() would truncate 2.5 to a 2-vertex graph.
        for n in (2.5, 0, -1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="whole number"):
                Graph(n, [])
        assert Graph(3.0, [(0, 2)]).n_vertices == 3

    def test_degrees_and_adjacency(self):
        g = complete_graph(4)
        assert list(g.degrees) == [3, 3, 3, 3]
        assert g.neighbors(2) == (0, 1, 3)
        assert 0 in g.neighbors(3) and 0 not in g.neighbors(0)

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
        assert 3 in sub.neighbors(0)  # old (0, 4) relabeled

    def test_induced_subgraph_rejects_a_fractional_id(self):
        # int() would truncate 1.7 and keep vertices (1, 2).
        g = path_graph(3)
        with pytest.raises(InvalidSubsetError, match="not an integer"):
            g.induced_subgraph([1.7, 2])
        assert g.induced_subgraph([1.0, 2])[1] == (1, 2)

    def test_induced_subgraph_needs_a_vertex(self):
        with pytest.raises(InvalidSubsetError, match="^induced subgraph needs at least one vertex$"):
            path_graph(3).induced_subgraph([])


class TestCsrAdjacency:
    @pytest.mark.parametrize("g", csr_test_graphs())
    def test_matches_the_edge_arrays(self, g):
        n = g.n_vertices
        edges = list(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        for v in range(n):
            expected = tuple(sorted(w for a, b in edges for w in (a, b) if v in (a, b) and w != v))
            assert g.neighbors(v) == expected
            assert g.degrees[v] == len(expected)
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
        # A negative id would otherwise come back with no neighbours.
        g = complete_graph(3)
        for v in (-2, -1, 3):
            with pytest.raises(InvalidSubsetError, match="unknown vertex"):
                g.neighbors(v)

    def test_neighbors_of_a_fractional_vertex(self):
        # int() would truncate 1.5 and list the neighbours of 1.
        g = path_graph(3)
        with pytest.raises(InvalidSubsetError, match="not an integer"):
            g.neighbors(1.5)
        assert g.neighbors(1.0) == g.neighbors(np.int32(1)) == (0, 2)

    def test_index_arrays_are_read_only(self):
        g = cycle_graph(5)
        for array in (g.edge_src, g.edge_dst, g.degrees):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_accepts_an_index_array_and_no_edges(self):
        listed = Graph(4, [(2, 0), (1, 2), (3, 2)])
        stacked = Graph(4, np.array([[2, 0], [1, 2], [3, 2]], dtype=np.int32))
        assert stacked.oriented_edges == listed.oriented_edges == ((0, 2), (1, 2), (2, 3))
        for empty in ([], np.empty((0, 2), dtype=int)):
            g = Graph(3, empty)
            assert g.n_edges == 0 and g.oriented_edges == ()
            assert list(g.degrees) == [0, 0, 0] and g.neighbors(1) == ()
            assert not g.is_connected
        assert connected_components(Graph(3, []), range(3)) == [
            frozenset({0}), frozenset({1}), frozenset({2})
        ]


def _run_pinned(ids):
    g = path_graph(3)
    return run(GossipEngine(), g, np.zeros(3), Quadratic(g, np.zeros(3)), dict.fromkeys(ids, 0.0))


# Every entry point that takes vertex ids, on a 3-vertex graph.  Graph gets each bad id at
# both ends of an edge, so the pair keeps the id's type; the id rule runs before the
# self-loop rule.  neighbors takes the first id alone.
ID_ENTRY_POINTS = {
    "Graph": lambda ids: Graph(3, [(v, v) for v in ids]),
    "perimeter": lambda ids: perimeter(path_graph(3), ids),
    "connected_components": lambda ids: connected_components(path_graph(3), ids),
    "induced_subgraph": lambda ids: path_graph(3).induced_subgraph(ids),
    "neighbors": lambda ids: path_graph(3).neighbors(ids[0]),
    "run": _run_pinned,
    "gossip_limit": lambda ids: gossip_limit(path_graph(3), dict.fromkeys(ids, 0.0)),
}

BAD_IDS = {
    "mask": (np.array([True, False, True]), "integers, not bool"),  # as ids it reads {0, 1}
    "bools": ([True, False], "integers, not bool"),
    "string": (["a"], "integers, not str_"),
    "none": ([None], "integers, not object_"),
    "nan": ([float("nan")], "integers: nan is not an integer"),
    "inf": ([float("inf")], "integers: inf is not an integer"),
    "-inf": ([-float("inf")], "integers: -inf is not an integer"),
    "negative": ([-1], "unknown vertex id -1"),
    "n": ([3], "unknown vertex id 3"),
}


class TestVertexIdRule:
    @pytest.mark.parametrize("case", BAD_IDS)
    @pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
    def test_every_entry_point_rejects_a_bad_id_alike(self, entry, case):
        ids, message = BAD_IDS[case]
        with pytest.raises(InvalidSubsetError, match=f"{message}$"):
            ID_ENTRY_POINTS[entry](ids)

    def test_a_mixed_list_is_read_as_integers(self):
        # numpy makes [True, 2] an integer array, so True reads as vertex 1 (documented).
        assert perimeter(path_graph(3), [True, 2]) == perimeter(path_graph(3), [1, 2])


def _run_p3(x0=(0.0, 1.0, 2.0), pinned=None, record_every=1, max_iterations=2):
    """The final state and recorded iterations of a short gossip run on P3."""
    g = path_graph(3)
    traj = run(GossipEngine(), g, x0, Quadratic(g, np.zeros(3)), pinned or {},
               StopRule(max_iterations=max_iterations), record_every)
    return traj.final_x.tolist(), traj.iterations.tolist()


# Every entry point that takes a count: (call, the count's name, its least value).
COUNT_ENTRY_POINTS = {
    "Graph": (lambda k: Graph(k, []).n_vertices, "n_vertices", 1),
    "run(record_every)": (lambda k: _run_p3(record_every=k), "record_every", 1),
    "StopRule(max_iterations)": (lambda k: _run_p3(max_iterations=k), "max_iterations", 0),
    "stubborn_limit(s_count)": (lambda k: stubborn_limit([0.1, 0.2], 1.0, 0.1, k), "s_count", 1),
}

BAD_COUNTS = {
    "true": True,
    "string": "3",
    "none": None,
    "fraction": 2.5,
    "nan": float("nan"),
    "inf": float("inf"),
    "below_least": None,  # least - 1, filled in per entry point
}


class TestCountRule:
    @pytest.mark.parametrize("case", BAD_COUNTS)
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_every_entry_point_rejects_a_bad_count_alike(self, entry, case):
        # Graph(True, []) used to build one vertex, run(record_every=True) to run, and
        # Graph("3", []) and stubborn_limit(..., s_count=None) to raise a bare TypeError.
        call, name, least = COUNT_ENTRY_POINTS[entry]
        value = least - 1 if case == "below_least" else BAD_COUNTS[case]
        with pytest.raises(DomainError,
                           match=f"^{name} must be a whole number of at least {least}, got "):
            call(value)

    @pytest.mark.parametrize("value", [3.0, np.int64(3), np.float32(3)],
                             ids=["float", "int64", "float32"])
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_a_whole_float_or_numpy_number_is_a_count(self, entry, value):
        call = COUNT_ENTRY_POINTS[entry][0]
        assert call(value) == call(3)


# Every entry point that takes numbers, given a field on P3 and a scalar of the same kind.
NUMBER_ENTRY_POINTS = {
    "run(x0)": lambda field, value: _run_p3(x0=field),
    "Quadratic": lambda field, value: Quadratic(path_graph(3), field).centers.tolist(),
    "tv_norm": lambda field, value: tv_norm(path_graph(3), field),
    "dual_norm_algorithm0": lambda field, value: dual_norm_algorithm0(path_graph(3), field).value,
    "maximize_cut_functional": lambda field, value: maximize_cut_functional(
        path_graph(3), field, 1.0),
    "run(pinned)": lambda field, value: _run_p3(pinned={1: value}),
    "gossip_limit": lambda field, value: gossip_limit(path_graph(3), {1: value}).tolist(),
    "stubborn_limit(x0_regular)": lambda field, value: stubborn_limit(field, 1.0, 0.1, 1),
    "stubborn_limit(a)": lambda field, value: stubborn_limit([0.1, 0.2], value, 0.1, 1),
}

BAD_NUMBERS = {
    "string": (["1.5"] * 3, "1.5", "must be int or float, not str_"),
    "bool": ([True] * 3, True, "must be int or float, not bool"),
    "none": ([None] * 3, None, "must be int or float, not object_"),
    "object_array": (np.full(3, 1.5, dtype=object), np.array(1.5, dtype=object),
                     "must be int or float, not object_"),
    "nan": ([float("nan")] * 3, float("nan"), "is not finite"),
    "inf": ([float("inf")] * 3, float("inf"), "is not finite"),
    "-inf": ([-float("inf")] * 3, -float("inf"), "is not finite"),
}


class TestNumberRule:
    @pytest.mark.parametrize("case", BAD_NUMBERS)
    @pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
    def test_every_entry_point_rejects_a_bad_number_alike(self, entry, case):
        # A list of strings used to be read as numbers, a boolean pin as 1.0, and None as a
        # bare TypeError or as NaN.
        field, value, message = BAD_NUMBERS[case]
        with pytest.raises(InvalidFieldError, match=f"{message}$"):
            NUMBER_ENTRY_POINTS[entry](field, value)

    @pytest.mark.parametrize("field, value", [
        (np.array([0.5, -1.0, 0.5], dtype=np.float32), np.float32(0.5)),
        ([1, -2, 1], 2),
        (np.array([1, -2, 1], dtype=np.int8), np.uint8(2)),
    ], ids=["float32", "int", "numpy_int"])
    @pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
    def test_ints_and_float32_are_numbers(self, entry, field, value):
        call = NUMBER_ENTRY_POINTS[entry]
        assert call(field, value) == call(np.asarray(field, dtype=float), float(value))

    def test_known_limits(self):
        # numpy reads a mixed list as floats and an int beyond int64 as an object, and a
        # mask passes as a field only once converted.
        g = path_graph(3)
        assert tv_norm(g, [True, 2.0, 0]) == tv_norm(g, [1.0, 2.0, 0.0])
        with pytest.raises(InvalidFieldError, match="not object_$"):
            tv_norm(g, [2**64, 0, 0])
        mask = np.array([True, False, True])
        assert tv_norm(g, mask.astype(float)) == 2.0


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

    def test_fractional_vertex_id(self):
        # int() would truncate 1.5 and give the perimeter of {1}, 2.
        with pytest.raises(InvalidSubsetError, match="not an integer"):
            perimeter(path_graph(3), [1.5])
        assert perimeter(path_graph(3), [1.0]) == 2


class TestComponents:
    def test_non_adjacent_pair(self):
        g = path_graph(3)
        assert connected_components(g, [0, 2]) == [frozenset({0}), frozenset({2})]

    def test_whole_connected_graph(self):
        g = cycle_graph(6)
        assert connected_components(g, range(6)) == [frozenset(range(6))]

    def test_empty_subset(self):
        assert connected_components(path_graph(3), []) == []

    def test_fractional_vertex_id(self):
        # int() would truncate 0.5 and return {0}, {2}.
        g = path_graph(3)
        with pytest.raises(InvalidSubsetError, match="not an integer"):
            connected_components(g, [0.5, 2])
        assert connected_components(g, [0.0, 2]) == [frozenset({0}), frozenset({2})]

    def test_a_wrong_connectivity_flag_fails_the_test_helper(self, monkeypatch, rng):
        # The rejection sampler gives up with a message instead of redrawing forever.
        monkeypatch.setattr(Graph, "is_connected", property(lambda g: False))
        with pytest.raises(RuntimeError, match="no connected graph in 1000 draws"):
            random_connected_graph(rng)


class TestGeneratorsAndIo:
    def test_complete_edge_count(self):
        assert complete_graph(99).n_edges == 99 * 98 // 2

    def test_generators_reject_their_own_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^a cycle needs at least 3 vertices$"):
            cycle_graph(2)
        for p in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"^edge probability must be in \[0, 1\]$"):
                erdos_renyi(5, p, seed=0)

    def test_repr(self):
        assert repr(cycle_graph(5)) == "Graph(n_vertices=5, n_edges=5)"

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
        assert loaded.n_vertices == g.n_vertices
        assert loaded.oriented_edges == g.oriented_edges

    @pytest.mark.parametrize("g", [Graph(3, [(0, 1)]), path_graph(1)])
    def test_edge_list_refuses_an_isolated_highest_vertex(self, tmp_path, g):
        path = tmp_path / "g.txt"
        with pytest.raises(UnsupportedGraphError, match=f"^vertex {g.n_vertices - 1} has no edges"):
            save_edge_list(g, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("text, message", [
        ("0 1\n1 2 3\n", ":2: expected 'u v', got '1 2 3\\n'"),
        ("0 1\n1 x\n", ":2: vertex ids must be integers"),
        ("# header\n0 -1\n", ":2: vertex ids must be nonnegative"),
        ("# only comments\n\n", ": no edges found"),
        ("0 1\n1 1\n", ":2: self-loop at vertex 1 is not allowed"),
        ("0 1\n# repeat\n1 0\n", ":3: duplicate edge (0, 1), first on line 1"),
    ])
    def test_edge_list_rejections(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_edge_list(str(path))
        assert str(info.value) == f"{path}{message}"

    def test_edge_list_writes_canonical_pairs(self, rng, tmp_path):
        base = random_connected_graph(rng)
        g = Graph(base.n_vertices, shuffled_and_reversed(base, rng))
        path = tmp_path / "g.txt"
        save_edge_list(g, str(path))
        lines = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
        assert lines == [tuple(e) for e in zip(base.edge_src.tolist(), base.edge_dst.tolist())]

    def test_edge_list_comments_and_errors(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1\n1 2  # trailing\n")
        g = load_edge_list(str(path))
        assert g.n_edges == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n")
        with pytest.raises(ValueError):
            load_edge_list(str(bad))

    def test_edge_list_is_written_with_newline_line_ends(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(path_graph(3), str(path))
        assert path.read_bytes() == b"0 1\n1 2\n"

    @pytest.mark.parametrize("text, error, message", [
        ("0.5\n# note\ninf  # too big\n", InvalidFieldError,
         ":3: values must be finite, got 'inf  # too big\\n'"),
        ("0.5\n\nnan\n", InvalidFieldError, ":3: values must be finite, got 'nan\\n'"),
        ("0.5\nx\n", ValueError, ":2: expected a number, got 'x\\n'"),
    ])
    def test_node_field_rejections_name_the_line(self, tmp_path, text, error, message):
        path = tmp_path / "x.txt"
        path.write_text(text)
        with pytest.raises(error) as info:
            read_node_field(str(path))
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("read", [load_edge_list, read_node_field, parse_csv],
                             ids=["edge list", "node field", "metrics csv"])
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, read):
        # The byte 0xff used to raise a bare UnicodeDecodeError without the path.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text: .*0xff"):
            read(str(path))

    def test_node_field_file(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("# header\n0.5\n1.25\n-3\n")
        assert read_node_field(str(path)).tolist() == [0.5, 1.25, -3.0]
        path.write_text("0.5\ninf\n")
        with pytest.raises(InvalidFieldError, match="values must be finite"):
            read_node_field(str(path))
