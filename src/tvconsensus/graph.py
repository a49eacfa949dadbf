"""Undirected graphs as index arrays, subsets and components, and graph I/O.

Vertices are dense 0-based integers.  Every edge is held once, as its
canonical (low, high) pair, and the edges are in lexicographic order, however
the input listed them.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, InvalidFieldError, InvalidSubsetError, UnsupportedGraphError


class Graph:
    """Immutable undirected graph without self-loops or duplicate edges.

    Held as its sorted edge arrays, ``edge_src`` < ``edge_dst`` in lexicographic
    order, and its degrees.  Connectivity is computed once, at construction.
    """

    __slots__ = ("_n", "_src", "_dst", "_degrees", "_connected")

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> None:
        n = self._n = whole_number(n_vertices, 1, "n_vertices")
        pairs = _vertex_ids(n, edges)
        if pairs.size and pairs.shape[1:] != (2,):  # any empty input is the edgeless graph
            raise InvalidSubsetError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"self-loop at vertex {pairs[loops][0, 0]} is not allowed")
        ends = np.sort(pairs, axis=1)  # each edge as (low, high), then in lexicographic order
        ends = ends[np.argsort(ends[:, 0] * n + ends[:, 1], kind="stable")]
        repeated = (ends[1:] == ends[:-1]).all(axis=1)
        if repeated.any():
            raise ValueError(f"duplicate edge {tuple(ends[1:][repeated][0].tolist())}")
        self._src, self._dst = ends.T.copy()
        self._degrees = np.bincount(ends.ravel(), minlength=n)
        for array in (self._src, self._dst, self._degrees):
            array.setflags(write=False)
        self._connected = not _component_roots(n, self._src, self._dst).any()  # all roots 0

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return len(self._src)

    @property
    def oriented_edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical (low, high) pairs, in lexicographic order."""
        return tuple(zip(self._src.tolist(), self._dst.tolist()))

    @property
    def edge_src(self) -> np.ndarray:
        return self._src

    @property
    def edge_dst(self) -> np.ndarray:
        return self._dst

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def is_connected(self) -> bool:
        return self._connected

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's neighbours, ascending: the edges ending at v, then the run starting at v."""
        (v,) = _vertex_ids(self._n, [v]).tolist()
        lo, hi = self._src.searchsorted([v, v + 1])
        return tuple(self._src[self._dst == v].tolist() + self._dst[lo:hi].tolist())

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph on ``vertices``; returns (graph, sorted original ids)."""
        kept = np.flatnonzero(subset_mask(self, vertices))
        if not kept.size:
            raise InvalidSubsetError("induced subgraph needs at least one vertex")
        index = np.full(self._n, -1, dtype=np.intp)
        index[kept] = np.arange(kept.size)
        edges = index[np.column_stack([self._src, self._dst])]
        return Graph(kept.size, edges[(edges >= 0).all(axis=1)]), tuple(kept.tolist())

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self._n}, n_edges={self.n_edges})"


def _vertex_ids(n: int, ids) -> np.ndarray:
    """``ids`` as intp ids in 0..n-1; InvalidSubsetError for a non-number, a non-integral float
    or a ragged nesting."""
    try:
        ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    except ValueError:  # numpy's "inhomogeneous shape", as from [(0, 1), (2,)]
        raise InvalidSubsetError("vertex ids must form an array, got a ragged nesting") from None
    if ids.dtype.kind not in "iuf":
        raise InvalidSubsetError(f"vertex ids must be integers, not {ids.dtype.type.__name__}")
    if ids.dtype.kind == "f":  # integer arrays need no float temporaries
        bad = ids[~(np.isfinite(ids) & (ids == np.trunc(ids)))]
        if bad.size:
            raise InvalidSubsetError(f"vertex ids must be integers: {bad[0]} is not an integer")
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise InvalidSubsetError(f"unknown vertex id {ids[outside][0]}")
    return ids.astype(np.intp, copy=False)


def whole_number(value, least: int, what: str) -> int:
    """``value`` as an int; ``DomainError`` unless it is a whole real number >= ``least``
    and not a bool (so not a string, None, NaN or ±inf)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and value >= least:
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise DomainError(f"{what} must be a whole number of at least {least}, got {value!r}")


def finite_numbers(values, what: str, *, scalar: bool = False, finite: bool = True) -> np.ndarray:
    """``values`` as a float64 array; ``InvalidFieldError`` unless numpy reads them as ints or
    floats (not booleans, strings or objects such as None), they are one number (a 0-d
    array) if ``scalar``, and all are finite if ``finite``."""
    x = np.asarray(values)
    if x.dtype.kind not in "iuf":
        raise InvalidFieldError(f"{what} must be int or float, not {x.dtype.type.__name__}")
    if scalar and x.ndim:
        raise InvalidFieldError(f"{what} must be one number, got shape {x.shape}")
    x = x.astype(float, copy=False)
    if finite and not np.isfinite(x).all():
        raise InvalidFieldError(f"{what} is not finite")
    return x


def is_complete(g: Graph) -> bool:
    return g.n_edges == g.n_vertices * (g.n_vertices - 1) // 2


def check_node_field(g: Graph, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``values`` checked by ``finite_numbers`` as a float64 array of length |V|."""
    x = finite_numbers(values, "node field")
    if x.ndim != 1 or x.shape[0] != g.n_vertices:
        raise InvalidFieldError(f"node field must have length {g.n_vertices}, got shape {x.shape}")
    return x


def subset_mask(g: Graph, vertices: Iterable[int]) -> np.ndarray:
    """The boolean membership mask of ``vertices``, ids checked by ``_vertex_ids``."""
    mask = np.zeros(g.n_vertices, dtype=bool)
    mask[_vertex_ids(g.n_vertices, vertices)] = True
    return mask


def require_connected(g: Graph, what: str) -> None:
    if not g.is_connected:
        raise UnsupportedGraphError(f"{what} need a connected graph")


def perimeter(g: Graph, subset: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in ``subset``."""
    mask = subset_mask(g, subset)
    return int(np.count_nonzero(mask[g.edge_src] != mask[g.edge_dst]))


def connected_components(g: Graph, subset: Iterable[int]) -> list[frozenset[int]]:
    """Maximal connected pieces of the subgraph induced by ``subset``, by smallest member."""
    members = np.flatnonzero(subset_mask(g, subset))
    local = np.full(g.n_vertices, -1, dtype=np.intp)
    local[members] = np.arange(members.size)
    src, dst = local[g.edge_src], local[g.edge_dst]
    inside = (src >= 0) & (dst >= 0)
    roots = members[_component_roots(members.size, src[inside], dst[inside])]
    order = np.argsort(roots, kind="stable")
    breaks = np.flatnonzero(np.diff(roots[order])) + 1
    return [frozenset(piece.tolist()) for piece in np.split(members[order], breaks) if piece.size]


def _component_roots(size: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest vertex in the component of each of 0..size-1, given each edge once.

    Each vertex points to a root no larger than itself.  A round hooks every
    root onto the smallest root across its edges, both ways, and shortcuts the
    pointers.  A round that changes anything lowers a root, so there are at
    most ``size`` rounds.  On a path only the local minima among the roots stay
    roots, so the roots halve each round and ceil(log2 size) + 1 rounds suffice.
    """
    root = np.arange(size)
    while True:
        hooked = root.copy()
        a, b = root[src], root[dst]
        np.minimum.at(hooked, a, b)
        np.minimum.at(hooked, b, a)
        while (hooked[hooked] != hooked).any():
            hooked = hooked[hooked]
        if (hooked == root).all():
            return root
        root = hooked


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def path_graph(n: int) -> Graph:
    v = np.arange(n - 1)
    return Graph(n, np.column_stack([v, v + 1]))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    v = np.arange(n)
    return Graph(n, np.column_stack([v, (v + 1) % n]))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a seeded generator; connectivity is not guaranteed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    # One draw per pair in row-major order, a row at a time: the stream of a
    # scalar draw per pair, in O(n + |E|) memory.
    rng = np.random.default_rng(seed)
    heads = [v + 1 + np.flatnonzero(rng.random(n - v - 1) < p) for v in range(n)]
    tails = np.repeat(np.arange(n), [len(h) for h in heads])
    return Graph(n, np.column_stack([tails, np.concatenate([np.empty(0, np.intp), *heads])]))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _records(path: str) -> Iterator[tuple[int, str, str]]:
    """(number, raw line, text without ``#`` comment or outer blanks) of each line with text;
    ``ValueError`` naming ``path`` if the file is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if text:
                    yield lineno, raw, text
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def write_text(path: str, parts: Iterable[str]) -> None:
    """Write ``parts`` to ``path`` as UTF-8 with ``\\n`` line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)


def load_edge_list(path: str) -> Graph:
    """Read a graph from text: one ``u v`` pair per line, ``#`` starts a comment.

    The vertex count is inferred as (largest id + 1); trailing isolated
    vertices therefore cannot be represented by this format.
    """
    seen: dict[tuple[int, int], int] = {}  # each (low, high) pair -> its first line
    for lineno, raw, text in _records(path):
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        try:
            v, w = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: vertex ids must be integers") from exc
        if v < 0 or w < 0:
            raise ValueError(f"{path}:{lineno}: vertex ids must be nonnegative")
        if v == w:
            raise ValueError(f"{path}:{lineno}: self-loop at vertex {v} is not allowed")
        pair = (min(v, w), max(v, w))
        if pair in seen:
            raise ValueError(f"{path}:{lineno}: duplicate edge {pair}, first on line {seen[pair]}")
        seen[pair] = lineno
    if not seen:
        raise ValueError(f"{path}: no edges found")
    return Graph(max(hi for _, hi in seen) + 1, list(seen))


def save_edge_list(g: Graph, path: str) -> None:
    """Write ``g`` in the format ``load_edge_list`` reads back as the same graph."""
    if not g.degrees[-1]:
        raise UnsupportedGraphError(
            f"vertex {g.n_vertices - 1} has no edges; an edge list infers the vertex count "
            "from the largest id, so it cannot carry an isolated highest vertex"
        )
    write_text(path, ["".join(f"{v} {w}\n" for v, w in g.oriented_edges)])


def read_node_field(path: str) -> np.ndarray:
    """Read a node field from text: one value per line, ``#`` starts a comment.
    The values must be finite; the caller checks their count against its graph."""
    values: list[float] = []
    for lineno, raw, text in _records(path):
        try:
            value = float(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise InvalidFieldError(f"{path}:{lineno}: values must be finite, got {raw!r}")
        values.append(value)
    return np.array(values, dtype=float)
