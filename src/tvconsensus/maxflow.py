"""Min-cut subproblem: augmented source/sink network and an exact max-flow solver.

Given a graph, any finite node field u, and a penalty level lam, the network
couples every adjacent vertex pair with two opposite arcs of capacity lam and
attaches vertices to a source (where u > 0) or a sink (where u < 0) with
capacity |u|.  A minimum s-t cut with source side A then satisfies

    cut(A) = lam * perimeter(A) - <u, 1_A> + sum of positive u,

so minimizing the cut maximizes <u, 1_A> - lam * perimeter(A) over all subsets.
The identity holds whatever the sum of u: a field need not have zero mean.

The network is held in arc arrays, O(|V| + |E|) memory, with arcs 2k and
2k+1 each other's reverse.  ``min_cut`` runs Dinic's algorithm (BFS level
graph, blocking flow by iterative DFS with current-arc pointers) and reports
the flow on every arc, so capacity, conservation and duality can be audited.

On a complete graph perimeter(A) = |A|(N - |A|), so ``maximize_cut_functional``
takes the best top-k set of u in O(N log N) and builds no network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, check_node_field, is_complete, level, perimeter

# Residual capacities at or below this fraction of the largest one count as saturated.
RESIDUAL_EPS = 1e-12


@dataclass(frozen=True)
class FlowNetwork:
    """Directed capacitated network over vertices 0..n-1 plus source and sink.

    Arc ``a`` runs from ``tail[a]`` to ``head[a]`` with capacity ``cap[a]``, and
    arc ``a ^ 1`` is its reverse.  The source is node ``n``, the sink ``n + 1``.
    """

    n_graph_vertices: int
    tail: np.ndarray
    head: np.ndarray
    cap: np.ndarray

    @property
    def source(self) -> int:
        return self.n_graph_vertices

    @property
    def sink(self) -> int:
        return self.n_graph_vertices + 1


@dataclass(frozen=True)
class CutResult:
    """Minimum cut with its dual certificate.

    ``source_side`` excludes the source node itself; ``flow`` holds the flow
    of a maximum flow on every arc of the network, so conservation and
    capacity constraints can be audited.
    """

    source_side: frozenset[int]
    cut_value: float
    max_flow_value: float
    flow: np.ndarray = field(repr=False)


def build_network(g: Graph, u, lam: float) -> FlowNetwork:
    """Assemble the min-cut network for (g, u, lam)."""
    u = check_node_field(g, u)
    lam = level(lam, "lam", positive=True)
    n = g.n_vertices
    terminal = np.flatnonzero(u)
    from_source = u[terminal] > 0.0
    fwd = np.concatenate([g.edge_src, np.where(from_source, n, terminal)])
    bwd = np.concatenate([g.edge_dst, np.where(from_source, terminal, n + 1)])
    terminal_cap = np.column_stack([np.abs(u[terminal]), np.zeros(terminal.size)])
    cap = np.concatenate([np.full(2 * g.n_edges, lam), terminal_cap.ravel()])
    tail = np.column_stack([fwd, bwd]).ravel()
    head = np.column_stack([bwd, fwd]).ravel()
    return FlowNetwork(n_graph_vertices=n, tail=tail, head=head, cap=cap)


def _levels(source: int, starts: list, adj: list, head: list, residual: list, eps: float):
    """BFS distance from the source over open residual arcs (-1: unreached)."""
    level = [-1] * (len(starts) - 1)
    level[source] = 0
    queue = [source]
    for v in queue:
        for a in adj[starts[v] : starts[v + 1]]:
            w = head[a]
            if level[w] < 0 and residual[a] > eps:
                level[w] = level[v] + 1
                queue.append(w)
    return level


def min_cut(net: FlowNetwork) -> CutResult:
    """Exact max flow by Dinic's algorithm, then the canonical cut.

    The source side is the set reachable from the source in the final residual
    network (the minimal minimum cut), which resolves ties deterministically.
    """
    source, sink = net.source, net.sink
    n_nodes = net.n_graph_vertices + 2
    adj = np.argsort(net.tail, kind="stable").tolist()
    starts = np.concatenate([[0], np.cumsum(np.bincount(net.tail, minlength=n_nodes))]).tolist()
    tail, head, residual = net.tail.tolist(), net.head.tolist(), net.cap.tolist()
    eps = RESIDUAL_EPS * float(net.cap.max(initial=0.0))
    flow_value = 0.0
    while True:
        level = _levels(source, starts, adj, head, residual, eps)
        if level[sink] < 0:
            break
        ptr = starts[:-1]
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                bottleneck = min(residual[a] for a in path)
                for a in path:
                    residual[a] -= bottleneck
                    residual[a ^ 1] += bottleneck
                flow_value += bottleneck
                # Retreat to the tail of the first saturated arc.
                k = next(i for i, a in enumerate(path) if residual[a] <= eps)
                v = tail[path[k]]
                del path[k:]
                continue
            i, end = ptr[v], starts[v + 1]
            while i < end:
                a = adj[i]
                if residual[a] > eps and level[head[a]] == level[v] + 1:
                    break
                i += 1
            ptr[v] = i
            if i < end:
                path.append(a)
                v = head[a]
            elif v == source:
                break
            else:
                v = tail[path.pop()]
                ptr[v] += 1

    reachable = np.array(level) >= 0
    crossing = reachable[net.tail] & ~reachable[net.head]
    side = frozenset(np.flatnonzero(reachable[: net.n_graph_vertices]).tolist())
    flow = np.maximum(net.cap - np.array(residual), 0.0)
    return CutResult(side, float(net.cap[crossing].sum()), flow_value, flow)


def maximize_cut_functional(g: Graph, u, lam: float) -> tuple[frozenset[int], float]:
    """Maximize <u, 1_A> - lam * perimeter(A) over all subsets A of V.

    The empty set (value 0) and the full vertex set (value sum(u)) are both
    candidates, so the returned value is at least max(0, sum(u)).
    The subset is the smallest maximizer, the source side of the canonical cut.
    """
    u = check_node_field(g, u)
    lam = level(lam, "lam", positive=True)
    if is_complete(g):
        subset = _complete_graph_side(u, lam)
    else:
        subset = min_cut(build_network(g, u, lam)).source_side
    value = float(u[list(subset)].sum()) - lam * perimeter(g, subset) if subset else 0.0
    return subset, value


def _complete_graph_side(u: np.ndarray, lam: float) -> frozenset[int]:
    """Smallest maximizer on K_N: the top-k entries of u for the least k whose
    gain prefix_k - lam * k(N - k) is within the flow's tolerance of the best.
    That is the minimal minimum cut, the empty set at a terminal call included.
    """
    n = u.size
    order = np.argsort(-u, kind="stable")
    k = np.arange(n + 1)
    with np.errstate(over="ignore"):
        gain = np.concatenate([[0.0], np.cumsum(u[order])]) - lam * (k * (n - k))
    # The flow's tolerance scales with its largest arc; K_1 has no lam arc.
    tol = RESIDUAL_EPS * max(lam if n > 1 else 0.0, float(np.abs(u).max()))
    size = int(np.argmax(gain >= gain.max() - tol))
    return frozenset(np.sort(order[:size]).tolist())
