import numpy as np
import pytest

from tvconsensus import (
    DualNormResult,
    Graph,
    build_network,
    erdos_renyi,
    maximize_cut_functional,
    min_cut,
    perimeter,
)
from tvconsensus.dualnorm import RATIO_STAGNATION_RTOL


MAX_DRAWS = 1000


def random_connected_graph(rng: np.random.Generator, n_max: int = 12, p: float = 0.5) -> Graph:
    """Seeded connected Erdos-Renyi sample by rejection, at most ``MAX_DRAWS`` draws."""
    for _ in range(MAX_DRAWS):
        n = int(rng.integers(3, n_max + 1))
        g = erdos_renyi(n, p, int(rng.integers(0, 2**31)))
        if g.is_connected:
            return g
    raise RuntimeError(f"no connected graph in {MAX_DRAWS} draws (n_max={n_max}, p={p}); "
                       "is Graph.is_connected right?")


def mean_zero_field(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.normal(size=n)
    return u - u.mean()


def dinic_maximize_cut_functional(g: Graph, u, lam: float) -> tuple[frozenset[int], float]:
    """``maximize_cut_functional`` through the max-flow on every graph, complete ones too."""
    u = np.asarray(u, dtype=float)
    subset = min_cut(build_network(g, u, lam)).source_side
    value = float(u[list(subset)].sum()) - lam * perimeter(g, subset) if subset else 0.0
    return subset, value


def largest_entry_dual_norm(g: Graph, u: np.ndarray) -> DualNormResult:
    """The ratio iteration started at the singleton with the largest |u|, whatever its degree.

    The reference for ``dual_norm_algorithm0``, which starts at the largest
    |u_v| / deg_v instead; the loop is otherwise the same.  ``u`` must be a
    nonzero mean-zero field on the connected graph ``g``.
    """
    start = int(np.argmax(np.abs(u)))
    if u[start] >= 0.0:
        subset = frozenset([start])
    else:
        subset = frozenset(range(g.n_vertices)) - {start}
    lam = float(u[list(subset)].sum()) / perimeter(g, subset)
    sequence = [lam]

    value_tol = RATIO_STAGNATION_RTOL * float(np.abs(u).sum())
    iterations = 0
    anomaly = False
    while True:
        if iterations >= g.n_edges:
            anomaly = True
            break
        iterations += 1
        candidate, gain = maximize_cut_functional(g, u, lam)
        if gain <= value_tol:
            break
        new_lam = float(u[list(candidate)].sum()) / perimeter(g, candidate)
        if new_lam <= lam * (1.0 + RATIO_STAGNATION_RTOL):
            break
        lam, subset = new_lam, candidate
        sequence.append(lam)

    return DualNormResult(
        value=lam,
        witness_subset=subset,
        iterations=iterations,
        lambda_sequence=tuple(sequence),
        anomaly=anomaly,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
