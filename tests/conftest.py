import numpy as np
import pytest

from tvconsensus import Graph, build_network, erdos_renyi, min_cut, perimeter


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
