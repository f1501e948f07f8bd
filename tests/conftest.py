import os

import hypothesis
import numpy as np
import pytest

from cliquereg import Graph
from cliquereg.relaxation import penalized_matrix

hypothesis.settings.register_profile(
    "fast", max_examples=25, deadline=None
)
hypothesis.settings.register_profile(
    "ci", max_examples=100, deadline=None
)
# CI selects the larger profile through the environment.
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Seeded Erdos-Renyi graph used across the suite."""
    upper = rng.uniform(size=(n, n)) < p
    adj = np.triu(upper, k=1)
    adj = adj | adj.T
    return Graph.from_adjacency(adj)


def solver_matrix(g: Graph, d: float) -> np.ndarray:
    """M_d built by the solver's own code from the adjacency-plus-identity mask."""
    mask_f = (g.adjacency_matrix() | np.eye(g.n, dtype=bool)).astype(float)
    return penalized_matrix(mask_f, d)


@pytest.fixture
def triangle_plus_edge() -> Graph:
    # 5 vertices, 0-based: triangle {1, 2, 4} plus the disjoint edge {0, 3}.
    return Graph.from_edge_list(5, [(1, 4), (2, 3), (2, 5), (3, 5)])
