import os

import hypothesis
import numpy as np
import pytest

from cliquereg import Graph, build_consistency_graph, synthetic_scene
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


def assert_packed_rows_match(g: Graph) -> None:
    """The graph's two forms hold the same bits: ``packed[i]`` is the
    little-endian bytes of ``rows[i]``, read-only, and the graph survives a
    round trip through its boolean matrix with an equal hash."""
    nbytes = (g.n + 7) // 8
    assert g.packed.shape == (g.n, nbytes) and g.packed.dtype == np.uint8
    assert not g.packed.flags.writeable
    for i in range(g.n):
        assert g.packed[i].tobytes() == g.rows[i].to_bytes(nbytes, "little")
    back = Graph.from_adjacency(g.adjacency_matrix())
    assert back == g and hash(back) == hash(g)


def core_test_graphs():
    """Labelled graphs for the core-number oracles: consistency graphs of
    seeded scenes (300 and 1000 associations, outlier ratios 0.5 and 0.95)
    and seeded G(n, p) up to n = 1000."""
    for n_assoc in (300, 1000):
        for ratio in (0.5, 0.95):
            sc = synthetic_scene(n_assoc, 0.2, n_assoc, 1.0, n_assoc, ratio, seed=n_assoc)
            g = build_consistency_graph(sc.cloud_a, sc.cloud_b, sc.associations, sc.epsilon)
            yield f"scene {n_assoc} r{ratio}", g
    rng = np.random.default_rng(6)
    for n, p in ((200, 0.9), (500, 0.5), (1000, 0.3), (1000, 0.02)):
        yield f"G({n},{p})", random_graph(rng, n, p)


def solver_matrix(g: Graph, d: float) -> np.ndarray:
    """M_d built by the solver's own code from the adjacency-plus-identity mask."""
    mask_f = (g.adjacency_matrix() | np.eye(g.n, dtype=bool)).astype(float)
    return penalized_matrix(mask_f, d)


@pytest.fixture
def triangle_plus_edge() -> Graph:
    # 5 vertices, 0-based: triangle {1, 2, 4} plus the disjoint edge {0, 3}.
    return Graph.from_edge_list(5, [(1, 4), (2, 3), (2, 5), (3, 5)])
