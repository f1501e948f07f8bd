import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquereg import (
    Graph,
    InputError,
    build_consistency_graph,
    core_numbers,
    greedy_maximal_clique,
    synthetic_scene,
    validate_clique,
)

greedy_module = importlib.import_module("cliquereg.greedy")

from .conftest import random_graph
from .oracles import brute_force_max_clique, reference_greedy


def complete_graph(n: int) -> Graph:
    return Graph.from_edge_list(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


class TestGreedy:
    def test_worked_example_finds_triangle(self, triangle_plus_edge):
        res = greedy_maximal_clique(triangle_plus_edge, core_numbers(triangle_plus_edge)).clique
        assert res.members == (1, 2, 4)

    def test_complete_graph_returns_everything(self):
        g = complete_graph(6)
        res = greedy_maximal_clique(g, core_numbers(g)).clique
        assert res.members == (0, 1, 2, 3, 4, 5)

    def test_edgeless_graph_returns_single_vertex(self):
        g = Graph.from_edge_list(4, [])
        res = greedy_maximal_clique(g, core_numbers(g)).clique
        assert res.size == 1

    def test_empty_graph_rejected(self):
        g = Graph.from_edge_list(0, [])
        with pytest.raises(InputError):
            greedy_maximal_clique(g, core_numbers(g))

    def test_core_vector_length_mismatch_rejected(self, triangle_plus_edge):
        k4 = core_numbers(Graph.from_edge_list(4, []))
        with pytest.raises(InputError, match="length"):
            greedy_maximal_clique(triangle_plus_edge, k4)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 40, 0.4)
        k = core_numbers(g)
        first = greedy_maximal_clique(g, k).clique.members
        for _ in range(5):
            assert greedy_maximal_clique(g, k).clique.members == first

    def test_against_exhaustive_oracle_on_200_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            p = float(rng.uniform(0.1, 0.9))
            g = random_graph(rng, n, p)
            k = core_numbers(g)
            found = greedy_maximal_clique(g, k).clique
            check = validate_clique(g, found.members)
            assert check.is_clique and check.is_maximal
            omega, _ = brute_force_max_clique(g)
            assert found.size <= omega
            # Any omega-clique forces core numbers >= omega - 1.
            assert k.max_core >= omega - 1

    def test_seed_tries_higher_core_neighbours_first(self):
        # Vertex 0 is the only vertex of core number 3. Every core-4 seed
        # grows a triangle; seed 0 then folds in its core-4 neighbours
        # 3, 4, 6 and finds the 4-clique.
        edges = [(0, 3), (0, 4), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3),
                 (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
        g = Graph.from_edge_list(7, [(i + 1, j + 1) for i, j in edges])
        k = core_numbers(g)
        assert k.values == (3, 4, 4, 4, 4, 4, 4)
        assert greedy_maximal_clique(g, k).clique.members == (0, 3, 4, 6)
        assert reference_greedy(g, k) == (0, 3, 4, 6)

    def test_matches_candidate_list_reference_on_seeded_graphs(self):
        # Small and mid-size G(n, p) across the density range: many
        # vertices share a core number, so tie order and the c_max
        # threshold decide which vertices are tried.
        rng = np.random.default_rng(29)
        for _ in range(150):
            n = int(rng.integers(1, 121))
            p = float(rng.uniform(0.05, 0.95))
            g = random_graph(rng, n, p)
            k = core_numbers(g)
            assert greedy_maximal_clique(g, k).clique.members == reference_greedy(g, k)


def _scene_graph(n_assoc: int, ratio: float, seed: int) -> Graph:
    sc = synthetic_scene(n_assoc, 0.2, n_assoc, 1.0, n_assoc, ratio, seed=seed)
    return build_consistency_graph(sc.cloud_a, sc.cloud_b, sc.associations, sc.epsilon)


def _planted_clique_graph(rng: np.random.Generator, n: int, p: float, size: int) -> Graph:
    """G(n, p) with a clique on ``size`` random vertices."""
    adj = random_graph(rng, n, p).adjacency_matrix()
    members = rng.choice(n, size=size, replace=False)
    adj[np.ix_(members, members)] = True
    np.fill_diagonal(adj, False)
    return Graph.from_adjacency(adj)


def _colouring_spy(monkeypatch) -> list:
    """Record the result of every colouring the greedy makes."""
    results = []
    colour_classes = greedy_module._colour_classes

    def spy(p_mask, anti, kmin):
        results.append(colour_classes(p_mask, anti, kmin))
        return results[-1]

    monkeypatch.setattr(greedy_module, "_colour_classes", spy)
    return results


class TestColourBoundStop:
    @pytest.mark.parametrize("ratio", [0.5, 0.95, 0.99])
    def test_matches_reference_on_consistency_graphs(self, ratio):
        # The stop drops only seeds that cannot beat the best clique, so
        # the clique equals that of the full sweep.
        for seed in range(3):
            g = _scene_graph(300, ratio, seed)
            k = core_numbers(g)
            assert greedy_maximal_clique(g, k).clique.members == reference_greedy(g, k)

    def test_matches_reference_where_the_stop_fires(self, monkeypatch):
        # A planted clique well above the G(n, p) cores is all that
        # survives its size once the greedy finds it: one colour per
        # member and no class beyond, so the sweep stops there.
        results = _colouring_spy(monkeypatch)
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(60, 200))
            g = _planted_clique_graph(rng, n, float(rng.uniform(0.05, 0.3)), n // 8 + 12)
            k = core_numbers(g)
            results.clear()
            assert greedy_maximal_clique(g, k).clique.members == reference_greedy(g, k)
            assert results[-1] == []

    def test_ci_scene_colours_once_and_stops_early(self, monkeypatch):
        # The 1000-association scene of the CI colour-bound step: the first
        # seed grows the 50 planted inliers, the 512 vertices of core
        # number >= 50 take 50 colours, and the sweep stops after that
        # seed, where a full sweep would try every one of the 512.
        results = _colouring_spy(monkeypatch)
        seeds = []
        bits = greedy_module._bits

        def seed_spy(mask):
            for v in bits(mask):
                seeds.append(v)
                yield v

        monkeypatch.setattr(greedy_module, "_bits", seed_spy)
        g = _scene_graph(1000, 0.95, 3)
        k = core_numbers(g)
        clique = greedy_maximal_clique(g, k).clique
        survivors = sum(c >= clique.size for c in k.values)
        assert (clique.size, survivors) == (50, 512)
        assert results == [[]]
        assert len(seeds) == 1
        assert clique.members == reference_greedy(g, k)


@given(st.data())
def test_greedy_matches_candidate_list_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=60))
    p = data.draw(st.floats(min_value=0.0, max_value=1.0))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    g = random_graph(np.random.default_rng(seed), n, p)
    k = core_numbers(g)
    assert greedy_maximal_clique(g, k).clique.members == reference_greedy(g, k)


@given(st.data())
def test_greedy_always_returns_maximal_clique(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    p = data.draw(st.floats(min_value=0.0, max_value=1.0))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    g = random_graph(np.random.default_rng(seed), n, p)
    res = greedy_maximal_clique(g, core_numbers(g)).clique
    check = validate_clique(g, res.members)
    assert check.is_clique and check.is_maximal
