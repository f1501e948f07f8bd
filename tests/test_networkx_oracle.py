"""Differential checks against networkx, an implementation independent of
cliquereg, at sizes the exhaustive oracle in ``oracles.py`` cannot reach.
Skipped when networkx is not installed; it is not a runtime dependency,
but the ``test`` extra installs it."""

import itertools

import numpy as np
import pytest

from cliquereg import Graph, core_numbers, greedy_maximal_clique, max_clique_exact

from .conftest import core_test_graphs, random_graph

nx = pytest.importorskip("networkx")


def to_networkx(g: Graph):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((v, u) for v in range(g.n) for u in g.neighbors(v) if u > v)
    return G


def seeded_graphs(count: int, n_range=(20, 80), p_range=(0.1, 0.7), seed: int = 2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*p_range))
        yield random_graph(rng, n, p)


def test_exact_clique_size_matches_networkx():
    # On the dense graphs the greedy clique is seldom maximum, so the
    # search branches deep.
    dense = seeded_graphs(20, n_range=(60, 100), p_range=(0.6, 0.85), seed=2025)
    for g in itertools.chain(seeded_graphs(40), dense):
        omega = nx.max_weight_clique(to_networkx(g), weight=None)[1]
        assert max_clique_exact(g).size == omega


def test_core_numbers_match_networkx():
    labelled = itertools.chain(core_test_graphs(), (("seeded", g) for g in seeded_graphs(40)))
    for label, g in labelled:
        expected = nx.core_number(to_networkx(g))
        assert core_numbers(g).values == tuple(expected[v] for v in range(g.n)), label


def test_greedy_clique_is_maximal_per_networkx():
    # find_cliques lists exactly the maximal cliques.
    for g in seeded_graphs(40, n_range=(20, 60)):
        members = greedy_maximal_clique(g, core_numbers(g)).clique.members
        maximal = {tuple(sorted(c)) for c in nx.find_cliques(to_networkx(g))}
        assert members in maximal
