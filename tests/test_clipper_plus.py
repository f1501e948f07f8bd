import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquereg import (
    BudgetExceeded,
    Clique,
    Graph,
    InputError,
    SolverFailure,
    accuracy_ratio,
    build_consistency_graph,
    clipper_plus,
    core_numbers,
    greedy_maximal_clique,
    max_clique_exact,
    prune_by_core,
    synthetic_scene,
    validate_clique,
)
import importlib

clipper_plus_module = importlib.import_module("cliquereg.clipper_plus")
graph_module = importlib.import_module("cliquereg.graph")

from .conftest import random_graph
from .oracles import (
    always_relax_clipper_plus,
    brute_force_max_clique,
    first_fit_colour_order,
    reference_max_clique_exact,
)

# 14-vertex graph where the greedy pass returns a 7-clique but the maximum
# clique has 8 vertices; the relaxation started from the greedy complement
# finds it. Pinned so the improvement path is exercised deterministically.
GREEDY_SUBOPTIMAL_EDGES = [
    (1, 2), (1, 3), (1, 5), (1, 6), (1, 7), (1, 9), (1, 11), (1, 12),
    (1, 14), (2, 3), (2, 4), (2, 5), (2, 8), (2, 9), (2, 12), (3, 5),
    (3, 6), (3, 7), (3, 8), (3, 10), (3, 11), (3, 12), (3, 13), (4, 5),
    (4, 6), (4, 7), (4, 8), (4, 9), (4, 10), (4, 11), (4, 12), (4, 13),
    (4, 14), (5, 8), (5, 11), (5, 12), (5, 13), (6, 7), (6, 8), (6, 9),
    (6, 11), (6, 12), (6, 13), (6, 14), (7, 8), (7, 9), (7, 10), (7, 11),
    (7, 12), (7, 13), (7, 14), (8, 10), (8, 12), (8, 13), (8, 14), (9, 11),
    (9, 12), (9, 13), (9, 14), (10, 12), (10, 13), (11, 12), (11, 13),
    (11, 14), (12, 13), (12, 14), (13, 14),
]


class TestPruneByCore:
    def test_worked_example_threshold_two(self, triangle_plus_edge):
        k = core_numbers(triangle_plus_edge)
        pruned, index_map = prune_by_core(triangle_plus_edge, k, 2)
        assert index_map == (1, 2, 4)
        assert pruned.n == 3
        assert pruned.edge_count == 3

    def test_worked_example_threshold_three_empties(self, triangle_plus_edge):
        k = core_numbers(triangle_plus_edge)
        pruned, index_map = prune_by_core(triangle_plus_edge, k, 3)
        assert pruned.n == 0
        assert index_map == ()

    def test_threshold_zero_keeps_everything(self, triangle_plus_edge):
        k = core_numbers(triangle_plus_edge)
        pruned, index_map = prune_by_core(triangle_plus_edge, k, 0)
        assert index_map == (0, 1, 2, 3, 4)
        assert pruned is triangle_plus_edge

    def test_core_vector_length_mismatch(self, triangle_plus_edge):
        with pytest.raises(InputError):
            prune_by_core(triangle_plus_edge, (1, 1), 1)

    def test_pruning_never_loses_an_improving_clique(self):
        # Any clique strictly larger than the greedy one must survive the
        # prune, so searching the pruned graph plus the greedy fallback is
        # as good as searching the original.
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(2, 22))
            p = float(rng.uniform(0.1, 0.9))
            g = random_graph(rng, n, p)
            k = core_numbers(g)
            greedy = greedy_maximal_clique(g, k).clique
            pruned, _ = prune_by_core(g, k, greedy.size)
            best = greedy.size
            if pruned.n > 0:
                best = max(best, max_clique_exact(pruned).size)
            assert best == max_clique_exact(g).size


class TestClipperPlus:
    def test_worked_example_terminates_early(self, triangle_plus_edge):
        report = clipper_plus(triangle_plus_edge)
        assert report.clique.members == (1, 2, 4)
        assert report.greedy_size == 3
        assert report.pruned_n == 0
        assert report.stop == "core bound"
        assert report.early_terminated
        assert not report.relaxation_ran
        assert not report.degraded

    def test_complete_graph_terminates_early(self):
        g = Graph.from_adjacency(~np.eye(6, dtype=bool))
        report = clipper_plus(g)
        assert report.clique.size == 6
        assert report.stop == "core bound"

    def test_relaxation_improves_on_greedy(self):
        g = Graph.from_edge_list(14, GREEDY_SUBOPTIMAL_EDGES)
        k = core_numbers(g)
        assert greedy_maximal_clique(g, k).clique.size == 7
        report = clipper_plus(g)
        assert report.greedy_size == 7
        assert report.clique.members == (3, 5, 6, 8, 10, 11, 12, 13)
        assert report.stop == "relaxation"
        assert report.relaxation_ran
        assert not report.early_terminated
        assert not report.degraded

    def test_degrades_to_greedy_on_solver_failure(self, monkeypatch):
        def explode(*args, **kwargs):
            raise SolverFailure("forced", last_iterate=None, penalty=None)

        monkeypatch.setattr(clipper_plus_module, "solve_relaxation", explode)
        g = Graph.from_edge_list(14, GREEDY_SUBOPTIMAL_EDGES)
        report = clipper_plus(g)
        assert report.stop == "degraded"
        assert report.degraded and report.relaxation_ran
        assert not report.early_terminated
        assert report.clique.size == report.greedy_size == 7

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            clipper_plus(Graph.from_edge_list(0, []))

    def test_timings_are_non_negative(self, triangle_plus_edge):
        report = clipper_plus(triangle_plus_edge)
        for value in (report.core_ms, report.greedy_ms,
                      report.prune_ms, report.relax_ms):
            assert value >= 0.0

    def test_never_worse_than_greedy_and_always_maximal(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            p = float(rng.uniform(0.1, 0.9))
            g = random_graph(rng, n, p)
            k = core_numbers(g)
            greedy = greedy_maximal_clique(g, k).clique
            report = clipper_plus(g)
            assert report.clique.size >= greedy.size
            check = validate_clique(g, report.clique.members)
            assert check.is_clique and check.is_maximal

    @given(st.integers(min_value=1, max_value=18), st.randoms())
    def test_result_is_always_a_maximal_clique(self, n, pyrandom):
        rng = np.random.default_rng(pyrandom.getrandbits(64))
        g = random_graph(rng, n, float(rng.uniform(0.0, 1.0)))
        report = clipper_plus(g)
        check = validate_clique(g, report.clique.members)
        assert check.is_clique and check.is_maximal


def _relaxation_spy(monkeypatch) -> list:
    """Record every call clipper_plus makes to solve_relaxation."""
    calls = []
    relax = clipper_plus_module.solve_relaxation

    def spy(*args, **kwargs):
        calls.append(args)
        return relax(*args, **kwargs)

    monkeypatch.setattr(clipper_plus_module, "solve_relaxation", spy)
    return calls


def _colour_bound_graphs():
    """Seeded G(n, p) and consistency graphs of 100-association scenes."""
    rng = np.random.default_rng(23)
    for _ in range(150):
        yield random_graph(rng, int(rng.integers(4, 40)), float(rng.uniform(0.05, 0.9)))
    for seed in range(12):
        for ratio in (0.5, 0.8, 0.9, 0.95):
            sc = synthetic_scene(100, 0.2, 100, 1.0, 100, ratio, seed=seed)
            yield build_consistency_graph(sc.cloud_a, sc.cloud_b, sc.associations, sc.epsilon)


def _register_graphs():
    """Consistency graphs of seeded 1000-association scenes, the size of
    the benchmark's registration scenes."""
    for seed in range(2):
        for ratio in (0.5, 0.9, 0.95):
            sc = synthetic_scene(1000, 0.2, 1000, 1.0, 1000, ratio, seed=seed)
            yield build_consistency_graph(sc.cloud_a, sc.cloud_b, sc.associations, sc.epsilon)


class TestColourBound:
    def test_greedy_result_matches_a_first_fit_colouring(self):
        # The survivors are core >= clique size, and certified says that a
        # first-fit colouring of them has no class above the clique size.
        certified = Counter()
        for g in (*_colour_bound_graphs(), *_register_graphs()):
            k = core_numbers(g)
            result = greedy_maximal_clique(g, k)
            size = result.clique.size
            survivors = sum(1 << v for v, c in enumerate(k) if c >= size)
            colours = first_fit_colour_order(g.rows, survivors)
            assert result.survivors == survivors
            assert result.certified == all(c <= size for _, c in colours)
            certified[result.certified] += 1
        assert certified[True] >= 20 and certified[False] >= 20

    def test_clipper_plus_never_colours(self, monkeypatch):
        # The greedy decides the bound; clipper_plus only reads it.
        def outcomes():
            return [
                (r.clique, r.greedy_size, r.pruned_n, r.stop)
                for r in map(clipper_plus, _colour_bound_graphs())
            ]

        expected = outcomes()

        def refuse(*args, **kwargs):
            raise AssertionError("clipper_plus coloured the survivors again")

        monkeypatch.setattr(clipper_plus_module, "_colour_classes", refuse)
        monkeypatch.setattr(clipper_plus_module, "_anti_rows", refuse)
        assert outcomes() == expected

    def test_bipartite_survivors_are_certified(self, monkeypatch):
        # K_{3,3}, sides {0,1,2} and {3,4,5}: greedy finds an edge, every
        # vertex has core number 3 and survives, and the two sides are two
        # colour classes, so no clique beats the edge.
        calls = _relaxation_spy(monkeypatch)
        g = Graph.from_edge_list(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
        report = clipper_plus(g)
        assert report.greedy_size == 2 and report.pruned_n == 6
        assert report.stop == "colour bound"
        assert not report.early_terminated and not report.relaxation_ran
        assert calls == [] and report.relax_ms == 0.0
        assert report.clique.size == 2

    def test_odd_cycle_needs_the_relaxation(self, monkeypatch):
        # C5: all five vertices survive greedy's 2 and need 3 colours.
        calls = _relaxation_spy(monkeypatch)
        g = Graph.from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        report = clipper_plus(g)
        assert report.greedy_size == 2 and report.pruned_n == 5
        assert report.stop == "relaxation"
        assert len(calls) == 1
        assert report.clique.size == 2

    def test_certified_only_when_greedy_is_maximum(self):
        # Both bounds: the core bound (nothing survives the prune) and the
        # colour bound (greedy_size colours cover the survivors).
        stops = Counter()
        for g in _colour_bound_graphs():
            report = clipper_plus(g)
            stops[report.stop] += 1
            assert (report.stop == "core bound") == (report.pruned_n == 0)
            if report.stop in ("core bound", "colour bound"):
                assert report.relax_ms == 0.0 and not report.relaxation_ran
                assert max_clique_exact(g).size == report.greedy_size
        assert stops["core bound"] >= 10 and stops["colour bound"] >= 10

    def test_certified_solves_never_relabel(self, monkeypatch):
        # A bound is checked on g's own rows, and pruned_n is the survivor
        # count; the pruned graph is built only for the relaxation.
        bound = [
            g for g in _colour_bound_graphs()
            if clipper_plus(g).stop in ("core bound", "colour bound")
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a certified solve built the pruned graph")

        monkeypatch.setattr(clipper_plus_module, "prune_by_core", refuse)
        monkeypatch.setattr(graph_module, "_relabel", refuse)
        for g in bound:
            report = clipper_plus(g)
            k = core_numbers(g)
            assert report.pruned_n == sum(c >= report.greedy_size for c in k)
        assert len(bound) >= 20

    def test_relaxing_solve_prunes_once(self, monkeypatch):
        calls = []
        prune = clipper_plus_module.prune_by_core

        def spy(*args):
            calls.append(args)
            return prune(*args)

        monkeypatch.setattr(clipper_plus_module, "prune_by_core", spy)
        g = Graph.from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        report = clipper_plus(g)
        assert report.stop == "relaxation" and report.pruned_n == 5
        assert len(calls) == 1

    def test_same_result_as_always_relaxing(self):
        for g in _colour_bound_graphs():
            report = clipper_plus(g)
            assert (
                report.clique.members, report.greedy_size, report.pruned_n
            ) == always_relax_clipper_plus(g)


class TestMaxCliqueExact:
    def test_worked_example(self, triangle_plus_edge):
        assert max_clique_exact(triangle_plus_edge).members == (1, 2, 4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            p = float(rng.uniform(0.0, 1.0))
            g = random_graph(rng, n, p)
            found = max_clique_exact(g)
            check = validate_clique(g, found.members)
            assert check.is_clique
            omega, _ = brute_force_max_clique(g)
            assert found.size == omega

    def test_same_search_tree_as_first_fit_reference(self):
        # Same clique, and the budget boundary sits exactly at the
        # reference's node count, so both searches visit the same tree.
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 61))
            p = float(rng.uniform(0.1, 0.9))
            g = random_graph(rng, n, p)
            members, nodes = reference_max_clique_exact(g)
            assert max_clique_exact(g, budget=max(nodes, 1)).members == members
            if nodes > 1:
                with pytest.raises(BudgetExceeded):
                    max_clique_exact(g, budget=nodes - 1)

    def test_colour_classes_are_first_fit_independent_sets(self, monkeypatch):
        # Each candidate set the search colours, coloured in full with the
        # search's own anti rows: every class is an independent set of the
        # renumbered graph, the classes are first-fit's in its numbering
        # taken from the highest index down, and the search gets those from
        # kmin up. The renumbered rows are recovered from anti, which holds
        # every vertex but v and its neighbours.
        colour_classes = clipper_plus_module._colour_classes
        seen = []

        def spy(p_mask, anti, bit, kmin):
            seen.append((p_mask, anti, bit, kmin))
            return colour_classes(p_mask, anti, bit, kmin)

        monkeypatch.setattr(clipper_plus_module, "_colour_classes", spy)
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(30, 61)), float(rng.uniform(0.5, 0.9)))
            seen.clear()
            max_clique_exact(g)
            assert seen
            for p_mask, anti, bit, kmin in seen:
                n = len(anti)
                assert bit == [1 << v for v in range(n)]
                mask = (1 << n) - 1
                rows = [mask ^ a ^ 1 << v for v, a in enumerate(anti)]
                assert all(not (r >> v) & 1 for v, r in enumerate(rows))

                def mirror(x):
                    return int(format(x, f"0{n}b")[::-1], 2)

                mirrored = [mirror(rows[n - 1 - v]) for v in range(n)]
                full = colour_classes(p_mask, anti, bit, 1)
                classes: dict[int, int] = {}
                for v, color in full:
                    classes[color] = classes.get(color, 0) | 1 << v
                for cmask in classes.values():
                    assert not any(rows[v] & cmask for v in range(n) if (cmask >> v) & 1)
                assert full == [
                    (n - 1 - v, c) for v, c in first_fit_colour_order(mirrored, mirror(p_mask))
                ]
                assert colour_classes(p_mask, anti, bit, kmin) == [
                    (v, c) for v, c in full if c >= kmin
                ]

    def test_edgeless_graph(self):
        g = Graph.from_edge_list(4, [])
        assert max_clique_exact(g).size == 1

    def test_certified_graph_returns_the_greedy_clique_unsearched(self, monkeypatch):
        # A clique the greedy's colour bound certifies needs no order, no
        # relabelled graph and no search-tree node.
        certified = []
        for g in _colour_bound_graphs():
            result = greedy_maximal_clique(g, core_numbers(g))
            if result.certified:
                certified.append((g, result.clique))

        def refuse(*args, **kwargs):
            raise AssertionError("a certified exact search renumbered the graph")

        monkeypatch.setattr(clipper_plus_module, "_smallest_last_order", refuse)
        monkeypatch.setattr(clipper_plus_module, "_relabel", refuse)
        monkeypatch.setattr(graph_module, "_relabel", refuse)
        monkeypatch.setattr(clipper_plus_module, "prune_by_core", refuse)
        for g, clique in certified:
            assert max_clique_exact(g, budget=1) == clique
        assert len(certified) >= 20

    def test_smallest_last_numbering_keeps_g125_within_budget(self):
        # The smallest-last numbering finishes this graph in exactly 29,557
        # nodes; searching in index order needs over 100,000.
        g = random_graph(np.random.default_rng(0), 125, 0.9)
        found = max_clique_exact(g, budget=29_557)
        assert found.size == 34
        assert validate_clique(g, found.members).is_maximal
        with pytest.raises(BudgetExceeded):
            max_clique_exact(g, budget=29_556)

    def test_budget_exhaustion(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 40, 0.6)
        with pytest.raises(BudgetExceeded):
            max_clique_exact(g, budget=3)

    def test_recursion_limit_is_budget_exceeded(self):
        # Greedy finds 16 of omega = 19, so the search must recurse to depth
        # 19; a limit 12 levels above the caller's depth stops it first.
        g = random_graph(np.random.default_rng(8), 80, 0.8)
        assert greedy_maximal_clique(g, core_numbers(g)).clique.size < 19

        def headroom(levels=0):
            try:
                return headroom(levels + 1)
            except RecursionError:
                return levels

        limit = sys.getrecursionlimit()
        message = None
        sys.setrecursionlimit(limit - headroom() + 12)
        try:
            max_clique_exact(g)
        except BudgetExceeded as exc:
            message = str(exc)
        finally:
            sys.setrecursionlimit(limit)
        assert message is not None and "recursion limit at clique depth" in message
        assert max_clique_exact(g).size == 19

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            max_clique_exact(Graph.from_edge_list(0, []))
        with pytest.raises(InputError):
            max_clique_exact(Graph.from_edge_list(2, [(1, 2)]), budget=0)


class TestAccuracyRatio:
    def test_values(self):
        assert accuracy_ratio(3, 4) == pytest.approx(0.75)
        assert accuracy_ratio(4, 4) == pytest.approx(1.0)
        assert accuracy_ratio(0, 5) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            accuracy_ratio(3, 0)
        with pytest.raises(InputError):
            accuracy_ratio(-1, 3)
