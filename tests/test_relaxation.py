import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquereg import (
    Graph,
    InputError,
    SolverFailure,
    SolverParams,
    solve_relaxation,
    uniform_initial_guess,
    validate_clique,
)
from cliquereg import relaxation
from cliquereg.relaxation import RelaxationDiagnostics, evaluate, penalized_matrix

from .conftest import random_graph, solver_matrix
from .oracles import dense_penalized_matrix, sphere_directional_derivative


def complete_graph(n: int) -> Graph:
    return Graph.from_edge_list(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


class TestPenalizedMatrix:
    def test_entries(self, triangle_plus_edge):
        matrix = solver_matrix(triangle_plus_edge, 2.0)
        # non-adjacent pair (0-based 0,1) gets -d, edge (1,2) keeps 1
        assert matrix[0, 1] == -2.0
        assert matrix[1, 2] == 1.0
        assert np.all(np.diag(matrix) == 1.0)
        assert np.array_equal(matrix, dense_penalized_matrix(triangle_plus_edge, 2.0))

    def test_zero_penalty_is_adjacency_plus_identity(self, triangle_plus_edge):
        matrix = solver_matrix(triangle_plus_edge, 0.0)
        expected = triangle_plus_edge.adjacency_matrix().astype(float) + np.eye(5)
        assert np.array_equal(matrix, expected)

    def test_matches_reference_for_any_penalty(self):
        # (1 + d) - d rounds away from 1 for some d, so allow an ulp.
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 20))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            d = float(rng.uniform(0.0, 2.0 * n))
            assert np.allclose(
                solver_matrix(g, d), dense_penalized_matrix(g, d), rtol=0, atol=1e-12
            )

    def test_written_in_place_bit_for_bit(self):
        # One buffer reused across penalties holds exactly the bits of
        # the allocating form: the same two operations in the same order.
        rng = np.random.default_rng(9)
        g = random_graph(rng, 25, 0.4)
        mask_f = (g.adjacency_matrix() | np.eye(g.n, dtype=bool)).astype(float)
        buf = np.empty_like(mask_f)
        for d in (0.0, 0.37, 3.0, 17.5, 26.0):
            assert penalized_matrix(mask_f, d, out=buf) is buf
            assert np.array_equal(buf, mask_f * (1.0 + d) - d)


class TestObjective:
    def test_triangle_indicator_scores_three(self, triangle_plus_edge):
        u = np.array([0.0, 1.0, 1.0, 0.0, 1.0]) / math.sqrt(3)
        f_value, _ = evaluate(solver_matrix(triangle_plus_edge, 2.0), u)
        assert f_value == pytest.approx(3.0, abs=1e-12)

    def test_edge_indicator_scores_two(self, triangle_plus_edge):
        u = np.array([1.0, 0.0, 0.0, 1.0, 0.0]) / math.sqrt(2)
        f_value, _ = evaluate(solver_matrix(triangle_plus_edge, 2.0), u)
        assert f_value == pytest.approx(2.0, abs=1e-12)

    def test_clique_indicator_score_is_penalty_free(self):
        # Indicator of a clique never touches penalized entries, so the
        # value must not depend on d.
        g = complete_graph(4)
        u = uniform_initial_guess(4)
        for d in (0.0, 1.0, 7.5):
            f_value, _ = evaluate(solver_matrix(g, d), u)
            assert f_value == pytest.approx(4.0)


class TestProjectedGradient:
    def test_two_vertex_worked_value(self):
        g = Graph.from_edge_list(2, [])
        _, grad = evaluate(solver_matrix(g, 1.0), np.array([1.0, 0.0]))
        assert np.allclose(grad, [0.0, -2.0], atol=1e-15)

    def test_eigenvector_gives_zero_gradient(self):
        # On a complete graph M_d is the all-ones matrix; the uniform
        # vector is its leading eigenvector, so the tangent gradient is 0.
        g = complete_graph(5)
        _, grad = evaluate(solver_matrix(g, 3.0), uniform_initial_guess(5))
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_orthogonal_to_iterate(self, triangle_plus_edge):
        rng = np.random.default_rng(0)
        matrix = solver_matrix(triangle_plus_edge, 2.0)
        for _ in range(10):
            u = rng.uniform(size=5)
            u /= np.linalg.norm(u)
            _, grad = evaluate(matrix, u)
            assert abs(grad @ u) < 1e-12

    def test_matches_sphere_finite_differences_on_50_triples(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 30))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            d = float(rng.uniform(0.0, 2.0 * n))
            u = rng.uniform(0.05, 1.0, size=n)
            u /= np.linalg.norm(u)
            _, grad = evaluate(solver_matrix(g, d), u)
            direction = rng.normal(size=n)
            direction -= (direction @ u) * u
            norm = np.linalg.norm(direction)
            if norm < 1e-9:
                continue
            direction /= norm
            numeric = sphere_directional_derivative(
                dense_penalized_matrix(g, d), u, direction
            )
            analytic = float(grad @ direction)
            assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)
            checked += 1


class TestSolverParams:
    def test_rejects_bad_constants(self):
        with pytest.raises(InputError):
            SolverParams(sigma=0.0)
        with pytest.raises(InputError):
            SolverParams(beta=1.0)
        with pytest.raises(InputError):
            SolverParams(tol=-1.0)

    @pytest.mark.parametrize("name", ["tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_constants(self, name, value):
        with pytest.raises(InputError, match=name):
            SolverParams(**{name: value})


class TestSolveRelaxation:
    def test_uniform_start_finds_triangle(self, triangle_plus_edge):
        c = solve_relaxation(triangle_plus_edge, uniform_initial_guess(5))
        assert c.members == (1, 2, 4)

    def test_edge_indicator_stays_on_edge(self, triangle_plus_edge):
        # {0, 3} is a maximal clique: a valid local optimum of its own.
        u = np.array([1.0, 0.0, 0.0, 1.0, 0.0]) / math.sqrt(2)
        c = solve_relaxation(triangle_plus_edge, u)
        assert c.members == (0, 3)

    def test_complete_graph_from_any_corner(self):
        g = complete_graph(3)
        for guess in (
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.2, 0.9, 0.1]),
        ):
            assert solve_relaxation(g, guess).members == (0, 1, 2)

    def test_single_vertex(self):
        g = Graph.from_edge_list(1, [])
        assert solve_relaxation(g, np.array([1.0])).members == (0,)

    def test_all_zero_guess_falls_back_to_uniform(self, triangle_plus_edge):
        c = solve_relaxation(triangle_plus_edge, np.zeros(5))
        assert c.members == (1, 2, 4)

    def test_negative_entries_are_clamped_first(self, triangle_plus_edge):
        u = np.array([-5.0, 1.0, 1.0, -5.0, 1.0])
        c = solve_relaxation(triangle_plus_edge, u)
        assert c.members == (1, 2, 4)

    def test_wrong_length_guess_rejected(self, triangle_plus_edge):
        with pytest.raises(InputError, match="shape"):
            solve_relaxation(triangle_plus_edge, np.ones(4))

    def test_non_finite_guess_rejected(self, triangle_plus_edge):
        bad = np.array([1.0, np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(InputError, match="finite"):
            solve_relaxation(triangle_plus_edge, bad)

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            solve_relaxation(Graph.from_edge_list(0, []), np.zeros(0))

    def test_support_is_always_maximal_clique(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            guess = rng.uniform(size=n)
            diag = RelaxationDiagnostics()
            c = solve_relaxation(g, guess, diagnostics=diag)
            check = validate_clique(g, c.members)
            assert check.is_clique and check.is_maximal
            assert diag.final_objective == pytest.approx(c.size, abs=1e-6)

    def test_binary_certificate_at_termination(self, triangle_plus_edge):
        diag = RelaxationDiagnostics()
        c = solve_relaxation(
            triangle_plus_edge, uniform_initial_guess(5), diagnostics=diag
        )
        u = diag.final_u
        support = np.array(c.members)
        rest = np.setdiff1d(np.arange(5), support)
        tol = SolverParams().tol
        assert np.all(u[rest] < math.sqrt(tol))
        positive = u[support]
        assert positive.max() - positive.min() <= 1e-3 * positive.max()

    def test_objective_nondecreasing_within_each_penalty_level(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 35))
            g = random_graph(rng, n, float(rng.uniform(0.15, 0.85)))
            diag = RelaxationDiagnostics()
            solve_relaxation(g, rng.uniform(size=n), diagnostics=diag)
            by_round: dict[int, list[float]] = {}
            for rnd, _, f in diag.objective_steps:
                by_round.setdefault(rnd, []).append(f)
            for values in by_round.values():
                assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_uniform_on_isolated_vertices_escapes_saddle(self):
        # Vertices 0 and 1 are interchangeable and non-adjacent, so the
        # uniform iterate is an exactly symmetric saddle that no gradient
        # step can leave. The deterministic nudge must break the tie and
        # land on one of the two singleton cliques.
        g = Graph.from_edge_list(2, [])
        found = solve_relaxation(g, uniform_initial_guess(2))
        assert found.size == 1

    def test_exhausted_round_budget_fails_honestly(self, monkeypatch):
        monkeypatch.setattr(relaxation, "MAX_OUTER_ROUNDS_PER_VERTEX", 0)
        g = Graph.from_edge_list(2, [])
        with pytest.raises(SolverFailure):
            solve_relaxation(g, uniform_initial_guess(2))

    def test_penalty_runs_from_zero_to_vertex_count_plus_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            g = random_graph(rng, n, float(rng.uniform(0.3, 0.7)))
            diag = RelaxationDiagnostics()
            solve_relaxation(g, rng.uniform(size=n), diagnostics=diag)
            penalties = [d for _, d, _ in diag.objective_steps]
            assert penalties[0] == 0.0
            assert max(penalties) <= n + 1

    def test_diagnostics_filled(self, triangle_plus_edge):
        diag = RelaxationDiagnostics()
        solve_relaxation(triangle_plus_edge, uniform_initial_guess(5), diagnostics=diag)
        assert diag.final_u is not None
        assert diag.inner_steps >= 1
        assert diag.final_objective == pytest.approx(3.0, abs=1e-9)


@given(st.data())
def test_relaxation_support_is_maximal_clique_property(data):
    n = data.draw(st.integers(min_value=1, max_value=25))
    p = data.draw(st.floats(min_value=0.05, max_value=0.95))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    guess = rng.uniform(size=n)
    c = solve_relaxation(g, guess)
    check = validate_clique(g, c.members)
    assert check.is_clique and check.is_maximal
