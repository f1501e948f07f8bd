import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquereg import (
    Clique,
    Graph,
    InputError,
    core_numbers,
    sparsity,
    validate_clique,
)

from cliquereg.graph import _UNPACK_BYTES, _relabel, _smallest_last_order

from .conftest import assert_packed_rows_match, core_test_graphs, random_graph
from .oracles import (
    bucket_queue_core_numbers,
    naive_core_numbers,
    reference_smallest_last_order,
)


def path_edges(first: int, last: int) -> list[tuple[int, int]]:
    """1-based edges of the path first, first + 1, ..., last."""
    return [(v, v + 1) for v in range(first, last)]


class TestConstruction:
    def test_edge_list_matches_expected_adjacency(self, triangle_plus_edge):
        expected = np.array(
            [
                [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 1],
                [0, 1, 0, 0, 1],
                [1, 0, 0, 0, 0],
                [0, 1, 1, 0, 0],
            ],
            dtype=bool,
        )
        assert np.array_equal(triangle_plus_edge.adjacency_matrix(), expected)
        assert triangle_plus_edge.edge_count == 4

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edge_list(3, [(1, 2), (2, 1), (1, 2)])
        assert g.edge_count == 1
        assert g.adjacent(0, 1) and g.adjacent(1, 0)
        assert_packed_rows_match(g)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
    def test_edge_list_packed_rows_around_byte_boundaries(self, n):
        # Every pair, each also given reversed, so every byte of every row
        # is written more than once.
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = Graph.from_edge_list(n, edges + [(j, i) for i, j in edges])
        assert g.edge_count == n * (n - 1) // 2
        assert_packed_rows_match(g)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(InputError, match="outside"):
            Graph.from_edge_list(3, [(1, 4)])
        with pytest.raises(InputError, match="outside"):
            Graph.from_edge_list(3, [(0, 2)])

    @pytest.mark.parametrize(
        "edge, message",
        [((1,), "not a pair"), ((1, 2, 3), "not a pair"), (7, "not a pair"), ((1.5, 2), "integers")],
    )
    def test_malformed_edge_rejected(self, edge, message):
        with pytest.raises(InputError, match=message):
            Graph.from_edge_list(3, [(1, 2), edge])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            Graph.from_edge_list(3, [(2, 2)])

    def test_empty_graph(self):
        g = Graph.from_edge_list(0, [])
        assert g.n == 0 and g.edge_count == 0

    def test_vertex_count_over_packed_cap_rejected(self):
        # 92,681 vertices need just over 1 GiB of packed rows; the count is
        # refused before they are allocated.
        with pytest.raises(InputError, match="cap"):
            Graph.from_edge_list(92681, [])

    def test_from_adjacency_requires_symmetry(self):
        mat = np.zeros((3, 3), dtype=bool)
        mat[0, 1] = True
        with pytest.raises(InputError, match="symmetric"):
            Graph.from_adjacency(mat)

    def test_from_adjacency_rejects_true_diagonal(self):
        mat = np.eye(3, dtype=bool)
        with pytest.raises(InputError, match="diagonal"):
            Graph.from_adjacency(mat)

    def test_adjacency_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(1, 40)), rng.uniform())
            assert_packed_rows_match(g)

    def test_neighbors_and_degrees(self, triangle_plus_edge):
        g = triangle_plus_edge
        assert g.neighbors(1) == [2, 4]
        assert [g.degree(v) for v in range(g.n)] == [1, 2, 2, 1, 2]

    def test_induced_subgraph_keeps_internal_edges(self, triangle_plus_edge):
        sub, index_map = triangle_plus_edge.induced_subgraph([1, 2, 4])
        assert index_map == (1, 2, 4)
        assert sub.n == 3 and sub.edge_count == 3

    def test_induced_subgraph_matches_matrix_slice(self):
        rng = np.random.default_rng(11)
        for n in (1, 13, 37, 70):
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            full = g.adjacency_matrix()
            random_keep = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            for keep in ([], list(range(n)), list(random_keep)):
                sub, index_map = g.induced_subgraph(keep)
                assert index_map == tuple(sorted(keep))
                expected = full[np.ix_(index_map, index_map)]
                assert np.array_equal(sub.adjacency_matrix(), expected)
                assert sub.edge_count == np.count_nonzero(expected) // 2
                assert_packed_rows_match(sub)

    def test_induced_subgraph_rejects_out_of_range(self, triangle_plus_edge):
        for bad in (-1, triangle_plus_edge.n):
            with pytest.raises(InputError, match="outside"):
                triangle_plus_edge.induced_subgraph([0, bad])


class TestCoreNumbers:
    def test_worked_example(self, triangle_plus_edge):
        assert core_numbers(triangle_plus_edge).values == (1, 2, 2, 1, 2)

    def test_complete_graph(self):
        g = Graph.from_edge_list(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        assert core_numbers(g).values == (3, 3, 3, 3)

    def test_edgeless_graph(self):
        g = Graph.from_edge_list(4, [])
        assert core_numbers(g).values == (0, 0, 0, 0)

    def test_matches_bucket_queue_on_scenes_and_gnp(self):
        for label, g in core_test_graphs():
            assert core_numbers(g) == bucket_queue_core_numbers(g), label

    # Shapes that peel only a few vertices per round, the worst case of the
    # level-synchronous peel (a path takes n/2 rounds), and the degenerate
    # sizes, each against its closed form.
    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            (0, [], []),
            (1, [], [0]),
            (7, [], [0] * 7),
            (2000, path_edges(1, 2000), [1] * 2000),
            (2000, [(1, v) for v in range(2, 2001)], [1] * 2000),
            # Spine 1..1000, one leg 1000 + v on each spine vertex v.
            (2000, path_edges(1, 1000) + [(v, 1000 + v) for v in range(1, 1001)], [1] * 2000),
            (9, [(i, j) for i in range(1, 10) for j in range(i + 1, 10)], [8] * 9),
            # K_6 on 1..6 beside the path 7..1506.
            (
                1506,
                [(i, j) for i in range(1, 7) for j in range(i + 1, 7)] + path_edges(7, 1506),
                [5] * 6 + [1] * 1500,
            ),
        ],
        ids=["empty", "single", "edgeless", "path", "star", "caterpillar", "complete", "k6+path"],
    )
    def test_adversarial_shapes(self, n, edges, expected):
        g = Graph.from_edge_list(n, edges)
        assert list(core_numbers(g).values) == expected
        assert core_numbers(g) == bucket_queue_core_numbers(g)

    def test_peak_memory_under_half_the_packed_rows(self):
        # The peel reads the graph's packed rows and unpacks at most 1 MiB of
        # them at a time; a second copy of the rows alone would pass the
        # bound.
        n = 8000
        ends = np.random.default_rng(5).integers(1, n + 1, size=(40000, 2))
        g = Graph.from_edge_list(n, [(i, j) for i, j in ends.tolist() if i != j])
        tracemalloc.start()
        try:
            core_numbers(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * ((n + 7) // 8) / 2

    def test_matches_naive_peeling_on_200_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            p = float(rng.uniform(0.05, 0.95))
            g = random_graph(rng, n, p)
            assert list(core_numbers(g).values) == naive_core_numbers(g)


def _order_test_graphs():
    yield "empty", Graph.from_edge_list(0, [])
    yield "edgeless", Graph.from_edge_list(5, [])
    yield "path", Graph.from_edge_list(40, path_edges(1, 40))
    yield from core_test_graphs()


class TestSmallestLastOrder:
    def test_order_is_a_degeneracy_order(self):
        # A permutation; each vertex has at most its core number of
        # neighbours numbered before it; and along the removal order (the
        # reverse) the running maximum of the degrees at removal, the
        # neighbours still numbered before, is the core number.
        for label, g in _order_test_graphs():
            order = _smallest_last_order(g, (1 << g.n) - 1)
            assert sorted(order) == list(range(g.n)), label
            core = core_numbers(g).values
            before = 0
            removal_degree = {}
            for v in order:
                removal_degree[v] = (g.rows[v] & before).bit_count()
                assert removal_degree[v] <= core[v], label
                before |= 1 << v
            running = 0
            for v in reversed(order):
                running = max(running, removal_degree[v])
                assert running == core[v], label

    def test_matches_reference_ties_by_index(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 41))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.95)))
            assert _smallest_last_order(g, (1 << n) - 1) == reference_smallest_last_order(
                g, list(range(n))
            )

    def test_mask_orders_the_induced_subgraph(self):
        # Only the vertices of the mask are listed, in the order the
        # subgraph they induce gives, ties by index, as if it were built.
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 41))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.95)))
            keep = [v for v in range(n) if rng.random() < 0.6]
            mask = sum(1 << v for v in keep)
            assert _smallest_last_order(g, mask) == reference_smallest_last_order(g, keep)
            h, index_map = g.induced_subgraph(keep)
            local = _smallest_last_order(h, (1 << h.n) - 1)
            assert _smallest_last_order(g, mask) == [index_map[v] for v in local]


class TestRelabel:
    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(4)
        for label, g in _order_test_graphs():
            for order in (_smallest_last_order(g, (1 << g.n) - 1), rng.permutation(g.n).tolist()):
                inverse = [0] * g.n
                for i, v in enumerate(order):
                    inverse[v] = i
                h = _relabel(g, order)
                assert_packed_rows_match(h)
                for i in range(min(h.n, 30)):
                    assert h.neighbors(i) == sorted(inverse[u] for u in g.neighbors(order[i]))
                assert _relabel(h, inverse) == g, label

    def test_peak_memory_is_one_unpack_batch_beside_the_result(self):
        # Beside the result's own rows (packed and as ints), the relabel
        # holds at most _UNPACK_BYTES of unpacked rows; unpacking all the
        # rows at once would take 16 MB here.
        n = 4000
        ends = np.random.default_rng(12).integers(1, n + 1, size=(16000, 2))
        g = Graph.from_edge_list(n, [(i, j) for i, j in ends.tolist() if i != j])
        order = np.random.default_rng(13).permutation(n).tolist()
        tracemalloc.start()
        try:
            h = _relabel(g, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = h.packed.nbytes + sys.getsizeof(h.rows) + sum(sys.getsizeof(r) for r in h.rows)
        assert peak <= _UNPACK_BYTES + own + (64 << 10)


class TestSparsity:
    def test_worked_example(self, triangle_plus_edge):
        assert sparsity(triangle_plus_edge) == pytest.approx(0.6)

    def test_complete_graph_is_zero(self):
        g = Graph.from_edge_list(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        assert sparsity(g) == 0.0

    def test_edgeless_graph_is_one(self):
        assert sparsity(Graph.from_edge_list(6, [])) == 1.0

    def test_single_vertex_rejected(self):
        with pytest.raises(InputError, match="at least 2"):
            sparsity(Graph.from_edge_list(1, []))


class TestValidateClique:
    def test_triangle_is_maximal(self, triangle_plus_edge):
        check = validate_clique(triangle_plus_edge, [1, 2, 4])
        assert check.is_clique and check.is_maximal

    def test_edge_inside_triangle_not_maximal(self, triangle_plus_edge):
        check = validate_clique(triangle_plus_edge, [1, 2])
        assert check.is_clique and not check.is_maximal

    def test_non_adjacent_pair_is_not_clique(self, triangle_plus_edge):
        # vertices 0 and 1 (1-based 1 and 2) are not adjacent
        check = validate_clique(triangle_plus_edge, [0, 1])
        assert not check.is_clique and not check.is_maximal

    def test_disjoint_edge_is_maximal(self, triangle_plus_edge):
        check = validate_clique(triangle_plus_edge, [0, 3])
        assert check.is_clique and check.is_maximal

    def test_empty_set(self, triangle_plus_edge):
        check = validate_clique(triangle_plus_edge, [])
        assert check.is_clique and not check.is_maximal

    def test_out_of_range_member_rejected(self, triangle_plus_edge):
        with pytest.raises(InputError, match="outside"):
            validate_clique(triangle_plus_edge, [9])


class TestCliqueType:
    def test_members_sorted_and_deduplicated(self):
        c = Clique.of([4, 1, 2, 1])
        assert c.members == (1, 2, 4)
        assert c.size == 3


@given(st.data())
def test_from_edge_list_symmetric_and_loop_free(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=n),
            ).filter(lambda e: e[0] != e[1]),
            max_size=80,
        )
    )
    g = Graph.from_edge_list(n, edges)
    mat = g.adjacency_matrix()
    assert np.array_equal(mat, mat.T)
    assert not mat.diagonal().any()
    assert g.edge_count == int(np.count_nonzero(mat)) // 2
    assert_packed_rows_match(g)


@given(st.data())
def test_core_numbers_invariants(data):
    n = data.draw(st.integers(min_value=1, max_value=25))
    p = data.draw(st.floats(min_value=0.0, max_value=1.0))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    g = random_graph(np.random.default_rng(seed), n, p)
    k = core_numbers(g)
    assert all(0 <= k.values[v] <= g.degree(v) for v in range(n))
    assert list(k.values) == naive_core_numbers(g)
