"""Independent reference implementations used only by tests.

These deliberately avoid the library's algorithms and data paths: core
numbers by literal peeling, maximum cliques by exhaustive subset
enumeration, the penalized matrix entry by entry, derivatives by
central differences on the sphere. Four are plainer forms of library
code kept as references it must match exactly: the bucket-queue core
numbers, the broadcast distance mismatch, the candidate-list greedy and
the exact search with first-fit colouring and its own prune, colour
bound, smallest-last order and renumbering. One more, CLIPPER+ without its
colour bound, pins that skipping a relaxation the bound proves useless changes no result.
"""

from __future__ import annotations

import numpy as np

from cliquereg import (
    Graph,
    SolverFailure,
    core_numbers,
    greedy_maximal_clique,
    prune_by_core,
    solve_relaxation,
)


def naive_core_numbers(g: Graph) -> list[int]:
    """K(v) = largest k such that v survives min-degree-k peeling."""
    core = [0] * g.n
    max_deg = max((g.rows[v].bit_count() for v in range(g.n)), default=0)
    for k in range(max_deg + 1):
        alive = set(range(g.n))
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                deg = sum(1 for u in g.neighbors(v) if u in alive)
                if deg < k:
                    alive.discard(v)
                    changed = True
        for v in alive:
            core[v] = k
    return core


def bucket_queue_core_numbers(g: Graph) -> tuple[int, ...]:
    """Core numbers by one-vertex-at-a-time min-degree peeling.

    Bucket-queue implementation (Batagelj-Zaversnik), O(|V| + |E|).
    """
    n = g.n
    if n == 0:
        return ()
    degree = [g.rows[v].bit_count() for v in range(n)]
    max_deg = max(degree)
    bins = [0] * (max_deg + 1)
    for d in degree:
        bins[d] += 1
    start = 0
    for d in range(max_deg + 1):
        count = bins[d]
        bins[d] = start
        start += count
    pos = [0] * n
    vert = [0] * n
    for v in range(n):
        pos[v] = bins[degree[v]]
        vert[pos[v]] = v
        bins[degree[v]] += 1
    for d in range(max_deg, 0, -1):
        bins[d] = bins[d - 1]
    bins[0] = 0

    core = degree[:]
    unpeeled = (1 << n) - 1
    for i in range(n):
        v = vert[i]
        unpeeled ^= 1 << v
        for u in g.neighbors(v):
            if not (unpeeled >> u) & 1:
                continue
            if core[u] > core[v]:
                du, pu = core[u], pos[u]
                pw = bins[du]
                w = vert[pw]
                if u != w:
                    pos[u], vert[pu] = pw, w
                    pos[w], vert[pw] = pu, u
                bins[du] += 1
                core[u] -= 1
    return tuple(core)


def brute_force_max_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Maximum clique size and one witness by enumerating all 2^n subsets.

    A subset is a clique iff the subset minus its lowest vertex is a clique
    and that vertex is adjacent to the rest; the table is filled grouped by
    lowest vertex, highest first, so every "rest" is already known. Only
    sensible for n <= ~20.
    """
    n = g.n
    if n == 0:
        return 0, ()
    is_clique = np.zeros(1 << n, dtype=bool)
    is_clique[0] = True
    for v in range(n - 1, -1, -1):
        rest = np.arange(1 << (n - v - 1), dtype=np.int64) << (v + 1)
        ok = is_clique[rest] & ((rest & ~g.rows[v]) == 0)
        is_clique[rest | (1 << v)] = ok
    masks = np.flatnonzero(is_clique).astype(np.uint64)
    # Popcount of each mask from its eight bytes (np.bitwise_count needs numpy 2).
    sizes = np.unpackbits(masks.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    best_mask = int(masks[np.argmax(sizes)])
    members = tuple(v for v in range(n) if (best_mask >> v) & 1)
    return len(members), members


def broadcast_distance_mismatch(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """``| ||pa_i - pa_k|| - ||pb_i - pb_k|| |`` through (n, n, 3) differences."""
    da = np.linalg.norm(pa[:, None, :] - pa[None, :, :], axis=2)
    db = np.linalg.norm(pb[:, None, :] - pb[None, :, :], axis=2)
    return np.abs(da - db)


def reference_greedy(g: Graph, k: tuple[int, ...]) -> tuple[int, ...]:
    """Degeneracy greedy with an explicit, sorted candidate list per seed.

    Seeds go in (-core, index) order. A seed whose core number is at least
    the best size so far, ``c_max``, tries its neighbours with core number
    at least ``c_max`` in the same order, accepting each one adjacent to
    everything accepted. Returns the sorted members of the best clique.
    """
    order = sorted(range(g.n), key=lambda v: (-k[v], v))
    best_members: tuple[int, ...] = ()
    c_max = 0
    for v in order:
        if k[v] >= c_max:
            candidates = [u for u in g.neighbors(v) if k[u] >= c_max]
            candidates.sort(key=lambda u: (-k[u], u))
            grown_mask = 1 << v
            grown = [v]
            if len(grown) > c_max:
                best_members, c_max = tuple(grown), len(grown)
            for u in candidates:
                if (grown_mask & ~g.rows[u]) == 0:
                    grown_mask |= 1 << u
                    grown.append(u)
                if len(grown) > c_max:
                    best_members, c_max = tuple(grown), len(grown)
    return tuple(sorted(best_members))


def dense_penalized_matrix(g: Graph, d: float) -> np.ndarray:
    """M_d entry by entry: 1 on edges and the diagonal, -d elsewhere."""
    mask = g.adjacency_matrix() | np.eye(g.n, dtype=bool)
    return np.where(mask, 1.0, -float(d))


def sphere_directional_derivative(
    matrix: np.ndarray, u: np.ndarray, direction: np.ndarray, h: float = 1e-5
) -> float:
    """Central difference of F(x) = x^T M x along a curve on the unit
    sphere through u in the given tangent direction."""

    def f_at(t: float) -> float:
        x = u + t * direction
        x = x / np.linalg.norm(x)
        return float(x @ (matrix @ x))

    return (f_at(h) - f_at(-h)) / (2.0 * h)


def first_fit_colour_order(rows: tuple[int, ...], p_mask: int) -> list[tuple[int, int]]:
    """``(vertex, colour)`` pairs of first-fit colouring, stably sorted by colour.

    Vertices of ``p_mask`` go in index order, each into the lowest class
    holding none of its neighbours (a new class when every class does).
    """
    classes: list[int] = []
    ordered: list[tuple[int, int]] = []
    for v in range(p_mask.bit_length()):
        if not (p_mask >> v) & 1:
            continue
        for ci, cmask in enumerate(classes):
            if not (rows[v] & cmask):
                classes[ci] |= 1 << v
                ordered.append((v, ci + 1))
                break
        else:
            classes.append(1 << v)
            ordered.append((v, len(classes)))
    ordered.sort(key=lambda vc: vc[1])
    return ordered


def reference_smallest_last_order(g: Graph, vertices: list[int]) -> list[int]:
    """``vertices`` in smallest-last order on the subgraph they induce.

    Repeatedly removes the live vertex with the least ``(current degree,
    index)``, then reverses the removal order.
    """
    live = set(vertices)
    degree = {v: sum(1 for u in g.neighbors(v) if u in live) for v in live}
    removal = []
    while live:
        v = min(live, key=lambda u: (degree[u], u))
        live.discard(v)
        removal.append(v)
        for u in g.neighbors(v):
            if u in live:
                degree[u] -= 1
    return removal[::-1]


def reference_max_clique_exact(g: Graph) -> tuple[tuple[int, ...], int]:
    """Sorted members of the exact search's maximum clique, and its node count.

    The same branch and bound as ``max_clique_exact`` (greedy lower bound,
    core prune, smallest-last numbering, branching from the highest colour
    down), with every candidate set coloured first-fit and no budget.
    ``nodes`` counts the calls of ``expand``, the search-tree nodes the
    budget caps. When a first-fit colouring of the survivors has no class
    above the greedy size, the greedy clique is returned with 0 nodes.
    """
    k = core_numbers(g)
    best = list(greedy_maximal_clique(g, k).clique.members)
    survivors = [v for v in range(g.n) if k[v] >= len(best)]
    colours = first_fit_colour_order(g.rows, sum(1 << v for v in survivors))
    if all(c <= len(best) for _, c in colours):
        return tuple(best), 0
    order = reference_smallest_last_order(g, survivors)
    position = {v: i for i, v in enumerate(order)}
    rows = [
        sum(1 << position[u] for u in g.neighbors(v) if u in position)
        for v in order
    ]
    stack: list[int] = []
    nodes = 0

    def expand(p_mask: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if p_mask == 0:
            if len(stack) > len(best):
                best = [order[v] for v in stack]
            return
        current = p_mask
        for v, color in reversed(first_fit_colour_order(rows, p_mask)):
            if len(stack) + color <= len(best):
                return
            stack.append(v)
            expand(current & rows[v])
            stack.pop()
            current &= ~(1 << v)

    for v in range(len(order)):
        if k[order[v]] + 1 > len(best):
            stack.append(v)
            expand(rows[v] & ((1 << v) - 1))
            stack.pop()
    return tuple(sorted(best)), nodes


def always_relax_clipper_plus(g: Graph) -> tuple[tuple[int, ...], int, int]:
    """Members, greedy size and pruned vertex count of CLIPPER+ with no
    colour bound: the relaxation runs whenever the prune leaves a vertex,
    seeded with the complement of the greedy clique, and wins only when
    strictly larger; a failed relaxation keeps the greedy clique."""
    k = core_numbers(g)
    greedy = greedy_maximal_clique(g, k).clique
    pruned, index_map = prune_by_core(g, k, greedy.size)
    best = greedy.members
    if pruned.n > 0:
        guess = np.array([0.0 if v in greedy.members else 1.0 for v in index_map])
        try:
            local = solve_relaxation(pruned, guess)
        except SolverFailure:
            local = None
        if local is not None and local.size > greedy.size:
            best = tuple(sorted(index_map[v] for v in local.members))
    return best, greedy.size, pruned.n
