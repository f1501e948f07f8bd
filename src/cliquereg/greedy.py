"""Degeneracy-ordered greedy search for a large maximal clique."""

from __future__ import annotations

from .errors import InputError
from .graph import Clique, CoreNumbers, Graph


def greedy_maximal_clique(g: Graph, k: CoreNumbers) -> Clique:
    """Grow a maximal clique around high-core vertices.

    Vertices are visited in descending core-number order (ties broken by
    ascending index). A visited vertex is skipped unless its core number is
    at least the best size found so far; otherwise its candidate neighbours
    (same core-number filter, same ordering) are folded in one by one,
    keeping only those adjacent to everything accepted so far. The result
    is always a maximal clique; its size is a lower bound on the maximum.
    """
    if g.n == 0:
        raise InputError("greedy clique search needs at least one vertex")
    if len(k.values) != g.n:
        raise InputError(
            f"core-number vector has length {len(k.values)}, expected {g.n}"
        )
    order = sorted(range(g.n), key=lambda v: (-k.values[v], v))
    best_members: tuple[int, ...] = ()
    c_max = 0

    for v in order:
        if k.values[v] >= c_max:
            candidates = [u for u in g.neighbors(v) if k.values[u] >= c_max]
            candidates.sort(key=lambda u: (-k.values[u], u))
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

    return Clique.of(best_members)
