"""Degeneracy-ordered greedy search for a large maximal clique."""

from __future__ import annotations

from .errors import InputError
from .graph import Clique, CoreNumbers, Graph, _anti_rows, _bits, _colour_classes


def greedy_maximal_clique(g: Graph, k: CoreNumbers) -> Clique:
    """Grow a maximal clique around high-core vertices.

    Vertices are visited in descending core-number order (ties broken by
    ascending index). A visited vertex is skipped unless its core number is
    at least the best size found so far, ``c_max``; otherwise its
    neighbours with core number at least that ``c_max`` are folded in, in
    the same order, keeping only those adjacent to everything accepted so
    far. The result is always a maximal clique; its size is a lower bound
    on the maximum.

    The fold is bit-parallel: ``common`` is the set of vertices adjacent
    to everything accepted, and each core level's bitmask picks from it
    the lowest vertex still acceptable, so rejected neighbours are never
    visited.

    Each time ``c_max`` rises, the vertices with core number at least
    ``c_max`` (the only ones a larger clique can use) are coloured with
    ``_colour_classes``. When no colour class reaches ``c_max + 1``, no
    clique of ``g`` is larger than ``c_max``, so no later seed can replace
    the best clique and the sweep stops there: the clique returned is the
    one the full sweep would return. Anti rows are built once, for the
    survivors of the first raise, which hold every later survivor set.
    """
    if g.n == 0:
        raise InputError("greedy clique search needs at least one vertex")
    if len(k.values) != g.n:
        raise InputError(
            f"core-number vector has length {len(k.values)}, expected {g.n}"
        )
    level_mask: dict[int, int] = {}
    for v, c in enumerate(k.values):
        level_mask[c] = level_mask.get(c, 0) | (1 << v)
    levels = sorted(level_mask, reverse=True)
    rows = g.rows
    best_members: tuple[int, ...] = ()
    c_max = 0
    anti: list[int] | None = None

    for c_v in levels:
        for v in _bits(level_mask[c_v]):
            if c_v < c_max:
                return Clique.of(best_members)
            grown = [v]
            common = rows[v]
            for c in levels:
                if c < c_max or not common:
                    break
                pick = common & level_mask[c]
                while pick:
                    u = (pick & -pick).bit_length() - 1
                    grown.append(u)
                    common &= rows[u]
                    pick &= common
            if len(grown) > c_max:
                best_members, c_max = tuple(grown), len(grown)
                survivors = 0
                for c in levels:
                    if c < c_max:
                        break
                    survivors |= level_mask[c]
                if anti is None:
                    anti = _anti_rows(rows, survivors)
                if not _colour_classes(survivors, anti, c_max + 1):
                    return Clique.of(best_members)

    return Clique.of(best_members)
