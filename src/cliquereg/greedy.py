"""Degeneracy-ordered greedy search for a large maximal clique."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import Clique, Graph, _bits


@dataclass(frozen=True)
class GreedyResult:
    """The greedy clique and the colour bound decided at its last raise.

    ``survivors`` is the bitmask of the vertices with core number at least
    ``clique.size``, the only ones a larger clique can use. ``certified``
    is true when their first-fit colouring in index order needs at most
    ``clique.size`` colours (``_colours_within``), which proves the clique
    maximum; an empty ``survivors`` needs none and is always certified.
    """

    clique: Clique
    survivors: int
    certified: bool


def greedy_maximal_clique(g: Graph, k: tuple[int, ...]) -> GreedyResult:
    """Grow a maximal clique around high-core vertices; ``k`` holds the
    core numbers of ``g`` (see ``core_numbers``).

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
    ``c_max`` (the only ones a larger clique can use) are coloured first-fit
    in index order, only far enough to tell whether ``c_max`` colours
    suffice (``_colours_within``). When they do, no clique of ``g`` is
    larger than ``c_max``, so no later seed can replace the best clique and
    the sweep stops there: the clique returned is the one the full sweep
    would return. The last raise's survivors and verdict are returned with
    the clique (see :class:`GreedyResult`), so no caller colours them
    again.

    The colouring takes the survivors in index order, not from the highest
    index down as the exact search does, because how many colours first-fit
    needs depends on the order. A consistency graph numbers its vertices in
    the order the associations are given, and ``synthetic_scene`` lists the
    planted inliers first; coloured from the highest index down, the
    survivors of its scenes need more classes, and the bound certifies far
    fewer solves.
    """
    if g.n == 0:
        raise InputError("greedy clique search needs at least one vertex")
    if len(k) != g.n:
        raise InputError(f"core-number vector has length {len(k)}, expected {g.n}")
    level_mask: dict[int, int] = {}
    for v, c in enumerate(k):
        level_mask[c] = level_mask.get(c, 0) | (1 << v)
    levels = sorted(level_mask, reverse=True)
    rows = g.rows
    best_members: tuple[int, ...] = ()
    c_max = 0
    survivors = 0

    for c_v in levels:
        for v in _bits(level_mask[c_v]):
            if c_v < c_max:
                return GreedyResult(Clique.of(best_members), survivors, False)
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
                if _colours_within(survivors, rows, c_max):
                    return GreedyResult(Clique.of(best_members), survivors, True)

    return GreedyResult(Clique.of(best_members), survivors, False)


def _colours_within(mask: int, rows: tuple[int, ...], k: int) -> bool:
    """Whether first-fit colouring of ``mask`` in index order needs at most
    ``k`` colours.

    Each class is built from the still-uncoloured vertices: take the lowest
    one ``v``, drop it and its neighbours (``rows[v]``) and repeat. The
    answer is no as soon as ``k`` classes leave a vertex uncoloured, so
    the classes past ``k`` are never built. The neighbours are dropped
    from the graph's own rows, so, unlike the exact search, no anti rows
    are built for a colouring that runs only a few times per call.
    """
    uncolored = mask
    for _ in range(k):
        if not uncolored:
            break
        q = uncolored
        while q:
            low = q & -q
            uncolored ^= low
            q ^= q & rows[low.bit_length() - 1] | low
    return not uncolored
