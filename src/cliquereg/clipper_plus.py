"""Combined clique estimator: greedy seed, core pruning, then relaxation.

The greedy pass gives a maximal clique fast. Every vertex whose core number
is below that size cannot belong to a strictly larger clique, so only the
survivors, a bitmask over the graph's own vertices, can hold one. The
greedy colours them at its last raise, first-fit in index order, only far
enough to tell whether its clique size in colours suffices, and returns
the mask with that verdict. A colouring with at most as many colours as
the greedy clique has members bounds every clique among the survivors by
that size, so the greedy clique is maximum and the relaxation is skipped.
The paper's early termination, where nothing survives the prune, is the
trivial case of that bound: no vertex, no colour. Only when the bound
leaves room is the pruned graph built, and the continuous relaxation
searches it, seeded with the binary complement of the greedy clique; the
larger of the two answers wins (ties keep the greedy one, so skipping a
relaxation that cannot win never changes the result). The report's
``stop`` says which of these ended the solve.

Also hosts the exact branch-and-bound solver used as ground truth in
benchmarks and tests, with the BBMC colouring it bounds by; it reuses the
greedy's survivors and verdict too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, InputError, SolverFailure
from .graph import (
    Clique,
    Graph,
    _relabel,
    _smallest_last_order,
    core_numbers,
)
from .greedy import greedy_maximal_clique
from .relaxation import SolverParams, solve_relaxation

DEFAULT_EXACT_BUDGET = 20_000_000


@dataclass(frozen=True)
class ClipperPlusReport:
    """Outcome of the combined solver, with per-phase timing in ms.

    ``stop`` says how the solve ended: ``"core bound"`` when the prune left
    no vertex (``pruned_n == 0``); ``"colour bound"`` when a colouring of
    the survivors with at most ``greedy_size`` colours proved the greedy
    clique maximum; ``"relaxation"`` when the relaxation ran; ``"degraded"``
    when it failed and the greedy clique is returned. The relaxation runs
    only in the last two; in the bound cases ``relax_ms`` is 0.0.
    ``pruned_n`` counts the survivors, the vertices with core number at
    least ``greedy_size``. The greedy decides the bound, so ``greedy_ms``
    covers the survivor mask and its colouring, and ``prune_ms`` is 0.0
    except when the relaxation runs: then it is building the pruned graph.
    """

    clique: Clique
    greedy_size: int
    pruned_n: int
    stop: str
    core_ms: float
    greedy_ms: float
    prune_ms: float
    relax_ms: float

    # Views of ``stop`` under the names perfbench reads.
    early_terminated = property(lambda self: self.stop == "core bound")
    relaxation_ran = property(lambda self: self.stop in ("relaxation", "degraded"))
    degraded = property(lambda self: self.stop == "degraded")


def prune_by_core(
    g: Graph, k: tuple[int, ...], threshold: int
) -> tuple[Graph, tuple[int, ...]]:
    """Keep only vertices whose core number in ``k`` is >= threshold.

    Returns the subgraph on the survivors plus its local-to-original index
    map. Any clique strictly larger than ``threshold`` lives entirely among
    the survivors, so pruning never discards an improving clique.
    """
    if len(k) != g.n:
        raise InputError(f"core-number vector has length {len(k)}, expected {g.n}")
    keep = [v for v in range(g.n) if k[v] >= threshold]
    return g.induced_subgraph(keep)


def clipper_plus(g: Graph, params: SolverParams | None = None) -> ClipperPlusReport:
    """Run the full pipeline on g and report the best maximal clique found.

    Relaxation failures degrade gracefully to the greedy clique with
    ``stop == "degraded"``.
    """
    if g.n == 0:
        raise InputError("clique search needs at least one vertex")

    t0 = time.perf_counter()
    k = core_numbers(g)
    t1 = time.perf_counter()
    result = greedy_maximal_clique(g, k)
    t2 = time.perf_counter()
    greedy = result.clique
    pruned_n = result.survivors.bit_count()

    best = greedy
    relax_ms = 0.0
    if result.certified:
        t3 = t2
        stop = "colour bound" if pruned_n else "core bound"
    else:
        stop = "relaxation"
        pruned, index_map = prune_by_core(g, k, greedy.size)
        t3 = time.perf_counter()
        greedy_members = set(greedy.members)
        guess = np.array(
            [0.0 if v in greedy_members else 1.0 for v in index_map]
        )
        try:
            local = solve_relaxation(pruned, guess, params)
            relaxed = Clique.of(index_map[v] for v in local.members)
            if relaxed.size > greedy.size:
                best = relaxed
        except SolverFailure:
            stop = "degraded"
        relax_ms = (time.perf_counter() - t3) * 1e3

    return ClipperPlusReport(
        clique=best,
        greedy_size=greedy.size,
        pruned_n=pruned_n,
        stop=stop,
        core_ms=(t1 - t0) * 1e3,
        greedy_ms=(t2 - t1) * 1e3,
        prune_ms=(t3 - t2) * 1e3,
        relax_ms=relax_ms,
    )


def accuracy_ratio(found_size: int, omega: int) -> float:
    """Found clique size over the true maximum clique size."""
    if omega <= 0:
        raise InputError(f"true clique size must be positive, got {omega}")
    if found_size < 0:
        raise InputError(f"found size must be non-negative, got {found_size}")
    return found_size / omega


def _anti_rows(rows: Sequence[int]) -> list[int]:
    """``anti[v]``: every vertex except ``v`` and its neighbours, the set a
    colour class of ``v`` keeps. The rows are non-negative, so
    ``q &= anti[v]`` allocates no two's-complement temporary and never
    widens ``q``."""
    mask = (1 << len(rows)) - 1
    return [mask ^ r ^ 1 << v for v, r in enumerate(rows)]


def _colour_classes(
    p_mask: int, anti: list[int], bit: list[int], kmin: int
) -> list[tuple[int, int]]:
    """``(vertex, colour)`` pairs of the candidates ``p_mask``, by colour.

    Colour ``c`` is the ``c``-th class built from the still-uncoloured
    candidates: take the highest one ``v``, keep only ``anti[v]`` (neither
    ``v`` nor a neighbour of it) and repeat, so each class is an
    independent set, listed from its highest vertex down. ``bit[v]`` is
    ``1 << v``. Only pairs with colour ``>= kmin`` are listed, so an empty
    list with ``kmin = s + 1`` proves that no clique inside ``p_mask`` has
    more than ``s`` vertices: a clique takes at most one vertex of each
    class. This is the colouring of BBMC (San Segundo et al. 2011),
    first-fit in descending index order. The highest bit is read with
    ``bit_length``, which, unlike isolating the lowest with ``q & -q``,
    builds no temporary int.
    """
    ordered: list[tuple[int, int]] = []
    uncolored = p_mask
    color = 0
    while uncolored:
        color += 1
        q = uncolored
        while q:
            v = q.bit_length() - 1
            uncolored ^= bit[v]
            q &= anti[v]
            if color >= kmin:
                ordered.append((v, color))
    return ordered


def max_clique_exact(g: Graph, budget: int = DEFAULT_EXACT_BUDGET) -> Clique:
    """Exact maximum clique by branch and bound.

    The greedy clique seeds the lower bound. When the greedy's colour bound
    has certified it (see ``GreedyResult``), it is returned at once, with
    no search-tree node. Otherwise a larger clique lies among the greedy's
    survivors, the vertices whose core number is at least its size. They
    are renumbered by one relabel of ``g`` in the order the smallest-last
    peel removes them (see ``_smallest_last_order``, whose reverse is the
    initial ordering of BBMC, San Segundo et al. 2011), so vertex ``v`` has
    at most its core number of neighbours above it. The root loop runs
    ``v`` from the top down and searches each ``v`` whose core number leaves
    room, with its higher-numbered neighbours as candidates. Each
    search-tree node colours its candidates one class at a time on the
    bitsets, each class taking the highest uncoloured candidate first, with
    non-negative anti rows (BBMC; see ``_colour_classes``). Read from the
    top, the numbering is smallest-last order, so these are the classes of
    first-fit colouring in that order, and the tree is the one a search
    numbered in smallest-last order and colouring from the lowest index
    would visit. The classes come already sorted by colour. The search
    branches from the highest colour down and stops once the current clique
    plus a colour cannot beat the best clique; the best clique only grows,
    so the classes already below that bound when colouring are not listed.
    The search is one loop over an explicit stack, with a frame per member
    of the current clique holding the pairs its node has not yet branched
    on and the candidates it has not yet tried: one candidate-class list
    per clique member, as a recursive search would hold, and no depth
    limit. ``budget`` caps the number of search-tree nodes; running out
    raises :class:`BudgetExceeded` so callers can fall back to the
    heuristics.
    """
    if g.n == 0:
        raise InputError("clique search needs at least one vertex")
    if budget <= 0:
        raise InputError(f"budget must be positive, got {budget}")

    k = core_numbers(g)
    result = greedy_maximal_clique(g, k)
    greedy = result.clique
    if result.certified:
        return greedy
    order = _smallest_last_order(g, result.survivors)[::-1]
    h = _relabel(g, order)
    core = [k[u] for u in order]
    rows = h.rows
    anti = _anti_rows(rows)
    bit = [1 << v for v in range(h.n)]

    best: list[int] = []  # vertices of h; empty while greedy is the best
    best_size = greedy.size
    nodes_left = budget
    clique: list[int] = []
    frames: list[list] = []  # [pairs, candidates], one per member of clique
    for v in range(h.n - 1, -1, -1):
        if core[v] + 1 > best_size:
            clique.append(v)
            p_mask = rows[v] >> (v + 1) << (v + 1)
            while True:
                # Expand the node of ``clique`` with candidates ``p_mask``.
                nodes_left -= 1
                if nodes_left < 0:
                    raise BudgetExceeded(
                        f"exact search exceeded {budget} node expansions"
                    )
                if p_mask:
                    kmin = best_size - len(clique) + 1
                    frames.append([_colour_classes(p_mask, anti, bit, kmin), p_mask])
                else:
                    if len(clique) > best_size:
                        best = clique.copy()
                        best_size = len(best)
                    clique.pop()
                # Branch on the highest colour left in the deepest frame
                # that can still beat the best clique; drop the ones that
                # cannot.
                while frames:
                    frame = frames[-1]
                    pairs = frame[0]
                    if pairs and len(clique) + pairs[-1][1] > best_size:
                        u = pairs.pop()[0]
                        p_mask = frame[1] & rows[u]
                        frame[1] ^= bit[u]
                        clique.append(u)
                        break
                    frames.pop()
                    clique.pop()
                else:
                    break

    return Clique.of(order[v] for v in best) if best else greedy
