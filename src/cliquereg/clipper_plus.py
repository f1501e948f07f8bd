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
benchmarks and tests; it reuses the greedy's survivors and verdict too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InputError, SolverFailure
from .graph import (
    Clique,
    Graph,
    _anti_rows,
    _colour_classes,
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
    ``budget`` caps the number of search-tree nodes; running out raises
    :class:`BudgetExceeded` so callers can fall back to the heuristics.
    The search recurses once per member of the current clique, so a clique
    deeper than Python's recursion limit (``sys.getrecursionlimit()``, 1000
    by default) also raises :class:`BudgetExceeded`, naming the depth.
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
    stack: list[int] = []

    def expand(p_mask: int) -> None:
        nonlocal best, best_size, nodes_left
        nodes_left -= 1
        if nodes_left < 0:
            raise BudgetExceeded(
                f"exact search exceeded {budget} node expansions"
            )
        if p_mask == 0:
            if len(stack) > best_size:
                best = stack.copy()
                best_size = len(best)
            return
        ordered = _colour_classes(p_mask, anti, bit, best_size - len(stack) + 1)
        current = p_mask
        for v, color in reversed(ordered):
            if len(stack) + color <= best_size:
                return
            stack.append(v)
            expand(current & rows[v])
            stack.pop()
            current ^= bit[v]

    try:
        for v in range(h.n - 1, -1, -1):
            if core[v] + 1 > best_size:
                stack.append(v)
                expand(rows[v] >> (v + 1) << (v + 1))
                stack.pop()
    except RecursionError:
        # The search recurses once per clique member; the unwound stack
        # still holds the members chosen when the limit was hit.
        raise BudgetExceeded(
            f"exact search reached Python's recursion limit at clique depth {len(stack)}"
        ) from None

    return Clique.of(order[v] for v in best) if best else greedy
