"""Continuous relaxation of maximum clique with a penalty homotopy.

The binary clique indicator problem is relaxed to maximizing
``F(u) = u^T M_d u`` over the unit sphere intersected with the non-negative
orthant, where ``M_d`` keeps value 1 on adjacent pairs and the diagonal and
penalizes every non-adjacent pair with ``-d``. Projected gradient ascent
with an Armijo backtracking line search solves the problem at a fixed
penalty; the penalty is then raised until the iterate settles into a binary
state whose support is a maximal clique. Once the penalty reaches the
vertex count, local maximizers are exactly (normalized) indicators of
maximal cliques, so the homotopy terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SolverFailure
from .graph import Clique, Graph, validate_clique

# Work bounds. A stalled line search, an exhausted outer-round budget, or an
# exhausted inner budget at the penalty ceiling raises SolverFailure rather
# than returning an unverified vertex set. An inner round that runs out of
# budget at an intermediate penalty instead hands off to the next penalty
# level (see solve_relaxation).
MAX_BACKTRACKS_PER_STEP = 50
MAX_INNER_ITERATIONS = 1000
MAX_OUTER_ROUNDS_PER_VERTEX = 10

# Relative spread allowed among positive entries of a binary iterate, and
# tolerance on |F - support size| at termination.
_SUPPORT_SPREAD = 1e-3
_OBJECTIVE_GAP = 1e-6
_ESCAPE_SCALE = 1e-4


@dataclass(frozen=True)
class SolverParams:
    """Line-search constants: the Armijo sufficient-increase fraction
    ``sigma``, the backtracking factor ``beta`` and the convergence
    tolerance ``tol``."""

    sigma: float = 0.01
    beta: float = 0.5
    tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise InputError(f"sigma must be in (0, 1), got {self.sigma}")
        if not (0.0 < self.beta < 1.0):
            raise InputError(f"beta must be in (0, 1), got {self.beta}")
        if not (0.0 < self.tol < math.inf):
            raise InputError(f"tol must be positive and finite, got {self.tol}")


@dataclass
class RelaxationDiagnostics:
    """Optional per-step record filled in by :func:`solve_relaxation`.

    ``objective_steps`` holds one ``(round, d, F)`` entry per accepted line
    search step; the round index identifies the inner loop the step belongs
    to, so monotonicity can be checked per fixed-penalty run.
    ``capped_rounds`` counts rounds that spent their full iteration budget
    without converging and handed off to the next penalty level.
    """

    objective_steps: list[tuple[int, float, float]] = field(default_factory=list)
    outer_rounds: int = 0
    inner_steps: int = 0
    capped_rounds: int = 0
    final_u: np.ndarray | None = None
    final_objective: float = 0.0


def uniform_initial_guess(n: int) -> np.ndarray:
    """Unit-norm vector with equal mass on every vertex."""
    if n <= 0:
        raise InputError(f"need at least one vertex, got n={n}")
    return np.full(n, 1.0 / math.sqrt(n))


def penalized_matrix(
    mask_f: np.ndarray, d: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Build ``M_d`` from the adjacency-plus-identity mask as floats:
    1 where the mask is 1, ``-d`` where it is 0. Written into ``out``
    when given (same shape as ``mask_f``), else into a new array."""
    out = np.multiply(mask_f, 1.0 + d, out=out)
    out -= d
    return out


def evaluate(matrix: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray]:
    """``F(u) = u^T M_d u`` and its gradient projected onto the sphere
    tangent at ``u``. Expects ``u`` of unit norm."""
    w = matrix @ u
    f_value = float(u @ w)
    return f_value, 2.0 * (w - f_value * u)


def _retract(v: np.ndarray) -> np.ndarray | None:
    """Map a trial point back to the feasible set: clamp, then renormalize.

    Returns None when everything clamps to zero; the retraction is
    undefined there and the caller must treat the trial step as failed.
    """
    clamped = np.maximum(v, 0.0)
    norm = np.linalg.norm(clamped)
    if norm == 0.0:
        return None
    return clamped / norm


def _support(u: np.ndarray, tol: float) -> np.ndarray:
    return np.flatnonzero(u >= math.sqrt(tol))


def _is_binary_state(
    g: Graph, u: np.ndarray, f_value: float, tol: float
) -> tuple[bool, np.ndarray]:
    """Certificate that the iterate encodes a maximal clique.

    Requires: entries split into a near-zero set (< sqrt(tol)) and a
    near-constant positive set, the positive set is a maximal clique, and
    the objective agrees with the support size. Checking the certificate
    rather than a raw numeric pattern keeps the returned support verifiable
    and rejects premature states such as indicators of non-maximal cliques.
    """
    support = _support(u, tol)
    if support.size == 0:
        return False, support
    positive = u[support]
    if (positive.max() - positive.min()) > _SUPPORT_SPREAD * positive.max():
        return False, support
    check = validate_clique(g, support.tolist())
    if not (check.is_clique and check.is_maximal):
        return False, support
    if abs(f_value - support.size) > _OBJECTIVE_GAP:
        return False, support
    return True, support


def _next_penalty(
    u: np.ndarray,
    mask_f: np.ndarray,
    d: float,
    alpha: float,
    n: int,
    d_max: float,
) -> float:
    """Raise the penalty enough to zero out the worst constraint violator.

    Picks the smallest positive entry that still has mass on non-neighbours
    and solves for the penalty making its ascent component push it to zero
    within one step at the current step size. The increment is clamped to
    ``[n/100, n/4]``; when no violating positive entry exists (or the
    solve is ill-posed) it falls back to ``n/10``.
    """
    mask_u = mask_f @ u
    bar_u = u.sum() - mask_u  # non-neighbour mass per vertex
    positive = u > 0.0
    violating = positive & (bar_u > 1e-15)
    fallback = n / 10.0
    increment = fallback
    if violating.any():
        candidates = np.flatnonzero(violating)
        i = candidates[np.argmin(u[candidates])]
        f_ones = float(u @ mask_u)
        v_total = float(u @ bar_u)
        denom = float(bar_u[i]) - float(u[i]) * v_total
        if denom > 1e-15:
            target = float(u[i]) / (2.0 * alpha) + float(mask_u[i]) - float(u[i]) * f_ones
            needed = target / denom - d
            increment = min(max(needed, n / 100.0), n / 4.0)
    return min(d + increment, d_max)


def solve_relaxation(
    g: Graph,
    initial_guess: np.ndarray,
    params: SolverParams | None = None,
    *,
    diagnostics: RelaxationDiagnostics | None = None,
) -> Clique:
    """Run the penalty homotopy from ``initial_guess`` and return the
    support of the final binary iterate as a clique.

    The initial guess is clamped to the orthant and normalized; an all-zero
    clamped guess is replaced by the uniform vector. The penalty starts at
    0 and rises to at most ``n + 1``; at or above the vertex count every
    local maximizer is a maximal-clique indicator. The step size carries
    across penalty increments rather than resetting.
    """
    if params is None:
        params = SolverParams()
    n = g.n
    if n == 0:
        raise InputError("relaxation needs at least one vertex")
    u0 = np.asarray(initial_guess, dtype=float)
    if u0.shape != (n,):
        raise InputError(f"initial guess has shape {u0.shape}, expected ({n},)")
    if not np.all(np.isfinite(u0)):
        raise InputError("initial guess has non-finite entries")
    u = _retract(u0)
    if u is None:
        u = uniform_initial_guess(n)

    mask_f = g.adjacency_matrix().astype(float)
    np.fill_diagonal(mask_f, 1.0)
    # M_d of each round overwrites the last one's, so a solve holds one
    # n x n matrix besides the mask, never two.
    matrix = np.empty_like(mask_f)

    d = 0.0
    d_max = float(n + 1)
    alpha = 1.0
    tol = params.tol
    max_outer = MAX_OUTER_ROUNDS_PER_VERTEX * n

    outer = 0
    while True:
        penalized_matrix(mask_f, d, out=matrix)
        f_value, grad = evaluate(matrix, u)

        binary, support = _is_binary_state(g, u, f_value, tol)
        if binary:
            if diagnostics is not None:
                diagnostics.final_u = u.copy()
                diagnostics.final_objective = f_value
            return Clique.of(support.tolist())

        if outer >= max_outer:
            raise SolverFailure(
                f"no binary state after {outer} penalty rounds (d={d:.3g})",
                last_iterate=u.copy(),
                penalty=d,
            )
        outer += 1
        if diagnostics is not None:
            diagnostics.outer_rounds = outer

        steps_this_round = 0
        for _ in range(MAX_INNER_ITERATIONS):
            # A stationary iterate cannot improve; leave the inner loop
            # before the line search starts comparing rounding noise.
            if np.linalg.norm(grad) < tol:
                break
            # Objective differences below this are indistinguishable from
            # float64 rounding of the two F evaluations.
            noise = np.finfo(float).eps * (4.0 + n) * max(1.0, abs(f_value))
            accepted = None
            numerically_stationary = False
            for _halving in range(MAX_BACKTRACKS_PER_STEP + 1):
                trial = _retract(u + alpha * grad)
                if trial is not None:
                    f_trial, grad_trial = evaluate(matrix, trial)
                    delta_u = trial - u
                    delta_f = f_trial - f_value
                    required = params.sigma * float(grad @ delta_u)
                    if required <= noise:
                        # The sufficient-increase threshold is unmeasurable:
                        # converged at this penalty, keep the iterate as is.
                        numerically_stationary = True
                        break
                    if delta_f >= required:
                        accepted = (trial, f_trial, grad_trial, delta_u, delta_f)
                        alpha /= math.sqrt(params.beta)
                        break
                alpha *= params.beta
            if numerically_stationary:
                break
            if accepted is None:
                raise SolverFailure(
                    f"line search stalled after {MAX_BACKTRACKS_PER_STEP} "
                    f"halvings (d={d:.3g})",
                    last_iterate=u.copy(),
                    penalty=d,
                )
            u, f_value, grad, delta_u, delta_f = accepted
            steps_this_round += 1
            if diagnostics is not None:
                diagnostics.inner_steps += 1
                diagnostics.objective_steps.append((outer, d, f_value))
            if np.linalg.norm(delta_u) < tol and abs(delta_f) < tol:
                break
        else:
            if d >= d_max:
                raise SolverFailure(
                    f"inner loop hit {MAX_INNER_ITERATIONS} iterations at the "
                    f"penalty ceiling (d={d:.3g})",
                    last_iterate=u.copy(),
                    penalty=d,
                )
            # Out of budget below the ceiling: the iterate is crawling along
            # a value-flat valley (near-tied substructures couple weakly at
            # small d), where tol-convergence can take arbitrarily many
            # steps. Exactness here buys nothing — correctness rests on the
            # binary-state certificate — so keep the partial round and let
            # the penalty increase collapse the flat direction.
            if diagnostics is not None:
                diagnostics.capped_rounds += 1

        if steps_this_round == 0 and d >= n:
            # Stationary but not binary at a penalty where every local
            # maximizer is a clique indicator: the iterate sits on a saddle.
            # The common way in is a pair of non-adjacent vertices with the
            # same neighbors, whose entries symmetrize to bit-identical
            # values while the penalty is still small and never split again.
            # A fixed index ramp is generic for that tie, so one nudge puts
            # the iterate back on an ascent path; monotone ascent cannot
            # return to the same saddle.
            ramp = np.arange(1, n + 1, dtype=float) / n
            nudged = _retract(u + _ESCAPE_SCALE * ramp)
            if nudged is not None:
                u = nudged

        d = _next_penalty(u, mask_f, d, alpha, n, d_max)
