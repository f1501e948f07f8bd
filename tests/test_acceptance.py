"""Acceptance suite: one test per release criterion.

Each test prints a single CRITERION line with the measured numbers; run
with ``pytest tests/test_acceptance.py -v -s`` to see them inline. The
DIMACS spot-check needs benchmark files that cannot be bundled; point
CLIQUEREG_DIMACS_DIR at a directory containing them (see README) or the
test skips.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cliquereg import (
    Graph,
    RegistrationError,
    RelaxationDiagnostics,
    SolverFailure,
    SweepConfig,
    bench_synthetic,
    clipper_plus,
    core_numbers,
    estimate_rigid_transform,
    greedy_maximal_clique,
    load_dimacs,
    max_clique_exact,
    prune_by_core,
    register_clouds,
    registration_errors,
    solve_relaxation,
    synthetic_scene,
    uniform_initial_guess,
    validate_clique,
)
from cliquereg.registration import Association, PointCloud, RigidTransform
from cliquereg.relaxation import evaluate

from .conftest import random_graph, solver_matrix
from .oracles import (
    brute_force_max_clique,
    dense_penalized_matrix,
    sphere_directional_derivative,
)

WORKED_EDGES = [(1, 4), (2, 3), (2, 5), (3, 5)]


def report(criterion: int, message: str) -> None:
    print(f"CRITERION {criterion}: PASS - {message}", flush=True)


def test_criterion_01_worked_example_exactness():
    start = time.perf_counter()
    g = Graph.from_edge_list(5, WORKED_EDGES)
    expected = (1, 2, 4)  # vertices 2, 3, 5 in 1-based labels

    k = core_numbers(g)
    assert greedy_maximal_clique(g, k).clique.members == expected
    assert solve_relaxation(g, uniform_initial_guess(5)).members == expected
    assert clipper_plus(g).clique.members == expected
    assert max_clique_exact(g).members == expected

    triangle = np.zeros(5)
    triangle[list(expected)] = 1.0 / math.sqrt(3.0)
    edge = np.zeros(5)
    edge[[0, 3]] = 1.0 / math.sqrt(2.0)
    for d in (0.0, 1.0, 7.0):
        matrix = solver_matrix(g, d)
        assert abs(evaluate(matrix, triangle)[0] - 3.0) <= 1e-12
        assert abs(evaluate(matrix, edge)[0] - 2.0) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"all four algorithms return {{2,3,5}}; objectives 3 and 2 "
              f"within 1e-12; {elapsed:.3f} s")


def test_criterion_02_exact_solver_matches_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        p = float(rng.uniform(0.0, 1.0))
        g = random_graph(rng, n, p)
        omega, _ = brute_force_max_clique(g)
        assert max_clique_exact(g).size == omega
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"200/200 graphs (n <= 14) match exhaustive enumeration; "
              f"{elapsed:.1f} s")


def test_criterion_03_pruning_soundness():
    rng = np.random.default_rng(31)
    probabilities = (0.2, 0.5, 0.8)
    early_count = 0
    for i in range(200):
        n = int(rng.integers(2, 26))
        p = probabilities[i % 3]
        g = random_graph(rng, n, p)
        k = core_numbers(g)
        greedy = greedy_maximal_clique(g, k).clique
        omega = max_clique_exact(g).size
        pruned, _ = prune_by_core(g, k, greedy.size)
        best = greedy.size
        if pruned.n > 0:
            best = max(best, max_clique_exact(pruned).size)
        else:
            early_count += 1
            assert greedy.size == omega
        assert best == omega
    report(3, f"200/200 graphs: greedy+pruned search equals the true "
              f"maximum; {early_count} early terminations, all exactly "
              f"maximum")


DIMACS_CASES = (
    ("C125.9", 34, 33),
    ("brock200_2", 12, 10),
    ("p_hat300-1", 8, 8),
)


def _dimacs_dir() -> Path | None:
    env = os.environ.get("CLIQUEREG_DIMACS_DIR")
    if env:
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "dimacs"
    return default if default.is_dir() else None


def test_criterion_04_dimacs_spot_check():
    root = _dimacs_dir()
    if root is None or not root.is_dir():
        pytest.skip(
            "DIMACS benchmark files not supplied; set CLIQUEREG_DIMACS_DIR "
            "to a directory containing C125.9, brock200_2 and p_hat300-1 "
            "in ASCII DIMACS format"
        )
    sizes = {}
    for name, omega, minimum in DIMACS_CASES:
        matches = sorted(root.glob(f"{name}*"))
        if not matches:
            pytest.skip(f"{name} not found under {root}")
        g = load_dimacs(matches[0])
        start = time.perf_counter()
        report_cp = clipper_plus(g)
        elapsed = time.perf_counter() - start
        check = validate_clique(g, report_cp.clique.members)
        assert check.is_clique, name
        assert report_cp.clique.size >= minimum, (
            f"{name}: got {report_cp.clique.size}, need >= {minimum}"
        )
        assert elapsed < 5.0, f"{name}: {elapsed:.1f} s"
        sizes[name] = (report_cp.clique.size, omega, elapsed)
    summary = ", ".join(
        f"{name} {size}/{omega} in {sec:.2f} s"
        for name, (size, omega, sec) in sizes.items()
    )
    report(4, summary)


@pytest.fixture(scope="module")
def desk_scale_sweep():
    config = SweepConfig(
        outlier_start=0,
        outlier_stop=90,
        outlier_step=10,
        trials=20,
        algorithms=("greedy", "clipper+"),
        n_points=200,
        cube_size=0.2,
        n_outlier_points=200,
        outlier_sphere_radius=1.0,
        n_associations=100,
        base_seed=20260814,
    )
    start = time.perf_counter()
    records, aggregates = bench_synthetic(config)
    elapsed = time.perf_counter() - start
    return config, records, aggregates, elapsed


def test_criterion_05_desk_scale_accuracy(desk_scale_sweep):
    config, records, aggregates, elapsed = desk_scale_sweep
    assert elapsed < 600.0

    per_increment = {}
    for agg in aggregates:
        if agg.algo == "clipper+":
            assert agg.trials_counted == config.trials, (
                f"{agg.outlier_pct}%: only {agg.trials_counted} trials scored"
            )
            assert agg.mean_r is not None and agg.mean_r >= 0.95, (
                f"{agg.outlier_pct}%: mean r {agg.mean_r}"
            )
            per_increment[agg.outlier_pct] = agg.mean_r

    overall = {}
    for algo in ("greedy", "clipper+"):
        ratios = [rec.r for rec in records if rec.algo == algo and rec.r is not None]
        overall[algo] = sum(ratios) / len(ratios)
    assert overall["clipper+"] >= overall["greedy"]

    worst = min(per_increment.values())
    report(5, f"mean r >= 0.95 at all 10 increments (worst {worst:.4f}); "
              f"overall clipper+ {overall['clipper+']:.4f} >= greedy "
              f"{overall['greedy']:.4f}; sweep took {elapsed:.0f} s")


def test_criterion_06_sparsity_trend(desk_scale_sweep):
    _, _, aggregates, _ = desk_scale_sweep
    by_pct = {}
    for agg in aggregates:
        by_pct[agg.outlier_pct] = agg.mean_sparsity
    pcts = sorted(by_pct)
    inversions = []
    for a, b in zip(pcts, pcts[1:]):
        drop = by_pct[a] - by_pct[b]
        if drop > 0.0:
            inversions.append((a, b, drop))
    assert len(inversions) <= 1, inversions
    if inversions:
        assert inversions[0][2] <= 0.02, inversions
    seq = " ".join(f"{by_pct[p]:.3f}" for p in pcts)
    report(6, f"mean sparsity by increment: {seq}; "
              f"{len(inversions)} inversion(s)")


def test_criterion_07_gradient_matches_finite_differences():
    rng = np.random.default_rng(7007)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        d = float(rng.uniform(0.0, n + 1))
        u = rng.uniform(0.05, 1.0, size=n)
        u /= np.linalg.norm(u)
        direction = rng.normal(size=n)
        direction -= (direction @ u) * u
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        direction /= norm
        analytic = float(evaluate(solver_matrix(g, d), u)[1] @ direction)
        numeric = sphere_directional_derivative(
            dense_penalized_matrix(g, d), u, direction
        )
        scale = max(abs(analytic), abs(numeric), 1e-12)
        assert abs(analytic - numeric) / scale <= 1e-6
        checked += 1
    report(7, "50/50 projected-gradient directional derivatives within "
              "1e-6 relative of central differences")


@pytest.fixture(scope="module")
def relaxation_soundness_runs():
    rng = np.random.default_rng(808)
    runs = []
    for _ in range(100):
        n = int(rng.integers(2, 61))
        p = float(rng.uniform(0.05, 0.95))
        g = random_graph(rng, n, p)
        guess = rng.uniform(size=n)
        diag = RelaxationDiagnostics()
        clique = solve_relaxation(g, guess, diagnostics=diag)
        runs.append((g, clique, diag))
    return runs


def test_criterion_08_relaxation_soundness(relaxation_soundness_runs):
    for g, clique, diag in relaxation_soundness_runs:
        check = validate_clique(g, clique.members)
        assert check.is_clique and check.is_maximal
        assert abs(diag.final_objective - clique.size) <= 1e-6
    report(8, "100/100 solves returned maximal cliques with |F - size| "
              "<= 1e-6")


def test_criterion_09_armijo_monotonicity(relaxation_soundness_runs):
    steps_checked = 0
    for _, _, diag in relaxation_soundness_runs:
        by_round = {}
        for rnd, _, f in diag.objective_steps:
            by_round.setdefault(rnd, []).append(f)
        for values in by_round.values():
            for a, b in zip(values, values[1:]):
                assert b >= a
                steps_checked += 1
    report(9, f"objective non-decreasing across all {steps_checked} "
              f"accepted-step pairs at fixed penalty")


def _registration_trial(outlier_pct: int, n_associations: int, seed: int) -> bool:
    scene = synthetic_scene(
        n_points=200,
        cube_size=0.2,
        n_outlier_points=200,
        outlier_sphere_radius=1.0,
        n_associations=n_associations,
        outlier_ratio=outlier_pct / 100.0,
        seed=seed,
    )
    try:
        result = register_clouds(
            scene.cloud_a, scene.cloud_b, list(scene.associations), scene.epsilon
        )
    except (RegistrationError, SolverFailure):
        return False
    err = registration_errors(result.transform, scene.gt_transform)
    return err.rotation_error_deg < 5.0 and err.translation_error < 2.0 * scene.epsilon


def test_criterion_10_end_to_end_registration():
    successes_80 = sum(
        _registration_trial(80, 100, seed) for seed in range(1000, 1050)
    )
    assert successes_80 >= 48, f"only {successes_80}/50 at 80% outliers"

    successes_95 = sum(
        _registration_trial(95, 200, seed) for seed in range(2000, 2050)
    )
    assert successes_95 >= 45, f"only {successes_95}/50 at 95% outliers"
    report(10, f"{successes_80}/50 within 5 deg and 2*eps at 80% outliers; "
               f"{successes_95}/50 at 95% outliers with 200 associations")


def test_criterion_11_rigid_fit_exactness():
    rng = np.random.default_rng(1111)
    worst_rot = 0.0
    worst_tra = 0.0
    for trial in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        rot = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        gt = RigidTransform(rotation=rot, translation=rng.uniform(-1.0, 1.0, size=3))
        pts = rng.uniform(-1.0, 1.0, size=(8, 3))
        if trial % 4 == 0:
            pts[:, 2] = 0.0  # coplanar: exercises the reflection branch
        src = PointCloud(pts)
        dst = PointCloud(gt.apply(pts))
        fitted = estimate_rigid_transform(
            src, dst, [Association(i, i) for i in range(len(pts))]
        )
        err = registration_errors(fitted, gt)
        assert err.rotation_error_deg < 1e-9
        assert err.translation_error < 1e-9
        worst_rot = max(worst_rot, err.rotation_error_deg)
        worst_tra = max(worst_tra, err.translation_error)
    report(11, f"100/100 noiseless recoveries (25 coplanar) within 1e-9; "
               f"worst rotation {worst_rot:.2e} deg, translation "
               f"{worst_tra:.2e}")
