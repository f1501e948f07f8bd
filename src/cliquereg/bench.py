"""Benchmark harness: timed solver runs, CSV/JSON records, sweeps.

Timing covers the solve call only; parsing, scene generation, and record
handling happen outside the clock. Every clique is re-validated against its
graph before a record is written; a failure there is a bug, not an input
problem, and raises immediately.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .clipper_plus import (
    DEFAULT_EXACT_BUDGET,
    ClipperPlusReport,
    accuracy_ratio,
    clipper_plus,
    max_clique_exact,
)
from .dimacs import load_dimacs
from .errors import BudgetExceeded, InputError, SolverFailure
from .graph import Clique, Graph, core_numbers, sparsity, validate_clique
from .greedy import greedy_maximal_clique
from .registration import build_consistency_graph, synthetic_scene
from .relaxation import SolverParams, solve_relaxation, uniform_initial_guess

# Published maximum clique sizes for the classic DIMACS instances, used to
# compute accuracy ratios when the corresponding files are benchmarked.
DIMACS_OMEGA: dict[str, int] = {
    "C125.9": 34,
    "C250.9": 44,
    "brock200_2": 12,
    "brock200_4": 17,
    "gen200_p0.9_44": 44,
    "gen200_p0.9_55": 55,
    "keller4": 11,
    "p_hat300-1": 8,
    "p_hat300-2": 25,
}

CSV_COLUMNS = (
    "graph_id",
    "n",
    "sparsity",
    "algo",
    "clique_size",
    "omega_gt",
    "r",
    "runtime_ms",
    "seed",
    "early_terminated",
)

# Solvers by name. Each takes the graph, the relaxation parameters and the
# exact-search node budget, and returns a clique or a CLIPPER+ report.
_SOLVERS: dict[str, Callable[..., Clique | ClipperPlusReport]] = {
    "greedy": lambda g, params, budget: greedy_maximal_clique(g, core_numbers(g)).clique,
    "relax": lambda g, params, budget: solve_relaxation(
        g, uniform_initial_guess(g.n), params
    ),
    "clipper+": lambda g, params, budget: clipper_plus(g, params),
    "exact": lambda g, params, budget: max_clique_exact(g, budget=budget),
}

ALGORITHM_NAMES = tuple(_SOLVERS)


@dataclass(frozen=True)
class AlgorithmRun:
    clique: Clique
    runtime_ms: float
    report: ClipperPlusReport | None = None


@dataclass(frozen=True)
class BenchRecord:
    graph_id: str
    n: int
    sparsity: float | None
    algo: str
    clique_size: int
    omega_gt: int | None
    r: float | None
    runtime_ms: float
    seed: int | None
    early_terminated: bool | None


@dataclass(frozen=True)
class SweepConfig:
    """Outlier sweep for synthetic registration scenes.

    Percentages are integers; each increment runs ``trials`` scenarios with
    seeds derived deterministically from ``base_seed``.
    """

    outlier_start: int = 0
    outlier_stop: int = 90
    outlier_step: int = 10
    trials: int = 20
    algorithms: tuple[str, ...] = ("greedy", "clipper+")
    n_points: int = 200
    cube_size: float = 0.2
    n_outlier_points: int = 200
    outlier_sphere_radius: float = 1.0
    n_associations: int = 100
    base_seed: int = 0
    oracle_budget: int = DEFAULT_EXACT_BUDGET
    params: SolverParams | None = None

    def __post_init__(self):
        if self.outlier_step <= 0:
            raise InputError(f"step must be positive, got {self.outlier_step}")
        if not (0 <= self.outlier_start <= self.outlier_stop <= 100):
            raise InputError(
                f"need 0 <= start <= stop <= 100, got "
                f"{self.outlier_start}..{self.outlier_stop}"
            )
        if self.trials < 1:
            raise InputError(f"need at least one trial, got {self.trials}")
        for name in self.algorithms:
            if name not in ALGORITHM_NAMES:
                raise InputError(
                    f"unknown algorithm {name!r}, expected one of "
                    f"{ALGORITHM_NAMES}"
                )

    @property
    def outlier_percentages(self) -> tuple[int, ...]:
        return tuple(
            range(self.outlier_start, self.outlier_stop + 1, self.outlier_step)
        )


@dataclass(frozen=True)
class SweepAggregate:
    outlier_pct: int
    algo: str
    mean_r: float | None
    mean_sparsity: float
    trials_counted: int


def run_algorithm(
    name: str,
    g: Graph,
    *,
    params: SolverParams | None = None,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> AlgorithmRun:
    """Run one solver with solve-only timing and validate its output."""
    solver = _SOLVERS.get(name)
    if solver is None:
        raise InputError(
            f"unknown algorithm {name!r}, expected one of {ALGORITHM_NAMES}"
        )
    start = time.perf_counter()
    result = solver(g, params, exact_budget)
    runtime_ms = (time.perf_counter() - start) * 1e3
    if isinstance(result, ClipperPlusReport):
        run = AlgorithmRun(result.clique, runtime_ms, result)
    else:
        run = AlgorithmRun(result, runtime_ms)
    check = validate_clique(g, run.clique.members)
    if not check.is_clique:
        raise RuntimeError(
            f"internal error: {name} returned an invalid clique "
            f"{run.clique.members}"
        )
    return run


def _record_sort_key(rec: BenchRecord):
    return (rec.graph_id, rec.algo, rec.seed if rec.seed is not None else -1)


def _bench_graph(
    graph_id: str,
    g: Graph,
    algorithms: Sequence[str],
    omega: int | None,
    seed: int | None,
    params: SolverParams | None,
    exact_budget: int,
) -> list[BenchRecord]:
    """One record per algorithm run on ``g``.

    A run that fails (relaxation stall or exact-search budget) is warned
    about on stderr and leaves no record, so the other runs still count.
    A one-vertex graph has no sparsity, and its cell is left empty.
    """
    s = sparsity(g) if g.n >= 2 else None
    records = []
    for name in algorithms:
        try:
            run = run_algorithm(name, g, params=params, exact_budget=exact_budget)
        except (SolverFailure, BudgetExceeded) as exc:
            print(f"warning: {name} failed on {graph_id}: {exc}", file=sys.stderr)
            continue
        records.append(
            BenchRecord(
                graph_id=graph_id,
                n=g.n,
                sparsity=s,
                algo=name,
                clique_size=run.clique.size,
                omega_gt=omega,
                r=None if omega is None else accuracy_ratio(run.clique.size, omega),
                runtime_ms=run.runtime_ms,
                seed=seed,
                early_terminated=(
                    None if run.report is None else run.report.early_terminated
                ),
            )
        )
    return records


def bench_dimacs(
    paths: Sequence[str | Path],
    algorithms: Sequence[str],
    omega_gt: Mapping[str, int] | None = None,
    *,
    params: SolverParams | None = None,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> list[BenchRecord]:
    """Benchmark each algorithm on each DIMACS file.

    ``omega_gt`` overrides/extends the built-in table of published maximum
    clique sizes; graphs without a known maximum get empty ratio cells. A
    failed run is warned about and leaves no record.
    """
    table = dict(DIMACS_OMEGA)
    if omega_gt:
        table.update(omega_gt)
    records = []
    for path in paths:
        graph_id = Path(path).stem
        records += _bench_graph(
            graph_id, load_dimacs(path), algorithms, table.get(graph_id),
            None, params, exact_budget,
        )
    records.sort(key=_record_sort_key)
    return records


def scenario_seed(base_seed: int, outlier_pct: int, trial: int) -> int:
    """Deterministic, platform-independent per-scenario seed."""
    ss = np.random.SeedSequence([base_seed, outlier_pct, trial])
    return int(ss.generate_state(1)[0])


def bench_synthetic(
    config: SweepConfig,
) -> tuple[list[BenchRecord], list[SweepAggregate]]:
    """Sweep outlier percentages over synthetic scenes.

    Ground truth comes from the exact solver on each consistency graph;
    scenarios where its budget runs out keep their size/time cells but get
    empty ratio cells and are left out of the aggregates. A failed run is
    warned about and leaves no record. Returns the raw records plus
    per-increment mean accuracy ratios.
    """
    records: list[BenchRecord] = []
    sums: dict[tuple[int, str], list[float]] = {}
    spars: dict[int, list[float]] = {}

    for pct in config.outlier_percentages:
        for trial in range(config.trials):
            seed = scenario_seed(config.base_seed, pct, trial)
            scene = synthetic_scene(
                n_points=config.n_points,
                cube_size=config.cube_size,
                n_outlier_points=config.n_outlier_points,
                outlier_sphere_radius=config.outlier_sphere_radius,
                n_associations=config.n_associations,
                outlier_ratio=pct / 100.0,
                seed=seed,
            )
            g = build_consistency_graph(
                scene.cloud_a, scene.cloud_b, scene.associations, scene.epsilon
            )
            spars.setdefault(pct, []).append(sparsity(g))
            try:
                omega = max_clique_exact(g, budget=config.oracle_budget).size
            except BudgetExceeded:
                omega = None
            runs = _bench_graph(
                f"synthetic_o{pct:03d}_t{trial:03d}", g, config.algorithms,
                omega, seed, config.params, config.oracle_budget,
            )
            for rec in runs:
                if rec.r is not None:
                    sums.setdefault((pct, rec.algo), []).append(rec.r)
            records += runs

    aggregates = []
    for pct in config.outlier_percentages:
        for name in config.algorithms:
            ratios = sums.get((pct, name), [])
            aggregates.append(
                SweepAggregate(
                    outlier_pct=pct,
                    algo=name,
                    mean_r=sum(ratios) / len(ratios) if ratios else None,
                    mean_sparsity=sum(spars[pct]) / len(spars[pct]),
                    trials_counted=len(ratios),
                )
            )
    records.sort(key=_record_sort_key)
    return records, aggregates


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: Sequence[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_cell(getattr(rec, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_records(records: Sequence[BenchRecord], path: str | Path) -> None:
    """Write records as CSV, or JSON when the path ends in .json."""
    out = Path(path)
    if out.suffix.lower() == ".json":
        payload = [
            {col: getattr(rec, col) for col in CSV_COLUMNS} for rec in records
        ]
        out.write_text(json.dumps(payload, indent=1))
    else:
        out.write_text(records_to_csv(records))
