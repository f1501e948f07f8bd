"""Command line interface.

Exit codes: 0 success, 1 bad input (files, flags), 2 solver
failure (relaxation or exact-search budget), 3 registration failure, 141
standard output closed before everything was written (as by ``| head``;
128 plus SIGPIPE, the status a shell reports for a program the signal
ended).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import (
    ALGORITHM_NAMES,
    DEFAULT_EXACT_BUDGET,
    SweepConfig,
    bench_dimacs,
    bench_synthetic,
    run_algorithm,
    write_records,
)
from .dimacs import load_dimacs
from .errors import (
    BudgetExceeded,
    InputError,
    RegistrationError,
    SolverFailure,
    check_writable,
    read_json_object,
    read_text,
    write_text,
)
from .registration import (
    Association,
    PointCloud,
    load_scenario,
    register_clouds,
    registration_errors,
    save_scenario,
    synthetic_scene,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad usage is an input
    # problem here, so route it through InputError -> exit 1 instead.
    def error(self, message):
        raise InputError(message)


def _positive_int(text: str) -> int:
    """An argparse ``type`` for a count that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _read_rows(path: str, what: str, form: str, parse) -> list:
    """``parse(fields)`` of each line of the form ``form`` in a text file.

    Blank lines and ``#`` comments are skipped; a file with no other line
    is an input error.
    """
    rows = []
    for lineno, raw in enumerate(read_text(path, what).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != len(form.split()):
            raise InputError(f"{path}:{lineno}: expected '{form}', got {line!r}")
        try:
            rows.append(parse(fields))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc} in {line!r}") from None
    if not rows:
        raise InputError(f"{path}: no '{form}' lines")
    return rows


def _cmd_solve(args) -> int:
    g = load_dimacs(args.graph)
    run = run_algorithm(args.algo, g, exact_budget=args.budget)
    vertices = " ".join(str(v + 1) for v in run.clique.members)
    print(f"graph: {args.graph}")
    print(f"algorithm: {args.algo}")
    print(f"clique size: {run.clique.size}")
    print(f"clique (1-based): {vertices}")
    print(f"solve time: {run.runtime_ms:.3f} ms")
    if run.report is not None:
        print(f"stop: {run.report.stop}")
    return 0


def _cmd_bench_dimacs(args) -> int:
    check_writable(args.out, "records")
    table = None
    if args.omega_gt:
        payload = read_json_object(args.omega_gt, "omega table")
        table = {}
        for k, v in payload.items():
            # bool is an int subclass; a JSON true is not a clique size.
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise InputError(
                    f"--omega-gt value for {k!r} must be a positive integer, got {v!r}"
                )
            table[str(k)] = v
    records = bench_dimacs(args.graphs, args.algo, table, exact_budget=args.budget)
    write_records(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    print(f"{'graph':<18s} {'algo':<8s} {'size':>5s} {'omega':>5s} {'r':>6s} {'ms':>9s}")
    for rec in records:
        omega = "-" if rec.omega_gt is None else str(rec.omega_gt)
        ratio = "-" if rec.r is None else f"{rec.r:.3f}"
        print(
            f"{rec.graph_id:<18s} {rec.algo:<8s} {rec.clique_size:>5d} "
            f"{omega:>5s} {ratio:>6s} {rec.runtime_ms:>9.2f}"
        )
    if all(rec.omega_gt is None for rec in records):
        print(
            "note: no instance matched the published-size table or "
            "--omega-gt; ratio cells are empty"
        )
    return 0


def _cmd_bench_synthetic(args) -> int:
    check_writable(args.out, "records")
    config = SweepConfig(
        outlier_start=args.outlier_start,
        outlier_stop=args.outlier_stop,
        outlier_step=args.outlier_step,
        trials=args.trials,
        algorithms=tuple(args.algo) if args.algo else ("greedy", "clipper+"),
        n_points=args.points,
        cube_size=args.cube_size,
        n_outlier_points=args.clutter,
        outlier_sphere_radius=args.sphere_radius,
        n_associations=args.associations,
        base_seed=args.seed,
        oracle_budget=args.budget,
    )
    records, aggregates = bench_synthetic(config)
    write_records(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    print("outlier%  algo      mean_r   mean_sparsity  trials")
    for agg in aggregates:
        mean_r = "-" if agg.mean_r is None else f"{agg.mean_r:.4f}"
        print(
            f"{agg.outlier_pct:7d}  {agg.algo:<8s}  {mean_r:>6s}   "
            f"{agg.mean_sparsity:13.4f}  {agg.trials_counted:6d}"
        )
    return 0


def _cmd_register(args) -> int:
    scene = None
    if args.scenario:
        if args.cloud_a or args.cloud_b or args.associations:
            raise InputError("--scenario cannot be combined with cloud files")
        scene = load_scenario(args.scenario)
        cloud_a, cloud_b = scene.cloud_a, scene.cloud_b
        associations = list(scene.associations)
        epsilon = args.epsilon if args.epsilon is not None else scene.epsilon
    else:
        if not (args.cloud_a and args.cloud_b and args.associations):
            raise InputError(
                "need --scenario, or all of --cloud-a, --cloud-b, "
                "--associations"
            )
        if args.epsilon is None:
            raise InputError("--epsilon is required with raw cloud files")
        cloud_a, cloud_b = (
            PointCloud(np.array(_read_rows(
                path, "cloud", "x y z", lambda f: [float(x) for x in f]
            )))
            for path in (args.cloud_a, args.cloud_b)
        )
        associations = _read_rows(
            args.associations, "association", "i j",
            lambda f: Association(int(f[0]), int(f[1])),
        )
        epsilon = args.epsilon

    result = register_clouds(cloud_a, cloud_b, associations, epsilon)
    payload = {
        "rotation": result.transform.rotation.tolist(),
        "translation": result.transform.translation.tolist(),
        "inlier_indices": list(result.inlier_indices),
    }
    if scene is not None:
        errs = registration_errors(result.transform, scene.gt_transform)
        payload["rotation_error_deg"] = errs.rotation_error_deg
        payload["translation_error"] = errs.translation_error
    # Write before printing, so a failed write prints no result.
    if args.out:
        write_text(args.out, json.dumps(payload, indent=1), "result")

    rep = result.report
    np.set_printoptions(precision=9, suppress=True)
    print(f"associations: {len(associations)}")
    print(f"inliers found: {len(result.inlier_indices)}")
    print(f"inlier association indices: {list(result.inlier_indices)}")
    print(f"greedy clique size: {rep.greedy_size}")
    print(f"pruned graph vertices: {rep.pruned_n}")
    print(f"stop: {rep.stop}")
    print(
        f"solve time: core {rep.core_ms:.3f} ms, greedy {rep.greedy_ms:.3f} ms, "
        f"prune {rep.prune_ms:.3f} ms, relax {rep.relax_ms:.3f} ms"
    )
    print("rotation:")
    print(result.transform.rotation)
    print(f"translation: {result.transform.translation}")
    if scene is not None:
        planted = {i for i, inlier in enumerate(scene.inlier_mask) if inlier}
        found = len(planted.intersection(result.inlier_indices))
        print(f"planted inliers found: {found} of {len(planted)}")
        print(f"rotation error: {errs.rotation_error_deg:.6f} deg")
        print(f"translation error: {errs.translation_error:.6g}")
    if args.out:
        print(f"wrote result to {args.out}")
    return 0


def _cmd_gen_scene(args) -> int:
    scene = synthetic_scene(
        n_points=args.points,
        cube_size=args.cube_size,
        n_outlier_points=args.clutter,
        outlier_sphere_radius=args.sphere_radius,
        n_associations=args.associations,
        outlier_ratio=args.outlier_ratio,
        seed=args.seed,
    )
    save_scenario(scene, args.out)
    inliers = sum(scene.inlier_mask)
    print(f"wrote scenario to {args.out}")
    print(
        f"points: {len(scene.cloud_a)} + {len(scene.cloud_b)}, "
        f"associations: {len(scene.associations)} ({inliers} inliers), "
        f"epsilon: {scene.epsilon:.6g}"
    )
    if scene.epsilon_inflation != 1.0:
        print(
            f"note: threshold inflated by {scene.epsilon_inflation:.6g} to "
            "keep the planted inliers mutually consistent"
        )
    return 0


def _add_scene_flags(parser: argparse.ArgumentParser) -> None:
    """The synthetic-scene flags that gen-scene and bench-synthetic share."""
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--cube-size", type=float, default=0.2)
    parser.add_argument("--clutter", type=int, default=200)
    parser.add_argument("--sphere-radius", type=float, default=1.0)
    parser.add_argument("--associations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cliquereg",
        description=(
            "Maximal-clique estimation and clique-based point cloud "
            "registration"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one DIMACS graph")
    solve.add_argument("graph", help="DIMACS file")
    solve.add_argument(
        "--algo", choices=ALGORITHM_NAMES, default="clipper+",
        help="algorithm to run",
    )
    solve.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_EXACT_BUDGET,
        help="node budget for the exact solver",
    )
    solve.set_defaults(func=_cmd_solve)

    bd = sub.add_parser("bench-dimacs", help="benchmark DIMACS files")
    bd.add_argument("graphs", nargs="+", help="DIMACS files")
    bd.add_argument(
        "--algo", action="append", choices=ALGORITHM_NAMES, required=True,
        help="algorithm to run (repeatable)",
    )
    bd.add_argument("--out", required=True, help="output CSV/JSON path")
    bd.add_argument(
        "--omega-gt",
        help="JSON file mapping graph ids to true maximum clique sizes",
    )
    bd.add_argument("--budget", type=_positive_int, default=DEFAULT_EXACT_BUDGET)
    bd.set_defaults(func=_cmd_bench_dimacs)

    bs = sub.add_parser(
        "bench-synthetic", help="outlier sweep over synthetic scenes"
    )
    bs.add_argument("--outlier-start", type=int, default=0)
    bs.add_argument("--outlier-stop", type=int, default=90)
    bs.add_argument("--outlier-step", type=int, default=10)
    bs.add_argument("--trials", type=int, default=20)
    bs.add_argument(
        "--algo", action="append", choices=ALGORITHM_NAMES,
        help="algorithm to run (repeatable; default greedy and clipper+)",
    )
    _add_scene_flags(bs)
    bs.add_argument("--budget", type=_positive_int, default=DEFAULT_EXACT_BUDGET)
    bs.add_argument("--out", required=True, help="output CSV/JSON path")
    bs.set_defaults(func=_cmd_bench_synthetic)

    reg = sub.add_parser("register", help="register two point clouds")
    reg.add_argument("--scenario", help="scenario JSON from gen-scene")
    reg.add_argument("--cloud-a", help="text file, one 'x y z' per line")
    reg.add_argument("--cloud-b", help="text file, one 'x y z' per line")
    reg.add_argument(
        "--associations",
        help="text file, one 0-based 'i j' index pair per line",
    )
    reg.add_argument(
        "--epsilon", type=float,
        help="consistency threshold (defaults to the scenario's)",
    )
    reg.add_argument("--out", help="optional JSON result path")
    reg.set_defaults(func=_cmd_register)

    gen = sub.add_parser("gen-scene", help="generate a synthetic scenario")
    _add_scene_flags(gen)
    gen.add_argument("--outlier-ratio", type=float, default=0.5)
    gen.add_argument("--out", required=True, help="scenario JSON path")
    gen.set_defaults(func=_cmd_gen_scene)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        # Flush here, so a closed pipe raises inside this handler.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed standard output. Point it at devnull, so the
        # flush at interpreter shutdown finds no pipe to fail on either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverFailure, BudgetExceeded) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except RegistrationError as exc:
        print(f"registration failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
