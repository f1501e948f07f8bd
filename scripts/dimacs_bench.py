#!/usr/bin/env python3
"""Benchmark clique solvers on a directory of DIMACS instances.

Accuracy ratios use the built-in table of published maximum clique sizes
(C125.9, brock200_*, gen200_*, keller4, p_hat300-*); other instances get
size and runtime only. The exact solver is opt-in since it may blow its
node budget on the harder instances.
"""

import argparse
import sys
from pathlib import Path

from cliquereg import bench_dimacs, write_records
from cliquereg.bench import ALGORITHM_NAMES, DIMACS_OMEGA


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", help="directory with DIMACS ASCII files")
    parser.add_argument("--glob", default="*.clq",
                        help="filename pattern (default %(default)s)")
    parser.add_argument("--out", default="dimacs_bench.csv",
                        help="records CSV/JSON path (default %(default)s)")
    parser.add_argument("--algo", action="append",
                        choices=ALGORITHM_NAMES,
                        help="repeatable; default greedy and clipper+")
    args = parser.parse_args()

    paths = sorted(Path(args.directory).glob(args.glob))
    if not paths:
        print(f"no files matching {args.glob!r} under {args.directory}",
              file=sys.stderr)
        return 1

    algorithms = args.algo or ["greedy", "clipper+"]
    records = bench_dimacs(paths, algorithms)
    write_records(records, args.out)

    print(f"{len(records)} records -> {args.out}")
    print(f"{'graph':<18s} {'algo':<8s} {'size':>5s} {'omega':>5s} "
          f"{'r':>6s} {'ms':>9s}")
    for rec in records:
        omega = "-" if rec.omega_gt is None else str(rec.omega_gt)
        ratio = "-" if rec.r is None else f"{rec.r:.3f}"
        print(f"{rec.graph_id:<18s} {rec.algo:<8s} {rec.clique_size:>5d} "
              f"{omega:>5s} {ratio:>6s} {rec.runtime_ms:>9.2f}")
    known = [p.stem for p in paths if p.stem in DIMACS_OMEGA]
    if not known:
        print("note: no instance matched the published-size table; "
              "ratio cells are empty")
    return 0


if __name__ == "__main__":
    sys.exit(main())
