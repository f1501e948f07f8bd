#!/usr/bin/env python3
"""Outlier-robustness sweep over synthetic registration scenes.

Desk scale by default (200 cloud points, 200 clutter, 100 associations,
0-90% outliers step 10, 20 trials); --full switches to the large protocol
(1000/1000/200, 0-98% step 2, 50 trials), which takes much longer because
the exact oracle runs on every consistency graph.
"""

import argparse
import sys
import time

from cliquereg import SweepConfig, bench_synthetic, write_records
from cliquereg.bench import ALGORITHM_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="outlier_sweep.csv",
                        help="records CSV/JSON path (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials per increment")
    parser.add_argument("--algo", action="append",
                        choices=ALGORITHM_NAMES,
                        help="repeatable; default greedy and clipper+")
    parser.add_argument("--full", action="store_true",
                        help="full-scale protocol instead of desk scale")
    args = parser.parse_args()

    if args.full:
        config = SweepConfig(
            outlier_start=0, outlier_stop=98, outlier_step=2,
            trials=args.trials or 50,
            algorithms=tuple(args.algo) if args.algo else ("greedy", "clipper+"),
            n_points=1000, cube_size=0.2, n_outlier_points=1000,
            outlier_sphere_radius=1.0, n_associations=200,
            base_seed=args.seed,
        )
    else:
        config = SweepConfig(
            trials=args.trials or 20,
            algorithms=tuple(args.algo) if args.algo else ("greedy", "clipper+"),
            base_seed=args.seed,
        )

    start = time.perf_counter()
    records, aggregates = bench_synthetic(config)
    elapsed = time.perf_counter() - start
    write_records(records, args.out)

    print(f"{len(records)} records -> {args.out}  ({elapsed:.1f} s)")
    print("outlier%  algo      mean_r   mean_sparsity  trials")
    for agg in aggregates:
        mean_r = "-" if agg.mean_r is None else f"{agg.mean_r:.4f}"
        print(f"{agg.outlier_pct:7d}  {agg.algo:<8s}  {mean_r:>6s}   "
              f"{agg.mean_sparsity:13.4f}  {agg.trials_counted:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
