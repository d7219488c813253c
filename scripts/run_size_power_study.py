"""Run the size/power study at a configurable scale.

The full published grid is 10000 replications x 5 sample sizes x 12
coefficients; at roughly 30 ms per replication that is a multi-hour run, so
the defaults here trim it to a desk-size smoke.  Pass --full for the whole
grid (use --jobs to parallelize).

Examples:
    python scripts/run_size_power_study.py --out-dir /tmp/study
    python scripts/run_size_power_study.py --sizes 200,1000 --lambda8 0,1,2 \
        --replications 2000 --jobs 8 --out-dir results/
"""

import argparse
import logging
import os
import time

from lcmdiv.datasets import simulation_plan
from lcmdiv.montecarlo import dale_band, emit_power_curves, run_simulation


def comma_floats(text):
    return tuple(float(x) for x in text.split(","))


def comma_ints(text):
    return tuple(int(x) for x in text.split(","))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=comma_ints, default=(200, 1000))
    parser.add_argument("--lambda8", type=comma_floats, default=(0.0, 1.0, 2.0))
    parser.add_argument("--a-values", type=comma_floats, default=(-0.5, 0.0, 2.0 / 3.0, 1.0))
    parser.add_argument("--replications", type=int, default=500)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=20140915)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--full", action="store_true", help="run the complete published grid")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    if args.full:
        plan = simulation_plan(seed=args.seed, alpha=args.alpha)
    else:
        plan = simulation_plan(
            sample_sizes=args.sizes,
            lambda8_grid=args.lambda8,
            a_values=args.a_values,
            replications=args.replications,
            alpha=args.alpha,
            seed=args.seed,
        )

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    t0 = time.time()
    table = run_simulation(plan, n_jobs=args.jobs)
    print(f"finished in {time.time() - t0:.0f}s")

    band = dale_band(plan.alpha)
    print(f"acceptable size band at alpha={plan.alpha}: ({band[0]:.4f}, {band[1]:.4f})")
    header = f"{'N':>5} {'a':>7} {'lambda8':>8} {'rate':>7} {'dof':>4} {'fails':>6} {'band':>5}"
    print(header)
    for cell in table.cells:
        print(
            f"{cell.N:>5} {cell.a:>7.3f} {cell.lambda8:>8.2f} {cell.rate:>7.4f} "
            f"{cell.dof:>4} {cell.fit_failures:>6} {'  in' if cell.dale_pass else ' out':>5}"
        )

    paths = emit_power_curves(table, args.out_dir)
    table_path = os.path.join(args.out_dir, "size_power.csv")
    table.write_csv(table_path)
    print(f"table: {table_path}")
    for path in paths:
        print(f"curve data: {path}")


if __name__ == "__main__":
    main()
