"""Write a performance record of lcmdiv as one JSON file.

    python scripts/bench.py --out BENCH_<n>.json [--seed 1] [--seconds 35]

Run from the root of a source checkout.  The record has two parts:

* ``perfbench``: the result of ``perfbench/run.py`` on every workload, with
  ``--trace 0`` (the end-to-end metrics) and ``--trace 1`` (the per-layer
  metrics), each as perfbench writes it under ``.perfbench_out/``, with its
  environment record.
* ``layers``: direct timings on the simulation's null design (N = 200) of
  the evaluation kernel at one row and at a 25-row batch, of one fit alone
  against its share of a 25-data-set ``fit_many`` batch, and of one
  replication alone against its share of a 25-replication chunk.  Each
  timing is the best of 5 repeats of a loop, in raw seconds and scaled by
  ``perfbench/clock.py``'s reference reading taken just before it.

The script reuses perfbench's clock, checks and environment record; it
changes no gate or bound of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from clock import REFERENCE_S, Clock  # noqa: E402
from run import OUT_DIR, environment  # noqa: E402
from workloads import NAMES  # noqa: E402

from lcmdiv import datasets  # noqa: E402
from lcmdiv.divergence import power  # noqa: E402
from lcmdiv.estimation import FitOptions, fit, fit_many  # noqa: E402
from lcmdiv.model import _evaluate, sample_counts  # noqa: E402
from lcmdiv.montecarlo import _replicate_chunk  # noqa: E402

BATCH = 25
REPEATS = 5


def run_perfbench(seed: int, seconds: float) -> dict:
    """perfbench's stored result of every workload at trace 0 and trace 1."""
    out = {}
    for trace in (0, 1):
        for name in NAMES:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            path = OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
            out[f"{name}/trace{trace}"] = json.loads(path.read_text())
    return out


def timed(clock: Clock, fn, number: int, per: int = 1) -> dict:
    """Best of ``REPEATS`` loops of ``number`` calls, per call divided by ``per``."""
    fn()
    reading = clock.reference()
    raw = min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number / per
    return {"raw_s": raw, "scaled_s": raw * REFERENCE_S / reading, "reference_s": reading}


def layer_timings(seed: int) -> dict:
    plan = datasets.simulation_plan(sample_sizes=(200,), lambda8_grid=(0.0,),
                                    replications=BATCH, seed=seed)
    design, spec = plan.null_design, power(plan.estimator_a)
    rng = np.random.Generator(np.random.Philox(seed))
    X = plan.theta0.vector() + rng.normal(0.0, 0.1, size=(BATCH, design.t + design.u))
    counts = [sample_counts(design, plan.theta0, 200, seed=(seed, rep)) for rep in range(BATCH)]
    options = [FitOptions(starts=1, grad_tol=plan.fit_grad_tol, max_iters=plan.fit_max_iters,
                          init_theta=plan.theta0)] * BATCH
    evaluations = sum(r.traces[0].evaluations for r in fit_many(design, counts, spec, options))

    clock = Clock()
    return {
        "design": "sim_null (m=10, k=5, t=7, u=6), N=200, estimator index 2/3",
        "batch": BATCH,
        "evaluations_per_fit": evaluations / BATCH,
        "evaluate_b1_per_call": timed(clock, lambda: _evaluate(design, X[0]), 300),
        "evaluate_b25_per_row": timed(clock, lambda: _evaluate(design, X), 100, BATCH),
        "fit_alone": timed(clock, lambda: fit(design, counts[0], spec, options[0]), 5),
        "fit_batch_share": timed(clock, lambda: fit_many(design, counts, spec, options), 1, BATCH),
        "replication_alone": timed(clock, lambda: _replicate_chunk((plan, 0, 0, [0])), 5),
        "replication_batch_share": timed(
            clock, lambda: _replicate_chunk((plan, 0, 0, list(range(BATCH)))), 1, BATCH),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="path of the JSON record")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="perfbench run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {
        "environment": environment(argparse.Namespace(workload=None, seed=args.seed, trace=None)),
        "layers": layer_timings(args.seed),
        "perfbench": run_perfbench(args.seed, seconds),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
