"""Write a performance record of lcmdiv as one JSON file.

    python scripts/bench.py --out BENCH_<n>.json [--seed 1] [--seconds 35]

Run from the root of a source checkout.  The record has two parts:

* ``perfbench``: the result of ``perfbench/run.py`` on every workload, with
  ``--trace 0`` (the end-to-end metrics) and ``--trace 1`` (the per-layer
  metrics), each as perfbench writes it under ``.perfbench_out/``, with its
  environment record.
* ``layers``: direct timings on the simulation's null design (N = 200) of
  the evaluation kernel (manifest and Jacobian) at one row and at a 25-row
  batch, of the fit's objective and gradient at a 25-row batch, of one fit
  alone against its share of a 25-data-set ``_fit_batch`` whose launch
  points are made in the timed call, with every coordinate free, of the four
  one-row ``gof_statistic`` calls of one replication against its share of
  the four stacked ``gof_rows`` calls on the 25 fits, of sampling one
  replication as its share of 25 draws from one table (each seeded as the
  study's replication is, by ``montecarlo.replication_seeds``), and of one
  replication alone against its share of a 25-replication chunk.  Each
  timing runs 5 repeats of a loop and keeps every repeat's per-call time
  (``runs_s``) and their median (``median_s``); ``raw_s`` is the best
  repeat, and ``scaled_s`` scales it by ``perfbench/clock.py``'s reference
  reading taken just before the repeats (``reference_s``).  A second reading
  just after them (``reference_after_s``) shows whether the machine's speed
  moved while they ran.
* ``chunk``: one replication's share of a 1 000-replication
  ``_replicate_chunk`` at N = 200, lambda8 in {0, 2} and seed 77, three runs
  each, alternating the coefficient.  Each run is a fresh interpreter,
  because the fit loop's page faults depend on the heap's history; it
  reports the chunk's own wall time and the minor page faults it made, and
  its process's ``ru_minflt`` and ``ru_maxrss`` (KiB) at the end.

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
from lcmdiv.estimation import _fit_batch, _initial_points, _objective, fit  # noqa: E402
from lcmdiv.inference import gof_rows, gof_statistic, resolve_gof_dof  # noqa: E402
from lcmdiv.model import _draw, _evaluate, manifest_distribution, sample_counts  # noqa: E402
from lcmdiv.montecarlo import _replicate_chunk, replication_seeds  # noqa: E402

BATCH = 25
REPEATS = 5
CHUNK_REPLICATIONS = 1000
CHUNK_SEED = 77
CHUNK_RUNS = 3
# One chunk in a fresh interpreter; argv: source directory, lambda8.
CHUNK_CHILD = f"""
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from lcmdiv import datasets
from lcmdiv.inference import resolve_gof_dof
from lcmdiv.montecarlo import _replicate_chunk
plan = datasets.simulation_plan(sample_sizes=(200,), lambda8_grid=(float(sys.argv[2]),),
                                replications={CHUNK_REPLICATIONS}, seed={CHUNK_SEED})
dof = resolve_gof_dof(plan.null_design, plan.dof_policy)[0]
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
wall, _ = _replicate_chunk((plan, dof, 0, plan.replications))
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({{"wall_s": wall, "per_replication_s": wall / plan.replications,
                  "chunk_minflt": usage.ru_minflt - faults, "ru_minflt": usage.ru_minflt,
                  "ru_maxrss_kib": usage.ru_maxrss}}))
"""


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
    """``REPEATS`` loops of ``number`` calls, per call divided by ``per``, between two
    clock readings; ``raw_s`` is the best loop, scaled by the reading before it."""
    fn()
    reading = clock.reference()
    runs = [t / number / per for t in timeit.repeat(fn, number=number, repeat=REPEATS)]
    after = clock.reference()
    raw = min(runs)
    return {"raw_s": raw, "scaled_s": raw * REFERENCE_S / reading, "reference_s": reading,
            "runs_s": runs, "median_s": float(np.median(runs)), "reference_after_s": after}


def layer_timings(seed: int) -> dict:
    plan = datasets.simulation_plan(sample_sizes=(200,), lambda8_grid=(0.0,),
                                    replications=BATCH, seed=seed)
    design, spec = plan.null_design, power(plan.estimator_a)
    rng = np.random.Generator(np.random.Philox(seed))
    X = plan.theta0.vector() + rng.normal(0.0, 0.1, size=(BATCH, design.t + design.u))
    counts = [sample_counts(design, plan.theta0, 200, seed=np.random.SeedSequence((seed, rep)))
              for rep in range(BATCH)]
    options = plan.fit_options()
    fits = [fit(design, c, spec, options) for c in counts]
    evaluations = sum(r.traces[0].evaluations for r in fits)
    P_hat = np.array([c.p_hat() for c in counts])
    sample_seeds, fit_seeds = zip(*(replication_seeds(seed, 0, 0, rep) for rep in range(BATCH)))

    def fit_batch():
        X0 = np.array([_initial_points(design, options, s) for s in fit_seeds])
        free = np.ones_like(X0[:, 0])
        return _fit_batch(design, P_hat, spec.a, X0, free, options.grad_tol, options.max_iters)

    def gof_batch():
        return [gof_statistic(design, c, power(a), r, plan.alpha, plan.dof_policy)
                for c, r in zip(counts, fits) for a in plan.a_values]

    P = np.array([r.manifest.p for r in fits])
    N = [c.N for c in counts]
    dof = resolve_gof_dof(design, plan.dof_policy)[0]

    def statistics_batch():
        return [gof_rows(power(a), P_hat, P, N, dof, plan.alpha) for a in plan.a_values]

    def sampling_batch():
        table = manifest_distribution(design, plan.theta0).p
        return [_draw(table, 200, s) for s in sample_seeds]

    clock = Clock()
    return {
        "design": ("sim_null (m=10, k=5, t=7, u=6), N=200, estimator index 2/3, "
                   "statistic indices -1/2, 0, 2/3, 1"),
        "batch": BATCH,
        "evaluations_per_fit": evaluations / BATCH,
        "evaluate_b1_per_call": timed(clock, lambda: _evaluate(design, X[:1]), 300),
        "evaluate_b25_per_row": timed(clock, lambda: _evaluate(design, X), 100, BATCH),
        "objective_b25_per_row": timed(
            clock, lambda: _objective(design, P_hat, plan.estimator_a, X), 100, BATCH),
        "gof_per_replication": timed(clock, gof_batch, 10, BATCH),
        "statistics_per_replication": timed(clock, statistics_batch, 10, BATCH),
        "sampling_per_replication": timed(clock, sampling_batch, 10, BATCH),
        "fit_alone": timed(clock, lambda: fit(design, counts[0], spec, options), 5),
        "fit_batch_share": timed(clock, fit_batch, 1, BATCH),
        "replication_alone": timed(clock, lambda: _replicate_chunk((plan, dof, 0, 1)), 5),
        "replication_batch_share": timed(
            clock, lambda: _replicate_chunk((plan, dof, 0, BATCH)), 1, BATCH),
    }


def chunk_runs() -> dict:
    """``CHUNK_RUNS`` fresh-process runs of the chunk per coefficient, alternating."""
    runs = {"0": [], "2": []}
    for _ in range(CHUNK_RUNS):
        for lambda8 in runs:
            cmd = [sys.executable, "-c", CHUNK_CHILD, str(ROOT / "src"), lambda8]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            runs[lambda8].append(json.loads(out))
    return {"replications": CHUNK_REPLICATIONS, "N": 200, "seed": CHUNK_SEED,
            "runs_by_lambda8": runs}


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
        "chunk": chunk_runs(),
        "perfbench": run_perfbench(args.seed, seconds),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
