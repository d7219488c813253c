"""Benchmark of lcmdiv, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

One invocation sets the program up several times in fresh interpreters
(``setup_s``), warms it, then repeats one unit of the workload until
``--seconds`` have passed (at least twice) and reports medians of times
scaled as described in clock.py (``wall_s`` sums the median of each piece of
a unit: each CLI command, or the one simulation cell).  With ``--trace 1`` it then measures the
process pool (simulation workload only) and runs one more unit with every
layer's public functions wrapped in spans, and reports the per-layer metrics
and the tracing overhead.  README.md in this directory lists every metric.

Every line but the last is a human-readable report (environment record, each
metric with its unit, any failed check).  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units are those declared in ``BENCHMARK.json``.  Results and
spans are also written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REQUIRED = (
    "BENCHMARK.json",
    "src/lcmdiv/__init__.py",
    "data/coleman_counts.csv",
    "data/coleman_m1.json",
    "data/coleman_m1_chain_basis.json",
    "data/coleman_chain.json",
    "data/sim_null.json",
)
SETUP_PROBES = 5
POOL_JOBS = 2
POOL_REPLICATIONS = 100
MIN_UNITS = 2
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 600


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed check)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description="lcmdiv benchmark")
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measured time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small simulation cells, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: no lcmdiv checkout at {ROOT}: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        start = perf_counter()
        workloads.make(args.workload, args.seed, args.smoke).probe()
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.all:
            return run_all(args, seconds)
        result = run_workload(args, seconds, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run_workload(args, seconds: float, spec: dict) -> dict:
    import lcmdiv

    if Path(lcmdiv.__file__).resolve().parent != (ROOT / "src" / "lcmdiv").resolve():
        raise BenchError(f"imported lcmdiv from {lcmdiv.__file__}, not from this checkout")
    work = workloads.make(args.workload, args.seed, args.smoke)
    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))

    from clock import REFERENCE_S, Clock, scale_units

    clock = Clock()
    setup_raw, setup_scaled = [], []
    if not args.trace:
        before = clock.reference()
        for _ in range(SETUP_PROBES):
            setup_raw.append(setup_probe(args))
            after = clock.reference()
            setup_scaled.append(setup_raw[-1] * REFERENCE_S / statistics.fmean((before, after)))
            before = after
    problems = work.warm()
    units = []
    start = perf_counter()
    while len(units) < MIN_UNITS or perf_counter() - start < seconds:
        units.append(work.run_unit(clock))
    scale_units(units, clock)
    repeats, others = list(units), []  # repeats must reproduce the first unit's output

    metrics = {}
    # Median of each piece (CLI command or cell) over the units, summed over the pieces.
    medians = {label: statistics.median(u.parts[label] * u.part_scale[label] for u in units)
               for label in units[0].parts}
    wall = sum(medians.values())
    if setup_scaled:
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        metrics["setup_raw_s"] = (statistics.median(setup_raw), "s")
    metrics["wall_s"] = (wall, "s")
    metrics["wall_raw_s"] = (statistics.median(u.wall for u in units), "s")
    metrics["cpu_raw_s"] = (statistics.median(u.cpu for u in units), "s")
    items = units[0].items
    if isinstance(work, workloads.ColemanCli):
        for label, value in medians.items():
            metrics[f"cli.{label}_s"] = (value, "s")
        metrics["montecarlo.reps_per_s"] = (0.0, "1/s")
    else:
        for label in ("gof", "nested", "select", "fit", "verify"):
            metrics[f"cli.{label}_s"] = (0.0, "s")
        metrics["montecarlo.reps_per_s"] = (items / wall, "1/s")

    if args.trace:
        speedup = 0.0
        if isinstance(work, workloads.SimCells):
            # A larger cell serially and on a process pool; the two tables must agree.
            serial = work.run_unit(clock, replications=POOL_REPLICATIONS)
            pooled = work.run_unit(clock, n_jobs=POOL_JOBS, replications=POOL_REPLICATIONS)
            scale_units([serial], clock)
            scale_units([pooled], clock)
            others += [serial, pooled]
            speedup = serial.scaled / pooled.scaled
            if pooled.output != serial.output:
                problems.append(f"the table on {POOL_JOBS} processes differs from the serial one")
        tracer = Tracer()
        tracer.install()
        try:
            traced = work.run_unit(clock, tracer=tracer)
        finally:
            tracer.uninstall()
        scale_units([traced], clock)
        repeats.append(traced)
        for name, (value, unit) in tracer.layer_metrics().items():
            metrics[name] = (value * traced.scale if unit in ("s", "ms") else value, unit)
        metrics["montecarlo.pool_speedup"] = (speedup, "ratio")
        metrics["montecarlo.pool_efficiency"] = (speedup / POOL_JOBS, "ratio")
        metrics["trace.overhead_ratio"] = (traced.scaled / wall, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{work.name}-seed{args.seed}.jsonl")
    metrics["machine.reference_s"] = (clock.median_reference(), "s")

    attempted = sum(u.items for u in repeats + others)
    failed = sum(u.failed for u in repeats + others)
    metrics["run.failure_rate"] = (failed / attempted, "ratio")
    for u in repeats + others:
        problems.extend(u.problems)
    if any(u.output != units[0].output for u in repeats):
        problems.append("repeats of the unit (traced one included) gave different outputs")

    print(f"workload {work.name}: seed {args.seed}, {len(units)} timed units of"
          f" {items} {work.item} in {sum(u.wall for u in units):.2f} s, trace {args.trace}"
          f" (times in seconds scaled to a {REFERENCE_S} s reference kernel; *_raw_s unscaled)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for entry in declared:
        value, unit = metrics.get(entry["name"], (None, None))
        if unit != entry["unit"]:
            raise BenchError(f"metric {entry['name']}: measured unit {unit}, declared {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=work.name, environment=env, problems=problems,
                  unit_walls=[u.wall for u in units],
                  unit_scaled=[u.scaled for u in units],
                  unit_parts=[u.parts for u in units],
                  references=clock.readings,
                  all_metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    path = OUT_DIR / f"result-{work.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def setup_probe(args) -> float:
    """Set-up time of the workload in a fresh interpreter: import plus input read or plan build."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_all(args, seconds: float) -> int:
    """Run every workload in its own interpreter and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def environment(args) -> dict:
    """Machine, library and source identity of this run."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    threads = {var: os.environ.get(var, "unset") for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "LCMDIV_JOBS")}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lcmdiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_configuration": blas.get("openblas configuration")},
        "blas_threads_env": threads,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
