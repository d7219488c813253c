"""Self-test of the benchmark at smoke size; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` is well formed, that every workload emits
exactly its declared end-to-end metrics (``--trace 0``) and per-layer metrics
(``--trace 1``) with valid names and the declared units, that the traced
counts repeat exactly across two runs, and that the benchmark refuses to run
without the program beside it.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3
# Traced metrics that count work; they must not depend on timing.
EXACT = re.compile(r"(\.calls|pattern_table_builds|evals_per_fit|iterations|starts_\w+_ratio)$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace {trace} exited with {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    return result


def check_metrics(result: dict, declared: list) -> None:
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], (m, entry)
        assert isinstance(entry["value"], (int, float)) and entry["value"] >= 0, (m, entry)


def check_refuses_without_program(spec_path: Path) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(spec_path, bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workloads.NAMES[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program"
    assert '"correct"' not in proc.stdout, "printed a result without the program"


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check_spec(spec)
    check_refuses_without_program(spec_path)
    print("spec and bare-directory refusal: ok", flush=True)
    for workload in workloads.NAMES:
        check_metrics(run(workload, 0), spec["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        check_metrics(first, spec["per_layer"])
        check_metrics(second, spec["per_layer"])
        for name, entry in first["metrics"].items():
            if EXACT.search(name):
                assert entry["value"] == second["metrics"][name]["value"], (
                    workload, name, entry["value"], second["metrics"][name]["value"])
        print(f"{workload}: metrics and repeatable traced counts: ok", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
