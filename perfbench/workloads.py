"""The benchmark's workloads: what one unit of work is and how its output is checked.

Every workload is a closed loop with one client: the next unit starts when
the previous one has returned.  Repeats of a unit inside one invocation use
the same inputs, so their outputs must agree byte for byte.

lcmdiv is imported lazily, inside the methods, so that a set-up probe can
time the import itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import traceback
from time import perf_counter

# Published worked example: T at index 2/3 on the Coleman panel, 4 dof, kept.
GOF_T = 1.277
GOF_T_TOL = 0.02
GOF_DOF = 4
SELECTED_MODEL = 2

_COUNTS = "data/coleman_counts.csv"
_PHI23 = ("--phi1", "power:a=0.6667", "--phi2", "power:a=0.6667")


def cpu_seconds() -> float:
    """User + system CPU time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclasses.dataclass
class Unit:
    """Outcome of one unit of work, with its raw times in seconds."""

    items: int                 # operations attempted: CLI commands or replications
    failed: int = 0            # of those, nonzero exits, exceptions, unconverged fits
    output: object = None      # compared across repeats
    wall: float = 0.0
    cpu: float = 0.0
    parts: dict = dataclasses.field(default_factory=dict)     # wall seconds per piece, in order
    readings: list = dataclasses.field(default_factory=list)  # reference kernel, before each piece
    part_scale: dict = dataclasses.field(default_factory=dict)  # set by clock.scale_units
    problems: list = dataclasses.field(default_factory=list)

    @property
    def scaled(self) -> float:
        return sum(t * self.part_scale[label] for label, t in self.parts.items())

    @property
    def scale(self) -> float:
        return self.scaled / self.wall

    def time(self, clock, label, fn):
        """Call ``fn()`` after a reference reading and add its times to this unit."""
        self.readings.append(clock.reference())
        cpu0, start = cpu_seconds(), perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            self.wall += elapsed
            self.cpu += cpu_seconds() - cpu0
            self.parts[label] = elapsed


class ColemanCli:
    """A session of ``lcmdiv.cli.main`` calls on the Coleman panel, run in-process."""

    name = "coleman-cli"
    item = "commands"

    def __init__(self, seed: int):
        s = str(seed)
        self.commands = (
            ("gof", ("gof", "--design", "data/coleman_m1.json", "--counts", _COUNTS, *_PHI23,
                     "--starts", "30", "--seed", s)),
            ("nested", ("nested", "--design", "data/coleman_m1_chain_basis.json",
                        "--counts", _COUNTS, "--zero-lambda", "7,8", *_PHI23, "--seed", s)),
            ("select", ("select", "--chain", "data/coleman_chain.json", "--counts", _COUNTS,
                        *_PHI23, "--statistic", "S", "--seed", s)),
            ("fit", ("fit", "--design", "data/coleman_m1.json", "--counts", _COUNTS,
                     "--phi", "power:a=0", "--seed", s)),
            ("verify", ("verify", "--design", "data/sim_null.json", "--drop-eta", "1")),
        )

    def probe(self) -> None:
        """Set-up as a user pays it: import the CLI and read every input of the session."""
        import lcmdiv.cli  # noqa: F401
        from lcmdiv import fileio

        for path in ("data/coleman_m1.json", "data/coleman_m1_chain_basis.json",
                     "data/sim_null.json"):
            fileio.read_design(path)
        fileio.read_counts(_COUNTS)
        fileio.read_chain("data/coleman_chain.json")

    def warm(self) -> list:
        """Touch every command's code path once with a single start; nothing is timed."""
        problems = []
        for label, argv in self.commands:
            # argparse keeps the last --starts; verify has no such option.
            rc, _, error = _call_cli(argv + (() if label == "verify" else ("--starts", "1")))
            if rc == "exception":
                problems.append(f"warm-up {label}: {error}")
        return problems

    def run_unit(self, clock, tracer=None) -> Unit:
        unit = Unit(items=len(self.commands), output={})
        for i, (label, argv) in enumerate(self.commands):
            if tracer is not None:
                tracer.request = i + 1
            rc, text, error = unit.time(clock, label, lambda: _call_cli(argv + ("--format", "json")))
            unit.output[label] = text
            if rc != 0:
                unit.failed += 1
                unit.problems.append(f"{label} exited with {rc}: {error}")
            else:
                unit.problems.extend(_check_report(label, text))
        return unit


def _call_cli(argv):
    """Run ``lcmdiv.cli.main(argv)``; returns (exit code, stdout text, error text)."""
    import lcmdiv.cli

    buf, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = lcmdiv.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not a crashed benchmark
        return "exception", buf.getvalue(), traceback.format_exc(limit=3)
    return rc, buf.getvalue(), err.getvalue().strip()


def _check_report(label: str, text: str) -> list:
    try:
        return _report_problems(label, json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"{label}: unexpected report ({exc!r})"]


def _report_problems(label: str, doc: dict) -> list:
    problems = []
    if label == "gof":
        test = doc["test"]
        if abs(test["statistic"] - GOF_T) > GOF_T_TOL:
            problems.append(f"gof: T = {test['statistic']!r}, expected {GOF_T} +- {GOF_T_TOL}")
        if test["dof"] != GOF_DOF:
            problems.append(f"gof: dof = {test['dof']}, expected {GOF_DOF}")
        if test["reject"]:
            problems.append("gof: the model was rejected")
    elif label == "select" and doc["selected_model"] != SELECTED_MODEL:
        problems.append(f"select: picked M{doc['selected_model']}, expected M{SELECTED_MODEL}")
    elif label == "fit" and not doc["fit"]["converged"]:
        problems.append("fit: not converged")
    elif label == "verify" and not doc["all_pass"]:
        problems.append("verify: an identity check failed")
    return problems


class SimCells:
    """Simulation cells run through ``montecarlo.run_simulation``."""

    item = "replications"

    def __init__(self, name, seed, sample_sizes, lambda8_grid, replications,
                 a_values=(-0.5, 0.0, 2.0 / 3.0, 1.0)):
        self.name = name
        self.seed = seed
        self.sample_sizes = sample_sizes
        self.lambda8_grid = lambda8_grid
        self.replications = replications
        self.a_values = a_values
        self.plan = None

    def build_plan(self):
        from lcmdiv import datasets

        return datasets.simulation_plan(
            sample_sizes=self.sample_sizes,
            lambda8_grid=self.lambda8_grid,
            a_values=self.a_values,
            replications=self.replications,
            seed=self.seed,
        )

    def probe(self) -> None:
        """Set-up as a user pays it: import the package and build the plan."""
        import lcmdiv.montecarlo  # noqa: F401

        self.build_plan()

    def warm(self) -> list:
        from lcmdiv import montecarlo

        self.plan = self.build_plan()
        try:
            montecarlo.run_simulation(dataclasses.replace(self.plan, replications=2), n_jobs=1)
        except Exception:
            return [f"warm-up: {traceback.format_exc(limit=3)}"]
        return []

    def run_unit(self, clock, tracer=None, n_jobs=1, replications=None) -> Unit:
        from lcmdiv import montecarlo

        plan = self.build_plan() if tracer is not None else self.plan
        if replications is not None:
            plan = dataclasses.replace(plan, replications=replications)
        unit = Unit(items=plan.replications * len(self.sample_sizes) * len(self.lambda8_grid))
        try:
            table = unit.time(clock, "cells", lambda: montecarlo.run_simulation(plan, n_jobs=n_jobs))
        except Exception:
            unit.failed = unit.items
            unit.problems.append(f"run_simulation raised: {traceback.format_exc(limit=3)}")
            return unit

        failures = {}
        for c in table.cells:
            if c.n_effective + c.fit_failures != plan.replications:
                unit.problems.append(
                    f"cell N={c.N} a={c.a} lambda8={c.lambda8}: n_effective {c.n_effective}"
                    f" + fit_failures {c.fit_failures} != {plan.replications} replications")
            failures[(c.N, c.lambda8)] = c.fit_failures
        unit.failed = sum(failures.values())
        unit.output = "\n".join(",".join(repr(v) for v in row) for row in table.rows())
        return unit


def make(name: str, seed: int, smoke: bool = False):
    """The workload called ``name``, with its inputs derived from ``seed``."""
    if name == "coleman-cli":
        return ColemanCli(seed)
    if name == "sim-null-n200":
        return SimCells(name, seed, (200,), (0.0,), 8 if smoke else 25)
    raise KeyError(name)


NAMES = ("coleman-cli", "sim-null-n200")
