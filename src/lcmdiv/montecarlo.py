"""Simulated exact size and power of the goodness-of-fit statistics.

Each replication draws a sample from the true model (the null design, or its
one-column extension at a nonzero coefficient), fits the null design by
minimum divergence, and tests that single fit with
:func:`lcmdiv.inference.gof_statistic` at every statistic index.  The share of
those decisions that reject is the simulated exact size (at coefficient zero)
or power (elsewhere), so the study measures exactly the test a user runs on
one data set.

Replications are seeded independently from the master seed through
``SeedSequence(seed, spawn_key=(size_idx, coef_idx, rep))``, so the table is
bit-reproducible no matter how replications are scheduled.  A cell is cut
into one contiguous chunk per worker (the whole cell when serial), and each
chunk's fits run as one :func:`lcmdiv.estimation.fit_many` batch, whose rows
do not depend on each other; the process-pool parallel path and the serial
path produce identical tables.  Replications
whose fit does not converge are excluded from the denominator and counted.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np
from scipy.stats import beta as _beta_dist

from .divergence import power
from .errors import DomainError
from .estimation import FitOptions, fit_many
from .inference import gof_statistic
from .model import ModelDesign, Theta, sample_counts

_log = logging.getLogger(__name__)


def dale_band(alpha: float, logit_distance: float = 0.35) -> tuple:
    """Interval of acceptable simulated sizes around the nominal level.

    Inverts ``|logit(1 - rate) - logit(1 - alpha)| <= logit_distance``.
    At alpha = 0.05 the band is (0.0358, 0.0695) to four decimals.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    odds = (1.0 - alpha) / alpha
    lo = 1.0 / (1.0 + odds * math.exp(logit_distance))
    hi = 1.0 / (1.0 + odds * math.exp(-logit_distance))
    return lo, hi


def _clopper_pearson(successes: int, trials: int, level: float = 0.95) -> tuple:
    if trials == 0:
        return 0.0, 1.0
    tail = (1.0 - level) / 2.0
    lo = 0.0 if successes == 0 else float(_beta_dist.ppf(tail, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        _beta_dist.ppf(1.0 - tail, successes + 1, trials - successes)
    )
    return lo, hi


@dataclass(frozen=True)
class SimulationPlan:
    """Design and scope of a size/power study.

    ``lambda8_grid`` lists the extension-coefficient values; 0 is the null.
    The estimator index defaults to 2/3.  Fits start at the true null
    parameters by default (``fit_starts`` extra random starts can be added),
    which tracks the consistent root and keeps replication cost flat.
    """

    null_design: ModelDesign
    alt_design: ModelDesign
    theta0: Theta
    lambda8_grid: tuple = (0.0,)
    sample_sizes: tuple = (200,)
    a_values: tuple = (2.0 / 3.0,)
    replications: int = 1000
    alpha: float = 0.05
    seed: int = 0
    estimator_a: float = 2.0 / 3.0
    dof_policy: str = "rank"
    fit_starts: int = 1
    start_at_truth: bool = True
    fit_grad_tol: float = 1e-6
    fit_max_iters: int = 300

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must be in (0, 1)")
        if not self.sample_sizes:
            raise DomainError("at least one sample size is required")
        if self.alt_design.t != self.null_design.t + 1:
            raise DomainError("alt design must extend the null design by one lambda column")
        if self.dof_policy not in ("rank", "nominal"):
            raise DomainError("dof policy must be 'rank' or 'nominal'")
        self.theta0.check_shape(self.null_design)

    def true_model(self, lambda8: float) -> tuple:
        """(design, theta) of the data-generating model at this coefficient."""
        if lambda8 == 0.0:
            return self.null_design, self.theta0
        lam = np.concatenate([self.theta0.lam, [lambda8]])
        return self.alt_design, Theta(lam=lam, eta=self.theta0.eta)


@dataclass(frozen=True)
class SizePowerCell:
    """Rejection tally for one (sample size, statistic index, coefficient) cell."""

    N: int
    a: float
    lambda8: float
    rate: float
    rejections: int
    n_effective: int
    fit_failures: int
    infinite_statistics: int
    dof: Optional[int]  # None when no replication converged
    binomial_ci: tuple
    dale_pass: bool


@dataclass(frozen=True)
class SizePowerTable:
    plan: SimulationPlan
    cells: tuple

    def cell(self, N: int, a: float, lambda8: float) -> SizePowerCell:
        for c in self.cells:
            if c.N == N and math.isclose(c.a, a) and math.isclose(c.lambda8, lambda8):
                return c
        raise KeyError((N, a, lambda8))

    def rows(self) -> list:
        header = [
            "N", "a", "lambda8", "rate", "rejections", "n_effective",
            "fit_failures", "infinite_statistics", "dof", "ci95_lo", "ci95_hi",
            "dale_pass",
        ]
        out = [header]
        for c in self.cells:
            out.append([
                c.N, c.a, c.lambda8, c.rate, c.rejections, c.n_effective,
                c.fit_failures, c.infinite_statistics, c.dof,
                c.binomial_ci[0], c.binomial_ci[1], int(c.dale_pass),
            ])
        return out

    def write_csv(self, path) -> None:
        """Write :meth:`rows` as comma-separated lines, floats as ``repr``, None empty."""
        with open(path, "w") as fh:
            for row in self.rows():
                fh.write(",".join(_csv_field(v) for v in row) + "\n")


def _csv_field(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _replicate_chunk(args):
    """Records of a run of replications, in order.

    Samples every replication, fits the null design to all of them in one
    :func:`fit_many` batch, and tests each fit at every entry of
    ``plan.a_values``.  A record is one ``TestResult`` per index, or ``None``
    when the replication's fit did not converge.  A fit does not depend on
    the rest of its batch, so neither does a record.
    """
    plan, size_idx, coef_idx, reps = args
    N = plan.sample_sizes[size_idx]
    design_true, theta_true = plan.true_model(plan.lambda8_grid[coef_idx])
    counts_seq, options_seq = [], []
    for rep in reps:
        seq = np.random.SeedSequence(plan.seed, spawn_key=(size_idx, coef_idx, rep))
        sample_seq, fit_seq = seq.spawn(2)
        counts_seq.append(sample_counts(design_true, theta_true, N, sample_seq))
        options_seq.append(FitOptions(
            starts=plan.fit_starts,
            grad_tol=plan.fit_grad_tol,
            max_iters=plan.fit_max_iters,
            seed=int(fit_seq.generate_state(1)[0]),
            init_theta=plan.theta0 if plan.start_at_truth else None,
        ))
    fits = fit_many(plan.null_design, counts_seq, power(plan.estimator_a), options_seq)
    return [
        tuple(
            gof_statistic(plan.null_design, counts, power(a), result, plan.alpha, plan.dof_policy)
            for a in plan.a_values
        )
        if result.converged
        else None
        for counts, result in zip(counts_seq, fits)
    ]


def run_simulation(plan: SimulationPlan, n_jobs: Optional[int] = None) -> SizePowerTable:
    """Run the full grid of the plan and tally rejection rates.

    ``n_jobs`` > 1 distributes replications over one pool of processes,
    opened once for the whole grid; the output is identical to the serial
    run.  Defaults to the LCMDIV_JOBS environment variable, else 1.  Each
    finished cell is logged at INFO level on the ``lcmdiv.montecarlo``
    logger with its sample size, coefficient, fit failures and wall time.
    """
    if n_jobs is None:
        n_jobs = int(os.environ.get("LCMDIV_JOBS", "1"))
    n_jobs = max(1, n_jobs)

    band = dale_band(plan.alpha)
    cells = []
    pool = ProcessPoolExecutor(max_workers=n_jobs) if n_jobs > 1 else None
    with pool or nullcontext():
        for size_idx, N in enumerate(plan.sample_sizes):
            for coef_idx, lambda8 in enumerate(plan.lambda8_grid):
                start = perf_counter()
                records = _run_cell(plan, size_idx, coef_idx, n_jobs, pool)
                converged = [tests for tests in records if tests is not None]
                effective = len(converged)
                failures = len(records) - effective
                for i, a in enumerate(plan.a_values):
                    column = [tests[i] for tests in converged]
                    dofs = [t.dof for t in column]
                    rejections = sum(t.reject for t in column)
                    rate = rejections / effective if effective else math.nan
                    cells.append(
                        SizePowerCell(
                            N=N,
                            a=a,
                            lambda8=lambda8,
                            rate=rate,
                            rejections=rejections,
                            n_effective=effective,
                            fit_failures=failures,
                            infinite_statistics=sum("infinite_statistic" in t.warnings for t in column),
                            # The mode, smallest first among ties; dof may be <= 0.
                            dof=max(sorted(set(dofs)), key=dofs.count) if dofs else None,
                            binomial_ci=_clopper_pearson(rejections, effective),
                            dale_pass=bool(effective and band[0] <= rate <= band[1]),
                        )
                    )
                _log.info(
                    "cell N=%d lambda8=%r: %d fit failures, %.3f s",
                    N, lambda8, failures, perf_counter() - start,
                )
    return SizePowerTable(plan=plan, cells=tuple(cells))


def _run_cell(plan, size_idx, coef_idx, n_jobs, pool=None):
    """Records of one cell in replication order; serial when ``pool`` is None."""
    reps = list(range(plan.replications))
    if pool is None:
        return _replicate_chunk((plan, size_idx, coef_idx, reps))
    # One contiguous chunk per worker, so each worker fits one batch.
    chunk = -(-len(reps) // n_jobs)
    tasks = [
        (plan, size_idx, coef_idx, reps[i : i + chunk])
        for i in range(0, len(reps), chunk)
    ]
    # map yields the chunks in task order, so records stay in replication order.
    return [tests for batch in pool.map(_replicate_chunk, tasks) for tests in batch]


def emit_power_curves(table: SizePowerTable, out_dir) -> list:
    """Write one delimited file per sample size: coefficient vs rejection rate.

    Columns are the coefficient followed by one rate column per statistic
    index; data for rendering, no rendering here.
    """
    os.makedirs(out_dir, exist_ok=True)
    plan = table.plan
    paths = []
    for N in plan.sample_sizes:
        path = os.path.join(out_dir, f"power_N{N}.csv")
        header = ["lambda8"] + [f"a={_fmt_a(a)}" for a in plan.a_values]
        lines = [",".join(header)]
        for lambda8 in plan.lambda8_grid:
            row = [repr(float(lambda8))]
            for a in plan.a_values:
                row.append(repr(table.cell(N, a, lambda8).rate))
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def _fmt_a(a: float) -> str:
    return f"{a:.6g}"
