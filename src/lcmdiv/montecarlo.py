"""Simulated exact size and power of the goodness-of-fit statistics.

Each replication draws a sample from the true model (the null design, or its
one-column extension at a nonzero coefficient), fits the null design by
minimum divergence, and tests that single fit at every statistic index at
the null design's one dof.  The share of those decisions that reject is the
simulated exact size (at coefficient zero) or power (elsewhere).  A chunk of
replications is tested as arrays, with one
:func:`lcmdiv.inference.gof_rows` call per index on the stacked converged
fits; :func:`lcmdiv.inference.gof_statistic` is that routine on one row, so
the study measures exactly the test a user runs on one data set, bit for bit.

Replications are seeded independently from the master seed by
:func:`replication_seeds`, so the table is bit-reproducible no matter how
replications are scheduled.  The grid is one stream of replications in table
order (size, coefficient, replication), cut once per run into contiguous
chunks, a multiple of the worker count and each small enough that its kernel
arrays fit a fixed memory budget.  A chunk draws every replication of a
cell from one :func:`lcmdiv.model.manifest_distribution` of that cell's true
model, as :func:`lcmdiv.model.sample_counts` draws.  Every fit is the null
design's, so a chunk's fits run as one :func:`lcmdiv.estimation._fit_batch`
even across cells, each from the launch points of its replication's fit seed;
its rows do not depend on each other, so the process pool and the serial path
produce identical tables.  A chunk returns per-index arrays of statistics,
rejections and warning codes, and its own wall time, which the run logs split
over the cells it served.  Replications whose fit does not converge are
excluded from the denominator and counted.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields
from time import perf_counter
from typing import NamedTuple

import numpy as np
from scipy.special import betaincinv

from .divergence import power
from .errors import DomainError, require_integer
from .estimation import FitOptions, _fit_batch, _initial_points
from .inference import DOF_POLICIES, WARNINGS, gof_rows, resolve_gof_dof
from .model import MAX_ITEMS_FOR_SAMPLING, ModelDesign, Theta, _draw, manifest_distribution

_log = logging.getLogger(__name__)

_INFINITE = 1 << WARNINGS.index("infinite_statistic")


def dale_band(alpha: float) -> tuple:
    """Interval of acceptable simulated sizes around the nominal level.

    Inverts ``|logit(1 - rate) - logit(1 - alpha)| <= 0.35``.
    At alpha = 0.05 the band is (0.0358, 0.0695) to four decimals.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    odds = (1.0 - alpha) / alpha
    lo = 1.0 / (1.0 + odds * math.exp(0.35))
    hi = 1.0 / (1.0 + odds * math.exp(-0.35))
    return lo, hi


def _clopper_pearson(successes: int, trials: int) -> tuple:
    """The 95 % Clopper-Pearson interval of a binomial rate."""
    if trials == 0:
        return 0.0, 1.0
    tail = (1.0 - 0.95) / 2.0  # not the literal 0.025, a different float
    # betaincinv(a, b, q) is the beta quantile beta.ppf(q, a, b), without the stats module.
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, tail))
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1.0 - tail)
    )
    return lo, hi


@dataclass(frozen=True)
class SimulationPlan:
    """Design and scope of a size/power study.

    ``lambda8_grid`` lists the extension-coefficient values; 0 is the null.
    The estimator index defaults to 2/3.  Fits start at the true null
    parameters by default (``fit_starts`` extra random starts can be added),
    which keeps replication cost flat.  Under an alternative the null model
    is misspecified and the estimate does not tend to the true parameters,
    so one start there can stop at a stationary point above the minimum
    divergence estimate.
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
        require_integer("replications", self.replications, 1)
        require_integer("seed", self.seed, 0)
        if not self.sample_sizes:
            raise DomainError("at least one sample size is required")
        for N in self.sample_sizes:
            require_integer("each of sample_sizes", N, 1)
        if not 0.0 < 1.0 - self.alpha < 1.0:  # the level the test's critical value is taken at
            raise DomainError("alpha must be in (0, 1), with 1 - alpha below 1")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise DomainError("sample sizes must not repeat: each names one power-curve file")
        if not self.lambda8_grid or not self.a_values:
            raise DomainError("the coefficient grid and the statistic indices must not be empty")
        if not all(map(math.isfinite, (*self.lambda8_grid, *self.a_values))):
            raise DomainError("the coefficient grid and the statistic indices must be finite")
        if not math.isfinite(self.estimator_a):
            raise DomainError("the estimator index must be finite")
        null, alt = self.null_design, self.alt_design
        # Refused here, before the run's dof resolution builds a Jacobian over 2**k patterns.
        if null.k > MAX_ITEMS_FOR_SAMPLING:
            raise DomainError(
                f"the study samples at most k = {MAX_ITEMS_FOR_SAMPLING} items, got {null.k}"
            )
        # The alternative at coefficient 0 must be the null model itself.
        same = zip((alt.Q[..., : null.t], alt.C, alt.V, alt.d), (null.Q, null.C, null.V, null.d))
        if alt.t != null.t + 1 or not all(np.array_equal(x, y) for x, y in same):
            raise DomainError("alt design must extend the null design by one lambda column only")
        if self.dof_policy not in DOF_POLICIES:
            raise DomainError(f"dof policy must be {' or '.join(map(repr, DOF_POLICIES))}")
        self.theta0.check_shape(self.null_design)
        self.fit_options()  # FitOptions checks the fit fields, by its own names (starts, max_iters)

    def fit_options(self) -> FitOptions:
        """Options of every replication's fit; each replication seeds its own random starts."""
        return FitOptions(
            starts=self.fit_starts,
            grad_tol=self.fit_grad_tol,
            max_iters=self.fit_max_iters,
            init_theta=self.theta0 if self.start_at_truth else None,
        )

    def true_model(self, lambda8: float) -> tuple:
        """(design, theta) of the data-generating model at this coefficient."""
        if lambda8 == 0.0:
            return self.null_design, self.theta0
        lam = np.concatenate([self.theta0.lam, [lambda8]])
        return self.alt_design, Theta(lam=lam, eta=self.theta0.eta)


@dataclass(frozen=True)
class SizePowerCell:
    """Rejection tally for one (sample size, statistic index, coefficient) cell.

    Its fields are the table's CSV columns, in order."""

    N: int
    a: float
    lambda8: float
    rate: float
    rejections: int
    n_effective: int
    fit_failures: int
    infinite_statistics: int
    dof: int  # the plan's, also in a cell where no replication converged
    ci95_lo: float  # Clopper-Pearson interval of the rate
    ci95_hi: float
    dale_pass: bool


@dataclass(frozen=True)
class SizePowerTable:
    """The study's cells: cell ``i`` is position ``i`` of the plan's (N, lambda8, a)
    grid, the index varying fastest; any other cells raise ``DomainError``."""

    plan: SimulationPlan
    cells: tuple

    def __post_init__(self):
        plan = self.plan
        order = [(N, lambda8, a)
                 for N in plan.sample_sizes for lambda8 in plan.lambda8_grid for a in plan.a_values]
        if [(c.N, c.lambda8, c.a) for c in self.cells] != order:
            raise DomainError("the table's cells must be the plan's (N, lambda8, a) grid, in order")

    def rows(self) -> list:
        """The field names of :class:`SizePowerCell`, then each cell's values, ``dale_pass`` as 0/1."""
        header = [f.name for f in fields(SizePowerCell)]
        return [header] + [[*astuple(c)[:-1], int(c.dale_pass)] for c in self.cells]

    def write_csv(self, path) -> None:
        """Write :meth:`rows` as comma-separated lines, floats as ``repr``."""
        with open(path, "w") as fh:
            for row in self.rows():
                fh.write(",".join(_csv_field(v) for v in row) + "\n")


def _csv_field(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


class _Records(NamedTuple):
    """Outcomes of a run of replications, the replication on the last axis.

    ``converged`` has one entry per replication; ``statistic``, ``reject``
    and ``warnings`` (codes of :data:`lcmdiv.inference.WARNINGS`) one row
    per entry of ``plan.a_values``.  A replication whose fit did not
    converge has a NaN statistic, no rejection and no warning.
    """

    converged: np.ndarray
    statistic: np.ndarray
    reject: np.ndarray
    warnings: np.ndarray


def replication_seeds(seed: int, size_idx: int, coef_idx: int, rep: int) -> tuple:
    """The sample ``SeedSequence`` and the integer fit seed of one replication.

    Replication ``rep`` of the grid's (sample size, coefficient) position
    ``(size_idx, coef_idx)`` under master seed ``seed`` spawns both from
    ``SeedSequence(seed, spawn_key=(size_idx, coef_idx, rep))``.
    """
    sample_seq, fit_seq = np.random.SeedSequence(seed, spawn_key=(size_idx, coef_idx, rep)).spawn(2)
    return sample_seq, int(fit_seq.generate_state(1)[0])


def _replicate_chunk(args):
    """Replications ``lo`` up to ``hi`` of the grid's stream, in order, and their wall time.

    Samples each replication of a cell from one manifest of its true model,
    fits the null design to all of them in one :func:`lcmdiv.estimation._fit_batch`
    from the launch points of ``plan.fit_options()`` and each fit seed, every
    coordinate free, and tests the converged fits at every entry of
    ``plan.a_values`` with one :func:`gof_rows` call per index, all at the
    run's ``dof``.  Returns ``(wall seconds, _Records)``.  A fit does not
    depend on the rest of its batch, so neither does its record.
    """
    start = perf_counter()
    plan, dof, lo, hi = args
    tables, n, X0, options = {}, [], [], plan.fit_options()
    for i in range(lo, hi):
        cell, rep = divmod(i, plan.replications)
        size_idx, coef_idx = divmod(cell, len(plan.lambda8_grid))
        if coef_idx not in tables:
            tables[coef_idx] = manifest_distribution(*plan.true_model(plan.lambda8_grid[coef_idx])).p
        sample_seq, fit_seed = replication_seeds(plan.seed, size_idx, coef_idx, rep)
        n.append(_draw(tables[coef_idx], plan.sample_sizes[size_idx], sample_seq))
        X0.append(_initial_points(plan.null_design, options, fit_seed))
    n = np.array(n)
    N = n.sum(axis=1)
    P_hat = n / N[:, None]
    X0 = np.array(X0)
    _, _, converged, _, _, P, _ = _fit_batch(
        plan.null_design, P_hat, float(plan.estimator_a), X0, np.ones_like(X0[:, 0]),
        options.grad_tol, options.max_iters,
    )
    shape = (len(plan.a_values), hi - lo)
    statistic, reject = np.full(shape, math.nan), np.zeros(shape, dtype=bool)
    warnings = np.zeros(shape, dtype=np.int64)
    P_hat, P, N = P_hat[converged], P[converged], N[converged]
    for row, a in enumerate(plan.a_values):
        tests = gof_rows(power(a), P_hat, P, N, dof, plan.alpha)
        statistic[row, converged] = tests.statistic
        reject[row, converged] = tests.reject
        warnings[row, converged] = tests.warnings
    return perf_counter() - start, _Records(converged, statistic, reject, warnings)


def run_simulation(plan: SimulationPlan, n_jobs: int = 1) -> SizePowerTable:
    """Run the full grid of the plan and tally rejection rates.

    ``n_jobs`` > 1 maps the grid's chunks over one pool of processes, opened
    once for the whole run; the output is identical to the serial run.
    ``n_jobs`` below 1 raises :class:`DomainError`.  A cell is tallied when
    its last record arrives and logged at INFO level on the
    ``lcmdiv.montecarlo`` logger with its sample size, coefficient, fit
    failures and wall time: its replications' share of the wall time of
    the chunks that ran them.
    """
    require_integer("n_jobs", n_jobs, 1)
    band = dale_band(plan.alpha)
    design = plan.null_design
    dof = resolve_gof_dof(design, plan.dof_policy)[0]
    rep_bytes = 8 * design.n_patterns * design.m * plan.fit_starts
    cap = max(1, _CHUNK_BYTES // rep_bytes)  # replications per chunk
    R = plan.replications
    total = len(plan.sample_sizes) * len(plan.lambda8_grid) * R
    # The fewest chunks within the budget, rounded up to a multiple of n_jobs.
    chunk = -(-total // (n_jobs * -(-total // (cap * n_jobs))))
    tasks = [(plan, dof, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    grid = [(N, lambda8) for N in plan.sample_sizes for lambda8 in plan.lambda8_grid]
    cells, wall, part = [], 0.0, []  # the open cell's wall time and slices of records
    with ProcessPoolExecutor(max_workers=n_jobs) if n_jobs > 1 else nullcontext() as pool:
        # map yields the chunks in task order, so records arrive in table order.
        results = (map if pool is None else pool.map)(_replicate_chunk, tasks)
        for (_, _, lo, hi), (seconds, records) in zip(tasks, results):
            for c in range(lo // R, (hi - 1) // R + 1):
                start, stop = max(lo, c * R), min(hi, (c + 1) * R)
                wall += seconds * (stop - start) / (hi - lo)
                part.append([field[..., start - lo : stop - lo] for field in records])
                if stop == (c + 1) * R:  # the cell's last slice
                    whole = _Records(*(np.concatenate(f, axis=-1) for f in zip(*part)))
                    cells.extend(_tally(plan, dof, *grid[c], whole, band))
                    _log.info(
                        "cell N=%d lambda8=%r: %d fit failures, %.3f s",
                        *grid[c], cells[-1].fit_failures, wall,
                    )
                    wall, part = 0.0, []
    return SizePowerTable(plan=plan, cells=tuple(cells))


def _tally(plan: SimulationPlan, dof: int, N: int, lambda8: float, records: _Records, band: tuple) -> list:
    """The cells of one (size, coefficient) pair, one per statistic index, from its records."""
    converged = records.converged
    effective = int(np.count_nonzero(converged))
    failures = plan.replications - effective
    cells = []
    for i, a in enumerate(plan.a_values):
        rejections = int(np.count_nonzero(records.reject[i, converged]))
        rate = rejections / effective if effective else math.nan
        lo, hi = _clopper_pearson(rejections, effective)
        cells.append(
            SizePowerCell(
                N=N,
                a=a,
                lambda8=lambda8,
                rate=rate,
                rejections=rejections,
                n_effective=effective,
                fit_failures=failures,
                infinite_statistics=int(np.count_nonzero(records.warnings[i, converged] & _INFINITE)),
                dof=dof,
                ci95_lo=lo,
                ci95_hi=hi,
                dale_pass=bool(effective and band[0] <= rate <= band[1]),
            )
        )
    return cells


# Bytes a chunk's largest kernel array may take.  Per replication that is the
# fit loop's class-pattern tables, 2**k * m float64 for each of the fit's starts.
_CHUNK_BYTES = 4 * 2**20


def emit_power_curves(table: SizePowerTable, out_dir) -> list:
    """Write one delimited file per sample size: coefficient vs rejection rate.

    Columns are the coefficient followed by one rate column per statistic
    index; data for rendering, no rendering here.  Line ``j`` of size ``i``'s
    file holds the rates of the table's (N, lambda8) grid position ``(i, j)``.
    """
    plan = table.plan
    os.makedirs(out_dir, exist_ok=True)
    header = ["lambda8"] + [f"a={_fmt_a(a)}" for a in plan.a_values]
    shape = (len(plan.sample_sizes), len(plan.lambda8_grid), len(plan.a_values))
    # tolist() gives Python floats, whose repr the table's CSV also prints.
    rates = np.array([c.rate for c in table.cells]).reshape(shape).tolist()
    paths = []
    for N, curve in zip(plan.sample_sizes, rates):
        path = os.path.join(out_dir, f"power_N{N}.csv")
        lines = [",".join(header)]
        for lambda8, row in zip(plan.lambda8_grid, curve):
            lines.append(",".join(map(repr, [float(lambda8), *row])))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def _fmt_a(a: float) -> str:
    return f"{a:.6g}"
