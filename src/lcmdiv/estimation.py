"""Minimum divergence estimation for latent class models.

The estimator minimizes ``D_phi(p_hat, p(theta))`` over the unconstrained
``(lam, eta)`` space; the logistic/softmax parametrization removes every
constraint, so a quasi-Newton method with an analytic gradient applies
directly.  Maximum likelihood is the estimator at power index 0.

The gradient of the objective is

    dD/dtheta = sum_nu [phi(r_nu) - r_nu phi'(r_nu)] dp_nu/dtheta,

with ``r_nu = p_hat_nu / p_nu(theta)``: differentiating ``p_nu * phi(r_nu)``
by ``p_nu`` gives ``phi(r_nu) + p_nu phi'(r_nu) * (-r_nu / p_nu)``.  The
closed form of the bracket is written once, in ``divergence._terms`` beside
phi itself, and is checked against finite differences in the test suite
rather than trusted.

The optimizer is one batched BFGS (:func:`_minimize`): every start of a
multi-start fit, and every data set of :func:`fit_many`, is a row of one
array, and rows that converge drop out.  Arguments are validated at the
public entry points; the loop runs on raw ``(b, t + u)`` arrays and checks
only that they are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import PhiSpec, _terms, kl_divergence, power
from .errors import DomainError, NotConvergedError
from .model import (
    LatentParams,
    ManifestDistribution,
    ModelDesign,
    ObservedCounts,
    Theta,
    _evaluate,
    _vector,
    latent_params,
    log_likelihood,
    manifest_distribution,
    numerical_rank,
)

# Outcome of one optimizer launch; ``StartTrace.status`` holds the name.
_STATUSES = ("converged", "max_iters", "line_search", "infinite_objective")
_PENDING = -1
_CONVERGED, _MAX_ITERS, _LINE_SEARCH, _INFINITE = range(4)
# Sufficient-decrease constant of the Armijo line search, and its halvings.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the multi-start quasi-Newton fit.

    ``starts`` counts total optimizer launches; when ``init_theta`` is given
    it is used for the first launch and the remaining ``starts - 1`` draw
    initial points from N(0, init_scale**2).  ``grad_tol`` bounds the
    infinity norm of the gradient at a point accepted as converged.
    """

    starts: int = 20
    init_scale: float = 1.0
    grad_tol: float = 1e-8
    max_iters: int = 500
    seed: int = 0
    init_theta: Optional[Theta] = None

    def __post_init__(self):
        if self.starts < 1:
            raise DomainError("starts must be >= 1")
        if self.init_scale <= 0 or self.grad_tol <= 0 or self.max_iters < 1:
            raise DomainError("tolerances and iteration limits must be positive")


@dataclass(frozen=True)
class StartTrace:
    """One optimizer launch.

    ``evaluations`` counts objective evaluations, ``restarts`` the resets of
    the inverse Hessian to the identity, and ``status`` is one of
    ``converged``, ``max_iters``, ``line_search`` (no decrease found along
    the gradient) or ``infinite_objective`` (the launch point has an
    infinite objective).
    """

    start: int
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    evaluations: int
    status: str
    restarts: int


@dataclass(frozen=True)
class FitResult:
    """Outcome of a (multi-start) minimum divergence fit."""

    theta_hat: Theta
    objective: float
    converged: bool
    traces: tuple
    latent: LatentParams
    manifest: ManifestDistribution
    rank: int
    spec: PhiSpec
    empty_cells: bool
    message: str = ""

    def require_converged(self, what: str = "operation") -> "FitResult":
        if not self.converged:
            raise NotConvergedError(f"{what} requires a converged fit: {self.message}")
        return self


def objective_and_gradient(
    design: ModelDesign, counts: ObservedCounts, spec: PhiSpec, theta: Theta
):
    """Divergence of the data from the model at ``theta``, and its gradient.

    Returns ``(value, grad)`` with ``grad`` of length ``t + u``.  When the
    divergence is infinite (empty cells with a transform that diverges at 0)
    the value is ``inf`` and the gradient entries are NaN.
    """
    _check_items(design, counts)
    value, grad = _objective(design, counts.p_hat()[None], spec.a, _vector(design, theta)[None])
    if not math.isfinite(value[0]):
        return math.inf, np.full(design.t + design.u, np.nan)
    return float(value[0]), grad[0]


def _check_items(design: ModelDesign, counts: ObservedCounts) -> None:
    if counts.k != design.k:
        raise DomainError("counts and design disagree on the number of items")


def _objective(design, P_hat, a, X):
    """``D_phi_a(p_hat, p(x))`` and its gradient for each row of ``X``.

    ``P_hat`` and ``X`` are stacked on a leading batch axis, shapes
    ``(b, 2**k)`` and ``(b, t + u)``; returns values ``(b,)`` and gradients
    ``(b, t + u)``.  Unchecked but for finiteness of ``X``.  A row whose
    value is infinite gets ``inf`` and a zero gradient: a cell where ``p``
    underflowed holds data, or ``p_hat / p`` overflowed and ``_terms`` met
    inf - inf there.  Cells where ``p`` underflowed and the data are empty
    contribute nothing.
    """
    if not np.isfinite(X).all():
        raise DomainError("parameter values must be finite")
    p, J = _evaluate(design, X)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.divide(P_hat, p, out=np.zeros_like(p), where=p > 0.0)
        phi, weight = _terms(a, ratio)
        value = np.sum(p * phi, axis=1)
    infinite = ~np.isfinite(value) | np.any((p == 0.0) & (P_hat > 0.0), axis=1)
    value[infinite] = np.inf
    weight[infinite] = 0.0
    return value, np.matmul(weight[:, None, :], J)[:, 0]


def _minimize(design, P_hat, a, X0, grad_tol, max_iters):
    """Batched BFGS on the objective of each row of ``X0``, rows independent.

    Every row keeps its own inverse Hessian, started at the identity and
    scaled by ``s'y / y'y`` after its first accepted step.  A step is
    accepted by Armijo backtracking that evaluates only the rows still
    searching; the update is skipped where ``s'y <= 0``.  A non-descent
    direction or a failed line search resets the row's inverse Hessian to
    the identity (a restart); a line search that fails along the gradient
    itself ends the row.  Converged rows drop out of the batch.  Since every
    kernel product is stacked on the batch axis, a row's path is the same bit
    for bit whatever else is in the batch.

    ``grad_tol`` and ``max_iters`` hold one value per row.  Returns
    ``(X, value, grad_norm, iterations, evaluations, restarts, status)``, one
    entry per row; ``status`` indexes ``_STATUSES``.
    """
    X = np.array(X0, dtype=np.float64)
    b, dim = X.shape
    f, G = _objective(design, P_hat, a, X)
    evaluations = np.ones(b, dtype=np.int64)
    iterations = np.zeros(b, dtype=np.int64)
    restarts = np.zeros(b, dtype=np.int64)
    H = np.tile(np.eye(dim), (b, 1, 1))
    fresh = np.ones(b, dtype=bool)  # H is the unscaled identity
    gnorm = np.max(np.abs(G), axis=1)
    status = np.full(b, _PENDING)
    status[gnorm <= grad_tol] = _CONVERGED
    status[np.isinf(f)] = _INFINITE

    def reset(rows):
        H[rows] = np.eye(dim)
        fresh[rows] = True
        restarts[rows] += 1

    while True:
        status[(status == _PENDING) & (iterations >= max_iters)] = _MAX_ITERS
        rows = np.flatnonzero(status == _PENDING)
        if rows.size == 0:
            break
        g = G[rows]
        D = -np.matmul(H[rows], g[:, :, None])[:, :, 0]
        slope = np.sum(D * g, axis=1)
        uphill = ~(slope < 0.0)
        if uphill.any():
            reset(rows[uphill])
            D[uphill] = -g[uphill]
            slope[uphill] = -np.sum(g[uphill] ** 2, axis=1)
        # Along the gradient the first trial is a step of length at most one.
        step = np.where(fresh[rows], np.minimum(1.0, 1.0 / np.sqrt(-slope)), 1.0)

        found = np.zeros(rows.size, dtype=bool)
        X_new, f_new, G_new = np.empty_like(g), np.empty(rows.size), np.empty_like(g)
        search = np.arange(rows.size)
        for _ in range(_MAX_BACKTRACKS):
            r = rows[search]
            X_try = X[r] + step[search, None] * D[search]
            f_try, G_try = _objective(design, P_hat[r], a, X_try)
            evaluations[r] += 1
            ok = (f_try < f[r]) & (f_try <= f[r] + _ARMIJO * step[search] * slope[search])
            done = search[ok]
            found[done] = True
            X_new[done], f_new[done], G_new[done] = X_try[ok], f_try[ok], G_try[ok]
            search = search[~ok]
            if search.size == 0:
                break
            step[search] *= 0.5

        failed = rows[~found]
        status[failed[fresh[failed]]] = _LINE_SEARCH
        reset(failed[~fresh[failed]])

        acc = rows[found]
        s = X_new[found] - X[acc]
        y = G_new[found] - G[acc]
        X[acc], f[acc], G[acc] = X_new[found], f_new[found], G_new[found]
        iterations[acc] += 1
        gnorm[acc] = np.max(np.abs(G[acc]), axis=1)
        status[acc[gnorm[acc] <= grad_tol[acc]]] = _CONVERGED

        sy = np.sum(s * y, axis=1)
        curved = sy > 0.0
        acc, s, y, sy = acc[curved], s[curved], y[curved], sy[curved]
        first = fresh[acc]
        H[acc[first]] *= (sy[first] / np.sum(y[first] ** 2, axis=1))[:, None, None]
        fresh[acc] = False
        rho = 1.0 / sy
        Hy = np.matmul(H[acc], y[:, :, None])[:, :, 0]
        coef = (rho + rho * rho * np.sum(y * Hy, axis=1))[:, None, None]
        H[acc] += coef * (s[:, :, None] * s[:, None, :]) - rho[:, None, None] * (
            s[:, :, None] * Hy[:, None, :] + Hy[:, :, None] * s[:, None, :]
        )
    return X, f, gnorm, iterations, evaluations, restarts, status


def _initial_points(design: ModelDesign, options: FitOptions) -> np.ndarray:
    """The ``(starts, t + u)`` launch points: ``init_theta`` first, then draws."""
    rng = np.random.Generator(np.random.Philox(options.seed))
    dim = design.t + design.u
    inits = []
    if options.init_theta is not None:
        inits.append(_vector(design, options.init_theta))
    while len(inits) < options.starts:
        inits.append(rng.normal(0.0, options.init_scale, size=dim))
    return np.array(inits)


def fit(
    design: ModelDesign,
    counts: ObservedCounts,
    spec: PhiSpec,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Minimum divergence estimate of the model parameters.

    Runs ``options.starts`` quasi-Newton searches, as one batch, and keeps
    the converged start with the smallest objective (ties broken by start
    index, so the result is deterministic given the seed).  A result with
    ``converged=False`` carrying every per-start trace is returned when no
    start reaches ``grad_tol``; its message counts the starts by status.
    """
    return fit_many(design, (counts,), spec, (options,))[0]


def fit_many(design: ModelDesign, counts_seq, spec: PhiSpec, options_seq) -> tuple:
    """:func:`fit` of each data set in ``counts_seq`` with its ``options_seq`` entry.

    Every start of every data set is one row of a single batched
    optimization, and a row's path does not depend on the rest of the batch,
    so each result equals the one :func:`fit` returns for that data set
    alone, bit for bit.
    """
    counts_seq, options_seq = tuple(counts_seq), tuple(options_seq)
    if len(counts_seq) != len(options_seq):
        raise DomainError("fit_many needs one FitOptions per data set")
    results = [None] * len(counts_seq)
    launches = {}  # data set -> its (starts, t + u) launch points
    for i, (counts, options) in enumerate(zip(counts_seq, options_seq)):
        _check_items(design, counts)
        if np.any(counts.n == 0) and not math.isfinite(spec.at_zero()):
            results[i] = _failure_result(
                design, counts, spec,
                "objective is identically infinite: empty cells and phi(0+) = inf",
            )
        else:
            launches[i] = _initial_points(design, options)
    if not launches:
        return tuple(results)

    owner = np.repeat(list(launches), [len(X0) for X0 in launches.values()])
    outcome = _minimize(
        design,
        np.array([counts.p_hat() for counts in counts_seq])[owner],
        spec.a,
        np.concatenate(list(launches.values())),
        np.array([options.grad_tol for options in options_seq])[owner],
        np.array([options.max_iters for options in options_seq])[owner],
    )
    lo = 0
    for i, X0 in launches.items():
        rows = slice(lo, lo + len(X0))
        lo = rows.stop
        results[i] = _fit_result(design, counts_seq[i], spec, *(column[rows] for column in outcome))
    return tuple(results)


def _fit_result(design, counts, spec, X, value, gnorm, iterations, evaluations, restarts, status):
    """The :class:`FitResult` of one data set from its rows of :func:`_minimize`."""
    traces = tuple(
        StartTrace(
            start=s,
            objective=float(value[s]),
            grad_norm=float(gnorm[s]),
            iterations=int(iterations[s]),
            converged=bool(status[s] == _CONVERGED),
            evaluations=int(evaluations[s]),
            status=_STATUSES[status[s]],
            restarts=int(restarts[s]),
        )
        for s in range(len(X))
    )
    converged = [tr for tr in traces if tr.converged]
    if not converged:
        tally = ", ".join(
            f"{n} {name}"
            for name in _STATUSES[1:]
            if (n := sum(tr.status == name for tr in traces))
        )
        return _failure_result(
            design, counts, spec, f"no start converged: {tally}", traces=traces
        )
    best = min(converged, key=lambda tr: tr.objective)  # first start among ties
    theta_hat = Theta.from_vector(design, X[best.start])
    p, J = _evaluate(design, X[best.start])
    return FitResult(
        theta_hat=theta_hat,
        objective=best.objective,
        converged=True,
        traces=traces,
        latent=latent_params(design, theta_hat),
        manifest=ManifestDistribution(p=p),
        rank=numerical_rank(J),
        spec=spec,
        empty_cells=bool(np.any(counts.n == 0)),
    )


def _failure_result(design, counts, spec, message, traces=()):
    theta = Theta.zeros(design)
    return FitResult(
        theta_hat=theta,
        objective=math.inf,
        converged=False,
        traces=traces,
        latent=latent_params(design, theta),
        manifest=manifest_distribution(design, theta),
        rank=0,
        spec=spec,
        empty_cells=bool(np.any(counts.n == 0)),
        message=message,
    )


def fit_mle(
    design: ModelDesign, counts: ObservedCounts, options: FitOptions = FitOptions()
) -> FitResult:
    """Maximum likelihood fit: the minimum divergence fit at power index 0.

    Cross-checks that ``logL(theta_hat) + N * D_KL(p_hat, p(theta_hat))``
    equals the theta-free multinomial constant.
    """
    result = fit(design, counts, power(0.0), options)
    if result.converged:
        const = _multinomial_constant(counts)
        logl = log_likelihood(counts, result.manifest)
        resid = logl + counts.N * kl_divergence(counts.p_hat(), result.manifest.p) - const
        if abs(resid) > 1e-6:
            raise NotConvergedError(
                f"likelihood/divergence identity violated by {resid:.3e}"
            )
    return result


def _multinomial_constant(counts: ObservedCounts) -> float:
    from scipy.special import gammaln

    n = counts.n
    pos = n > 0
    return float(
        gammaln(counts.N + 1)
        - gammaln(n + 1).sum()
        + (n[pos] * np.log(n[pos] / counts.N)).sum()
    )


def canonical_class_order(latent: LatentParams) -> np.ndarray:
    """Class permutation sorting by weight, then first-item probability, descending.

    Only used to compare fits across label-switched solutions; fits
    themselves are returned un-permuted.
    """
    order = np.lexsort((-latent.P[:, 0], -latent.w))
    return order


def canonicalize(latent: LatentParams) -> LatentParams:
    order = canonical_class_order(latent)
    return LatentParams(w=latent.w[order], P=latent.P[order])
