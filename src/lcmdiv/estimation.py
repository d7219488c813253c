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

Arguments are validated at the public entry points; the optimizer loop runs
on the raw ``(t + u,)`` vector and checks only that it is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.optimize import minimize

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

# scipy's BFGS can stall on "precision loss" short of a tight gtol; a fresh
# restart from the stalled point (identity Hessian) usually finishes the job.
_MAX_RESTARTS = 3


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
    """One optimizer launch; ``evaluations`` counts objective evaluations."""

    start: int
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    evaluations: int


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
    value, grad = _objective(design, counts.p_hat(), spec.a, _vector(design, theta))
    if not math.isfinite(value):
        return math.inf, np.full(design.t + design.u, np.nan)
    return value, grad


def _check_items(design: ModelDesign, counts: ObservedCounts) -> None:
    if counts.k != design.k:
        raise DomainError("counts and design disagree on the number of items")


def _objective(design, p_hat, a, x):
    """``D_phi_a(p_hat, p(x))`` and its gradient at the raw vector ``x``.

    Unchecked but for finiteness of ``x``; an infinite value comes with a
    zero gradient, which is what the optimizer expects.
    """
    if not np.isfinite(x).all():
        raise DomainError("parameter values must be finite")
    p, J = _evaluate(design, x)
    bad = np.inf if np.any((p == 0.0) & (p_hat > 0.0)) else 0.0
    # Cells where p underflowed and the data are empty contribute nothing.
    ratio = np.divide(p_hat, p, out=np.zeros_like(p), where=p > 0.0)
    with np.errstate(over="ignore"):
        phi, weight = _terms(a, ratio)
        value = float(np.sum(p * phi) + bad)
    if not math.isfinite(value):
        return math.inf, np.zeros_like(x)
    return value, weight @ J


def _minimize_one(fun, x0, options: FitOptions):
    x = np.asarray(x0, dtype=np.float64)
    iterations = 0
    evaluations = 1  # the final evaluation below
    res = None
    for _ in range(_MAX_RESTARTS):
        remaining = options.max_iters - iterations
        if remaining <= 0:
            break
        res = minimize(
            fun,
            x,
            jac=True,
            method="BFGS",
            options={"gtol": options.grad_tol, "maxiter": remaining},
        )
        iterations += res.nit
        evaluations += res.nfev
        x = res.x
        gnorm = float(np.max(np.abs(res.jac)))
        if gnorm <= options.grad_tol or res.nit == 0:
            break
    value, grad = fun(x)
    gnorm = float(np.max(np.abs(grad)))
    return x, value, gnorm, iterations, evaluations


def fit(
    design: ModelDesign,
    counts: ObservedCounts,
    spec: PhiSpec,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Minimum divergence estimate of the model parameters.

    Runs ``options.starts`` quasi-Newton searches and keeps the converged
    start with the smallest objective (ties broken by start index, so the
    result is deterministic given the seed).  A result with
    ``converged=False`` carrying every per-start trace is returned when no
    start reaches ``grad_tol``.
    """
    _check_items(design, counts)
    empty = bool(np.any(counts.n == 0))
    if empty and not math.isfinite(spec.at_zero()):
        return _failure_result(
            design,
            counts,
            spec,
            "objective is identically infinite: empty cells and phi(0+) = inf",
        )

    rng = np.random.Generator(np.random.Philox(options.seed))
    dim = design.t + design.u
    inits = []
    if options.init_theta is not None:
        inits.append(_vector(design, options.init_theta))
    while len(inits) < options.starts:
        inits.append(rng.normal(0.0, options.init_scale, size=dim))

    fun = partial(_objective, design, counts.p_hat(), spec.a)
    traces = []
    best = None  # (objective, start index, x)
    for s, x0 in enumerate(inits):
        x, value, gnorm, iters, evals = _minimize_one(fun, x0, options)
        converged = gnorm <= options.grad_tol and math.isfinite(value)
        traces.append(StartTrace(s, value, gnorm, iters, converged, evals))
        if converged and (best is None or value < best[0]):
            best = (value, s, x)

    if best is None:
        return _failure_result(
            design, counts, spec, "no start converged", traces=tuple(traces)
        )

    theta_hat = Theta.from_vector(design, best[2])
    p, J = _evaluate(design, best[2])
    return FitResult(
        theta_hat=theta_hat,
        objective=best[0],
        converged=True,
        traces=tuple(traces),
        latent=latent_params(design, theta_hat),
        manifest=ManifestDistribution(p=p),
        rank=numerical_rank(J),
        spec=spec,
        empty_cells=empty,
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
