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
rather than trusted.  The value, the brackets and the lost cells come
from ``divergence._divergence``, the routine behind ``phi_divergence``, so
a fit's objective is the divergence its tests measure, except on a lost
cell, where data meet a model cell that has underflowed to 0 or is so small
that ``p_hat / p`` overflows: the objective is ``inf`` there, and for
``a < 0`` the divergence takes the cell's finite limit.  The sum over patterns
is the vector-Jacobian product ``weight @ J``, which ``model._pullback``
contracts through the class-pattern table without forming ``J``, so the
estimator never builds a Jacobian.

The optimizer is one batched BFGS (:func:`_minimize`): every start of every
row of :func:`_fit_batch` is a row of one array, and rows that converge drop
out.  The batch takes its launch points as data, from the one producer
:func:`_initial_points`, and a free-coordinate mask per row, so one batch
over a base design also fits its zero-restricted submodels.  The loop runs
on raw ``(b, t + u)`` arrays, checked at the public entry points, and checks
only that they are finite.  After the loop, every row's best start,
converged or not, is evaluated in one kernel call.  :func:`fit_chain` is the
one data-set fit: it fits the models of a ``model.NestedChain`` as rows of
one batch and builds every :class:`FitResult`, and :func:`fit` is the chain
of one model.  The simulation study reads the batch's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import expit

from .divergence import PhiSpec, _divergence
from .errors import DomainError, NotConvergedError, require_integer
from .model import (
    LatentParams,
    ManifestDistribution,
    ModelDesign,
    NestedChain,
    ObservedCounts,
    Theta,
    _pullback,
    _table,
    _vector,
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
        for name, minimum in (("starts", 1), ("max_iters", 1), ("seed", 0)):
            require_integer(name, getattr(self, name), minimum)
        for name in ("init_scale", "grad_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)!r}")


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
    """Outcome of a (multi-start) minimum divergence fit.

    ``theta_hat``, ``objective``, ``latent`` and ``manifest`` describe the
    best start (its Jacobian rank is ``model.jacobian_rank``; the tests take
    the design's ``generic_rank``).  A failed result (``converged=False``)
    reports where its best start stopped, and its ``message`` counts the
    starts by status; when every launch point has an infinite objective
    that is start 0's launch point, with objective ``inf``.
    """

    theta_hat: Theta
    objective: float
    converged: bool
    traces: tuple
    latent: LatentParams
    manifest: ManifestDistribution
    spec: PhiSpec
    empty_cells: bool
    message: str = ""

    def require_converged(self, what: str = "operation", model: str = "") -> "FitResult":
        """This result if it converged, else ``NotConvergedError`` saying that ``what``
        requires a converged fit (of ``model``, when given)."""
        if not self.converged:
            of = f" of {model}" if model else ""
            raise NotConvergedError(f"{what} requires a converged fit{of}: {self.message}")
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
    value, grad = _objective(design, counts.p_hat()[None], spec.a, _vector(design, theta))
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
    ``(b, t + u)``.  The gradient is the pull-back ``weight @ J`` of
    ``model._pullback``, so no Jacobian is formed.  Unchecked but for
    finiteness of ``X``.  A row with a lost cell of ``divergence._divergence``
    (data where ``p`` is 0 or too small for ``p_hat / p``), or whose value is
    infinite, gets ``inf`` and a zero gradient.
    """
    if not np.isfinite(X).all():
        raise DomainError("parameter values must be finite")
    w, S, B, p = _table(design, X)
    value, weight, lost = _divergence(a, P_hat, p)
    infinite = lost.any(axis=1) | ~np.isfinite(value)
    value[infinite] = np.inf
    weight[infinite] = 0.0
    return value, _pullback(design, w, S, B, weight)


def _minimize(design, P_hat, a, X0, free, grad_tol, max_iters):
    """Batched BFGS on the objective of each row of ``X0``, rows independent.

    ``free`` holds a 0/1 float per coordinate of each row, and every gradient
    the loop computes is multiplied by it, so a row minimizes over its free
    coordinates only.  A fixed coordinate that launches at 0 stays exactly
    0: the direction, the step and the gradient change all vanish there, so
    the inverse Hessian never couples it to a free one.  An all-ones row
    keeps its bits, since ``x * 1.0 == x``.

    Every row keeps its own inverse Hessian, started at the identity and
    scaled by ``s'y / y'y`` after its first accepted step.  A step is
    accepted by Armijo backtracking: the first trial is made on every row at
    once, and only the rows that fail it halve their step and try again.  The
    update is skipped where ``s'y <= 0``.  A non-descent direction or a failed
    line search resets the row's inverse Hessian to the identity (a restart);
    a line search that fails along the gradient itself ends the row.

    The loop's state is a working set compacted to the pending rows.  When
    rows leave (converged, ``max_iters`` or ``line_search``) their outputs
    are written back once and every state array is cut to the rows that
    stay, so a pass costs the array work of the rows it carries.  The reset,
    backtracking, scaling and skip branches run only when some row needs
    them; a pass in which every row takes a curved step gathers and scatters
    nothing and updates the inverse Hessians in place.  Since every kernel
    product is stacked on the batch axis and every sum runs along a row's own
    axis, a row's path is the same bit for bit whatever else is in the batch.

    ``grad_tol`` and ``max_iters`` are one value for the whole batch.  Returns
    ``(X, value, grad_norm, iterations, evaluations, restarts, status)``, one
    entry per row; ``status`` indexes ``_STATUSES``.
    """
    X = np.array(X0, dtype=np.float64)
    b, dim = X.shape
    f, G = _objective(design, P_hat, a, X)
    G *= free
    iterations, evaluations, restarts = np.zeros(b, np.int64), np.ones(b, np.int64), np.zeros(b, np.int64)
    # A row's outputs are written here when it leaves; until the first row
    # leaves, the working set is these arrays themselves.
    results = (X, f, G, iterations, evaluations, restarts, np.full(b, _PENDING))
    row = np.arange(b)
    H = np.tile(np.eye(dim), (b, 1, 1))
    fresh = np.ones(b, dtype=bool)  # H is the unscaled identity
    converged = np.max(np.abs(G), axis=1) <= grad_tol
    ended = np.flatnonzero(np.isinf(f))  # relabelled infinite_objective below
    leave = converged.copy()
    leave[ended] = True
    while True:
        if leave.any():
            code = np.where(converged, _CONVERGED, _MAX_ITERS)
            code[ended] = _LINE_SEARCH
            code[np.isinf(f)] = _INFINITE  # only a launch point's value is infinite
            gone, keep = row[leave], ~leave
            for out, value in zip(results, (X, f, G, iterations, evaluations, restarts, code)):
                out[gone] = value[leave]
            row, X, f, G, P_hat, free, H, fresh, iterations, evaluations, restarts = (
                v[keep] for v in (row, X, f, G, P_hat, free, H, fresh, iterations, evaluations, restarts)
            )
            if row.size == 0:
                break
        D = -np.matmul(H, G[:, :, None])[:, :, 0]
        slope = (D * G).sum(axis=1)
        if not (slope < 0.0).all():
            uphill = ~(slope < 0.0)
            H[uphill], fresh[uphill] = np.eye(dim), True
            restarts[uphill] += 1
            D[uphill] = -G[uphill]
            slope[uphill] = -(G[uphill] ** 2).sum(axis=1)
        step = np.ones(row.size)
        if fresh.any():
            # Along the gradient the first trial is a step of length at most one.
            step[fresh] = np.minimum(1.0, 1.0 / np.sqrt(-slope[fresh]))

        X_new = X + step[:, None] * D
        f_new, G_new = _objective(design, P_hat, a, X_new)
        G_new *= free
        evaluations += 1
        found = (f_new < f) & (f_new <= f + _ARMIJO * step * slope)
        search = np.flatnonzero(~found)
        for _ in range(_MAX_BACKTRACKS - 1):
            if search.size == 0:
                break
            step[search] *= 0.5
            X_try = X[search] + step[search, None] * D[search]
            f_try, G_try = _objective(design, P_hat[search], a, X_try)
            G_try *= free[search]
            evaluations[search] += 1
            ok = (f_try < f[search]) & (f_try <= f[search] + _ARMIJO * step[search] * slope[search])
            done = search[ok]
            found[done] = True
            X_new[done], f_new[done], G_new[done] = X_try[ok], f_try[ok], G_try[ok]
            search = search[~ok]

        ended = search[fresh[search]]
        if search.size:
            retry = search[~fresh[search]]
            H[retry], fresh[retry] = np.eye(dim), True
            restarts[retry] += 1
            s, y = X_new[found] - X[found], G_new[found] - G[found]
            X[found], f[found], G[found] = X_new[found], f_new[found], G_new[found]
        else:
            s, y = X_new - X, G_new - G
            X, f, G = X_new, f_new, G_new
        iterations += found
        converged = np.max(np.abs(G), axis=1) <= grad_tol
        leave = converged | (iterations >= max_iters)
        leave[ended] = True

        sy = (s * y).sum(axis=1)
        curved = sy > 0.0
        upd = slice(None)  # every row: H[upd] is a view, updated in place
        if search.size or not curved.all():
            upd = np.flatnonzero(found)[curved]
            s, y, sy = s[curved], y[curved], sy[curved]
        first = fresh[upd]
        if first.any():
            H[upd] *= np.divide(sy, (y**2).sum(axis=1), out=np.ones_like(sy), where=first)[:, None, None]
            fresh[upd] = False
        rho = 1.0 / sy
        Hy = np.matmul(H[upd], y[:, :, None])[:, :, 0]
        coef = (rho + rho * rho * (y * Hy).sum(axis=1))[:, None, None]
        # H += coef s s' - rho (s Hy' + Hy s'), in that order, through two temporaries.
        update = s[:, :, None] * s[:, None, :]
        update *= coef
        cross = s[:, :, None] * Hy[:, None, :]
        cross += Hy[:, :, None] * s[:, None, :]
        cross *= rho[:, None, None]
        update -= cross
        H[upd] += update
    X, f, G, iterations, evaluations, restarts, code = results
    return X, f, np.max(np.abs(G), axis=1), iterations, evaluations, restarts, code


def _initial_points(design: ModelDesign, options: FitOptions, seed: int) -> np.ndarray:
    """The ``(starts, t + u)`` launch points: ``init_theta`` first, then draws.

    The draws come from a fresh ``Generator(Philox(seed))``, built only when
    some start is drawn.
    """
    inits = [] if options.init_theta is None else [_vector(design, options.init_theta)[0]]
    if len(inits) < options.starts:
        rng = np.random.Generator(np.random.Philox(seed))
        while len(inits) < options.starts:
            inits.append(rng.normal(0.0, options.init_scale, size=design.t + design.u))
    return np.array(inits)


def fit(
    design: ModelDesign,
    counts: ObservedCounts,
    spec: PhiSpec,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Minimum divergence estimate of the model parameters: :func:`fit_chain` of the one-model chain.

    Runs ``options.starts`` quasi-Newton searches, as one batch, and keeps
    the converged start with the smallest objective (ties broken by start
    index, so the result is deterministic given the seed).  When no start
    reaches ``grad_tol`` the result has ``converged=False`` and reports the
    start with the smallest objective where it stopped, with every per-start
    trace; its message counts the starts by status.
    """
    return fit_chain(NestedChain(design, ()), counts, spec, options)[0]


def fit_chain(
    chain: NestedChain, counts: ObservedCounts, spec: PhiSpec, options: FitOptions = FitOptions()
) -> list:
    """Minimum divergence fits of every model of ``chain``, one per level.

    The models are rows of one batched fit over ``chain.design``, each
    moving only its free coordinates, so they share the optimizer's passes.
    Model ``level`` launches from the points its own fit draws,
    ``_initial_points(chain.model_design(level), options, options.seed)``,
    placed at ``chain.free_columns(level)`` with its fixed coordinates at 0.
    ``options.init_theta`` is a point of ``chain.design``; each model's first
    launch is its restriction, the point at ``chain.free_columns(level)``.
    Model ``level``'s ``theta_hat`` is read back at those columns, a
    ``Theta`` of ``chain.model_design(level)``.  Model 1 is the fit of
    ``chain.design`` alone.  A reduced model equals its own fit up to
    rounding: the base design's kernel also sums its zero coordinates.
    """
    _check_items(chain.design, counts)
    models = [(chain.model_design(lvl), chain.free_columns(lvl)) for lvl in range(1, chain.n_models + 1)]
    dim = chain.design.t + chain.design.u
    X0, free = np.zeros((len(models), options.starts, dim)), np.zeros((len(models), dim))
    warm = None if options.init_theta is None else _vector(chain.design, options.init_theta)[0]
    for i, (design, columns) in enumerate(models):
        launch = options
        if warm is not None and design is not chain.design:  # model 1 launches from init_theta itself
            launch = replace(options, init_theta=Theta.from_vector(design, warm[columns]))
        X0[i][:, columns] = _initial_points(design, launch, options.seed)
        free[i, columns] = 1.0
    P_hat = np.tile(counts.p_hat(), (len(models), 1))
    X, objective, converged, w, S, p, starts = _fit_batch(
        chain.design, P_hat, spec.a, X0, free, options.grad_tol, options.max_iters
    )
    fits = []
    for i, (design, columns) in enumerate(models):
        value, gnorm, iterations, evaluations, restarts, status = (column[i] for column in starts)
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
            for s in range(options.starts)
        )
        tally = ", ".join(
            f"{n} {name}" for name in _STATUSES[1:] if (n := sum(tr.status == name for tr in traces))
        )
        fits.append(FitResult(
            theta_hat=Theta.from_vector(design, X[i, columns]),
            objective=float(objective[i]),
            converged=bool(converged[i]),
            traces=traces,
            latent=LatentParams(w=w[i], P=expit(S[i])),
            manifest=ManifestDistribution(p=p[i]),
            spec=spec,
            empty_cells=bool(np.any(counts.n == 0)),
            message="" if converged[i] else f"no start converged: {tally}",
        ))
    return fits


def _fit_batch(design, P_hat, a, X0, free, grad_tol, max_iters) -> tuple:
    """The fit of every row of ``P_hat`` at index ``a``, as one batched optimization.

    Row ``i`` of ``P_hat`` (shape ``(rows, 2**k)``) launches from the points
    ``X0[i]`` (``X0`` shaped ``(rows, starts, t + u)``) and moves only the
    coordinates where ``free[i]`` (0/1 floats, shaped ``(rows, t + u)``) is 1;
    a row whose launch points are 0 at its other coordinates is the fit of
    the submodel that fixes them at 0.  A row's path does not
    depend on the rest of the batch, so each row's outputs equal those of a
    batch of that row alone, bit for bit.  A row's result point is its best
    converged start or, when none converged, its best start of all (the
    first start wins ties).  Returns ``(X, value, converged, w, S, p,
    starts)``: per row, the result point, its objective and whether any start
    converged; the kernel's class weights, item logits and manifest
    distribution at the result points, from one kernel call; and ``starts``,
    the per-start outcome ``(value, grad_norm, iterations, evaluations,
    restarts, status)`` of :func:`_minimize`, each ``(rows, starts)``.
    """
    b, n_starts = X0.shape[:2]
    X, *outcome = _minimize(
        design, np.repeat(P_hat, n_starts, axis=0), a, X0.reshape(b * n_starts, -1),
        np.repeat(free, n_starts, axis=0), grad_tol, max_iters,
    )
    starts = tuple(column.reshape(b, n_starts) for column in outcome)
    value, status = starts[0], starts[-1]
    converged_starts = status == _CONVERGED
    converged = converged_starts.any(axis=1)
    # Converged starts first; argmin keeps the first start among ties.
    best = np.argmin(np.where(converged_starts | ~converged[:, None], value, np.inf), axis=1)
    X = X[np.arange(b) * n_starts + best]
    w, S, _, p = _table(design, X)
    return X, value[np.arange(b), best], converged, w, S, p, starts


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
