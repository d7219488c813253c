"""Goodness-of-fit and nested-model tests built on divergence statistics.

Statistic families
------------------
Goodness of fit of a fitted model against the empirical distribution:

    T = (2N / phi1''(1)) * D_phi1(p_hat, p(theta_hat))

with an optional increasing transform ``h`` applied to the divergence and a
matching ``1 / h'(0)`` factor.  The estimate ``theta_hat`` may come from any
power index, not only maximum likelihood (index 0); under the model
the statistic is asymptotically chi-square with ``2**k - r - 1`` degrees of
freedom, ``r`` the number of identifiable parameters.

A model B nested in A (some coordinates fixed to zero, a
:class:`lcmdiv.model.NestedChain` of one step) is tested with either

    S = (2N / phi1''(1)) * [D_phi1(p_hat, p(B)) - D_phi1(p_hat, p(A))]
    T = (2N / phi1''(1)) * D_phi1(p(A), p(B))

both asymptotically chi-square with ``h1 - h2`` degrees of freedom (the
difference in free-parameter counts).  Like :func:`gof_statistic`, the
nested tests take fits made beforehand: fit A and B with one estimator, as
:func:`lcmdiv.estimation.fit_chain` fits every model of a chain in one
batch, then test the two fits with :func:`nested_S` or :func:`nested_T`.  The S
difference is oriented B-minus-A so that the classical likelihood-ratio
case (both transforms at power index 0) is nonnegative.  With unequal
estimation and testing transforms S can come out negative; it is returned
raw with a warning flag, never clamped.

Decision rule
-------------
Every test is decided by one rule on stacked rows at one dof: reject when
the statistic exceeds the chi-square critical value, with p-value the
chi-square upper tail; at dof <= 0 the null is a point mass at zero.
:func:`gof_rows` applies it to many fits at once, and
:func:`gof_statistic`, :func:`nested_S` and :func:`nested_T` to one row.

Degrees-of-freedom policy
-------------------------
The default "rank" policy takes ``r`` as the design's generic rank
(:attr:`lcmdiv.model.ModelDesign.generic_rank`), which absorbs the
one-dimensional softmax redundancy that identity-style weight loadings
carry.  It is a property of the model, not of the estimate, so every test
of one design has one dof.  The "nominal" policy uses the literal parameter
count ``t + u``; an explicit override is also accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import chdtrc, chdtri

from .divergence import HSpec, PhiSpec, _phi_divergence, identity_h, power
from .errors import DomainError, require_integer
from .estimation import FitOptions, FitResult, fit, fit_chain
from .model import ModelDesign, NestedChain, ObservedCounts


def chi2_quantile(q: float, dof: int) -> float:
    """Value ``x`` with ``P(X <= x) = q`` under the chi-square distribution with ``dof`` dof."""
    if not 0.0 < q < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    if dof < 1:
        raise DomainError("dof must be >= 1")
    return float(chdtri(dof, 1.0 - q))


@dataclass(frozen=True)
class TestResult:
    """A single test decision with its provenance.

    ``reject`` is computed from the critical value; ``p_value`` gives the
    same decision by construction (both routes are derived from the same
    survival function).  ``warnings`` may carry ``negative_statistic``,
    ``infinite_statistic`` or ``undefined_statistic`` flags; an undefined
    (NaN) statistic has a NaN ``p_value`` and never rejects.
    ``infinite_divergence`` marks a finite statistic that a bounded ``h``
    took from an infinite divergence.
    """

    statistic: float
    dof: int
    p_value: float
    alpha: float
    reject: bool
    critical: float
    phi1: PhiSpec
    phi2: Optional[PhiSpec] = None
    h: Optional[HSpec] = None
    kind: str = "gof"
    dof_policy: str = "rank"
    warnings: tuple = ()


# Warning flags of a test, in the order a TestResult lists them; bit i of a
# stacked warning code is WARNINGS[i].
WARNINGS = ("undefined_statistic", "infinite_statistic", "negative_statistic", "infinite_divergence")
_WARNING_NAMES = tuple(
    tuple(name for i, name in enumerate(WARNINGS) if code >> i & 1) for code in range(1 << len(WARNINGS))
)


class Decisions(NamedTuple):
    """Stacked test decisions, one entry per row, all at one critical value.

    ``warnings`` holds integer codes, bit ``i`` set for ``WARNINGS[i]``.
    """

    statistic: np.ndarray
    p_value: np.ndarray
    reject: np.ndarray
    critical: float
    warnings: np.ndarray


def _rule(statistic, dof: int, alpha: float, finite) -> Decisions:
    """The decision rule of every test, on stacked rows at one ``dof``.

    ``statistic`` and ``finite`` hold one float and one bool per row;
    ``finite`` marks rows whose divergences are all finite.  A NaN statistic
    is undefined and never rejects.  With ``dof <= 0`` the null is
    degenerate, a point mass at zero.  Otherwise a statistic is compared
    with the chi-square critical value, so an infinite one rejects.
    """
    s = np.asarray(statistic, dtype=np.float64)
    undefined = np.isnan(s)
    if dof > 0:
        critical = chi2_quantile(1.0 - alpha, dof)
        p_value = chdtrc(dof, np.maximum(s, 0.0))
        reject = s > critical
    else:
        critical = 0.0
        reject = s > 1e-12
        p_value = np.where(undefined, np.nan, np.where(reject, 0.0, 1.0))
    flags = (undefined, np.isinf(s) & (dof > 0), s < 0, np.isfinite(s) & ~np.asarray(finite, dtype=bool))
    codes = np.zeros(s.shape, dtype=np.int64)
    for bit, flag in enumerate(flags):  # in WARNINGS order
        codes |= flag << bit
    return Decisions(s, p_value, reject, critical, codes)


def _result(rows: Decisions, dof, alpha, phi1, phi2, h, kind, dof_policy) -> TestResult:
    """The first row of ``rows`` as a TestResult."""
    return TestResult(
        statistic=float(rows.statistic[0]),
        dof=int(dof),
        p_value=float(rows.p_value[0]),
        alpha=float(alpha),
        reject=bool(rows.reject[0]),
        critical=rows.critical,
        phi1=phi1,
        phi2=phi2,
        h=h,
        kind=kind,
        dof_policy=dof_policy,
        warnings=_WARNING_NAMES[rows.warnings[0]],
    )


# The dof policies of resolve_gof_dof: the generic Jacobian rank, or the literal parameter count.
DOF_POLICIES = ("rank", "nominal")


def resolve_gof_dof(
    design: ModelDesign, policy: str = "rank", override: Optional[int] = None
) -> tuple[int, str]:
    """Degrees of freedom of the design's goodness-of-fit tests, with the policy label."""
    if override is not None:
        require_integer("dof override", override, 1)
        return int(override), f"override:{int(override)}"
    if policy not in DOF_POLICIES:
        raise DomainError(f"unknown dof policy: {policy!r}")
    return design.n_patterns - (design.generic_rank if policy == "rank" else design.n_params) - 1, policy


def gof_statistic(
    design: ModelDesign,
    counts: ObservedCounts,
    phi1: PhiSpec,
    fit2: FitResult,
    alpha: float = 0.05,
    dof_policy: str = "rank",
    dof_override: Optional[int] = None,
    h: HSpec = identity_h(),
) -> TestResult:
    """Goodness-of-fit statistic ``2N h(D) / (phi1''(1) h'(0))`` of the fitted model.

    ``D`` is the phi1-divergence of the empirical distribution from the fit,
    and the test is at level ``alpha``.  An infinite ``D`` takes the limit
    of ``h`` at infinity, which may be finite.  Raises ``DomainError`` when
    ``D`` falls outside the domain of ``h`` (e.g. the bhattacharyya transform
    needs D < 1).  This is :func:`gof_rows` on one row.
    """
    fit2.require_converged("goodness-of-fit statistic")
    _check_cells(counts, fit2)
    dof, policy = resolve_gof_dof(design, dof_policy, dof_override)
    rows = gof_rows(phi1, counts.p_hat()[None], fit2.manifest.p[None], [counts.N], dof, alpha, h)
    return _result(rows, dof, alpha, phi1, fit2.spec, *_h_label(h, "gof"), policy)


def gof_rows(
    phi1: PhiSpec, P_hat, P, N, dof: int, alpha: float = 0.05, h: HSpec = identity_h()
) -> Decisions:
    """Goodness-of-fit tests of stacked fits, one per row, as :func:`gof_statistic` makes them.

    ``P_hat`` and ``P`` hold empirical and fitted distributions as rows of
    shape ``(n, 2**k)``, already validated (``ObservedCounts`` and a
    converged fit's ``ManifestDistribution``); ``N`` holds each row's sample
    size, and every row is tested at the one ``dof``.  Each row's statistic
    and decision are bit for bit those of :func:`gof_statistic` on that row
    alone.  Raises ``DomainError`` when a row's divergence falls
    outside the domain of ``h``.
    """
    D = _phi_divergence(phi1, P_hat, P)
    # h by value: its domain error and its limit at infinity are per divergence.
    statistic = _scale(N, h) * np.array([h.value(d) for d in D.tolist()], dtype=np.float64)
    return _rule(statistic, int(dof), alpha, np.isfinite(D))


def _check_cells(counts: ObservedCounts, *fits: FitResult) -> None:
    """Refuse a fit whose manifest length differs from the counts'.

    The statistics' only check on their vectors: ``ObservedCounts`` and
    ``ManifestDistribution`` validated the entries when they were built.
    """
    if any(counts.n.shape != result.manifest.p.shape for result in fits):
        raise DomainError("counts and fitted distribution have different lengths")


def estimator_sweep(
    design: ModelDesign,
    counts: ObservedCounts,
    a_values,
    anchor: FitResult,
    seed: int = 0,
) -> list:
    """Minimum phi_a-divergence fits for each power index ``a`` in ``a_values``.

    Every fit is warm-started from ``anchor``: five launches, the first at
    ``anchor.theta_hat``.  Where ``a`` is the anchor's own index the anchor
    is reused rather than refitted.  Evaluating one statistic over these fits
    gives a row ``T^{phi_1}(theta_hat_{phi_a})`` with the estimator swept.
    """
    warm = FitOptions(starts=5, seed=seed, init_theta=anchor.theta_hat)
    return [
        anchor if a == anchor.spec.a else fit(design, counts, power(a), warm)
        for a in a_values
    ]


def _scale(N, h: HSpec):
    """``2N / h'(0)``, on a sample size or an array of them.

    Every power member has phi''(1) = 1, so only h'(0) scales the statistic.
    """
    return 2.0 * np.asarray(N, dtype=np.float64) / h.slope_at_zero()


def _h_label(h: HSpec, kind: str) -> tuple:
    """``(h, kind)`` as a TestResult records them; the identity is not recorded."""
    if h.tag == "identity":
        return None, kind
    return h, f"{kind}_h"


# ---------------------------------------------------------------------------
# Nested models
# ---------------------------------------------------------------------------


def nested_S(
    counts: ObservedCounts,
    phi1: PhiSpec,
    fit_A: FitResult,
    fit_B: FitResult,
    alpha: float = 0.05,
    h: HSpec = identity_h(),
) -> TestResult:
    """Divergence-difference statistic for the fit of B nested in the fit of A.

    Both fits come from the same estimator; the test has ``h1 - h2`` degrees
    of freedom.  Equals the classical likelihood-ratio statistic ``G2`` when
    both transforms are the power member at 0 and ``h`` is the identity.
    """
    return _nested(True, "nested_S", counts, phi1, fit_A, fit_B, alpha, h)


def nested_T(
    counts: ObservedCounts,
    phi1: PhiSpec,
    fit_A: FitResult,
    fit_B: FitResult,
    alpha: float = 0.05,
    h: HSpec = identity_h(),
) -> TestResult:
    """Between-fits divergence statistic for B nested in A (always >= 0).

    Takes the same arguments and makes the same checks as :func:`nested_S`.
    """
    return _nested(False, "nested_T", counts, phi1, fit_A, fit_B, alpha, h)


def _nested(difference, kind, counts, phi1, fit_A, fit_B, alpha, h) -> TestResult:
    """S (``difference``) or T of the fits, at ``h1 - h2`` degrees of freedom, reported as ``kind``."""
    fit_A.require_converged("nested test", "model A")
    fit_B.require_converged("nested test", "model B")
    _check_cells(counts, fit_A, fit_B)
    if fit_A.spec != fit_B.spec:
        raise DomainError("the nested fits must use the same estimator")
    dof = fit_A.theta_hat.vector().size - fit_B.theta_hat.vector().size
    if dof < 0:
        raise DomainError("the nested model B has more parameters than model A")
    if difference:
        D_A, D_B = _phi_divergence(
            phi1, np.tile(counts.p_hat(), (2, 1)), np.stack([fit_A.manifest.p, fit_B.manifest.p])
        ).tolist()
        # An infinite D_A leaves no usable difference; _rule flags the NaN as undefined.
        statistic = _scale(counts.N, h) * (h.value(D_B) - h.value(D_A)) if math.isfinite(D_A) else math.nan
        rows = _rule([statistic], dof, alpha, [math.isfinite(D_A) and math.isfinite(D_B)])
    else:
        rows = gof_rows(phi1, fit_A.manifest.p[None], fit_B.manifest.p[None], [counts.N], dof, alpha, h)
    return _result(rows, dof, alpha, phi1, fit_A.spec, *_h_label(h, kind), "nominal_difference")


# ---------------------------------------------------------------------------
# Sequential selection over a nested chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    selected: int
    tests: tuple
    statistic: str


def sequential_selection(
    chain: NestedChain,
    counts: ObservedCounts,
    phi1: PhiSpec,
    phi2: PhiSpec,
    alpha: float = 0.05,
    statistic: str = "S",
    h: HSpec = identity_h(),
    options: FitOptions = FitOptions(),
) -> SelectionResult:
    """Walk the chain testing each reduction; stop at the first rejection.

    Fits every model of the chain at once (:func:`fit_chain`), then tests
    model ``l+1`` (null) against model ``l`` for l = 1, 2, ...; as long as
    the null is accepted the reduction is adopted.  The models after the
    first rejection are fitted but not tested, and only a tested model must
    have converged.  Returns the last surviving model index and the full
    test trail.  When nothing is rejected the smallest model wins.
    """
    test = {"S": nested_S, "T": nested_T}.get(statistic)
    if test is None:
        raise DomainError("statistic must be 'S' or 'T'")
    fits = fit_chain(chain, counts, phi2, options)
    tests = []
    selected = chain.n_models
    for level in range(1, chain.n_models):
        for model in (level, level + 1):
            fits[model - 1].require_converged(f"nested test of M{level + 1} within M{level}", f"M{model}")
        result = test(counts, phi1, fits[level - 1], fits[level], alpha, h)
        tests.append(result)
        if result.reject:
            selected = level
            break
    return SelectionResult(selected=selected, tests=tuple(tests), statistic=statistic)
