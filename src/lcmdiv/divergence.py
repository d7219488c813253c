"""Convex divergences between finite distributions.

Every divergence here is generated by a Cressie-Read power function

    phi_a(x) = (x**(a+1) - x - a*(x-1)) / (a*(a+1))    a not in {0, -1}
    phi_0(x) = x*log(x) - x + 1
    phi_-1(x) = -log(x) + x - 1

normalized so that phi_a(1) = 0 and phi_a''(1) = 1 for every ``a`` (so the
test statistics carry no curvature factor).  These formulas, and the
gradient weight ``phi(x) - x phi'(x)``, are written once, in ``_terms``.
The divergence of an empirical vector ``p`` from a model vector ``q`` is

    D_phi(p, q) = sum_i q_i * phi(p_i / q_i)

i.e. the second argument weights the sum.  With this convention the member
``a = 0`` is the Kullback-Leibler divergence ``sum p_i log(p_i / q_i)``,
``a = 1`` is half the Pearson chi-square discrepancy ``0.5 * sum
(p_i - q_i)**2 / q_i``, and ``a = -1`` is the reversed Kullback-Leibler
divergence, which is infinite whenever ``p`` has an empty cell.

That sum is written once too, in ``_divergence``, which returns it with the
cell weights and the lost cells, those where data meet a model cell that is 0
or so small that ``p / q`` overflows; it finds them in its one division.  The
estimator's objective calls it on stacked rows, unchecked, and
``_phi_divergence`` adds the lost cells' limits to it, on stacked rows only.
``phi_divergence`` checks its two vectors and reads row 0 of
``_phi_divergence`` on their one-row batch; the test statistics call
``_phi_divergence`` directly on rows their dataclasses already validated.
So a fit's objective is the divergence its tests measure, bit for bit, except
on a row with a lost cell: there the objective is ``inf`` at every index,
while for ``a < 0`` ``_phi_divergence`` takes the cell's finite limit.

Zero cells follow the limit conventions for convex-function divergences:
terms with ``q_i = 0 = p_i`` contribute nothing, terms with ``q_i = 0 <
p_i`` contribute ``p_i * lim_{x->inf} phi(x)/x``, and terms with ``q_i > 0 =
p_i`` contribute ``q_i * lim_{x->0+} phi(x)``.  A term whose ``q_i > 0`` is
so small that ``p_i / q_i`` overflows takes the ``q_i = 0`` limit.  Infinite
results are returned as ``math.inf``, never raised: test statistics
legitimately diverge for ``a <= -1`` in the presence of empty cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PhiSpec:
    """The power-divergence member ``phi_a`` with a finite index ``a``."""

    a: float

    def __post_init__(self):
        if self.a is None or not np.isfinite(self.a):
            raise DomainError("phi_a requires a finite index a")

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        """phi(x) for scalar or array finite ``x >= 0`` (limit value at x = 0)."""
        x = np.asarray(x, dtype=np.float64)
        if not np.all((0.0 <= x) & (x < math.inf)):
            raise DomainError("phi is only defined for finite x >= 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = _terms(self.a, np.atleast_1d(x))[0]
        return float(phi[0]) if x.ndim == 0 else phi.reshape(x.shape)

    # -- boundary limits ----------------------------------------------------

    def slope_limit(self) -> float:
        """lim_{x->inf} phi(x)/x; +inf for power indices a >= 0."""
        return math.inf if self.a >= 0.0 else -1.0 / self.a


def power(a: float) -> PhiSpec:
    """The power divergence ``phi_a`` with index ``a``."""
    return PhiSpec(a=float(a))


def _terms(a: float, x: np.ndarray) -> tuple:
    """``(phi_a(x), phi_a(x) - x phi_a'(x))`` on a vector ``x >= 0``, unchecked.

    Outside a in {0, -1} both come from one ``x**(a+1)``, and the weight's
    formula is already its limit at x = 0; ``phi_a(0)`` is set to its limit.
    The caller ignores the divide and invalid floating-point warnings of
    ``0**(a+1)`` and ``0 * log 0``.
    """
    zero = x == 0.0
    if a in (0.0, -1.0):
        log_x = np.full_like(x, -math.inf)
        log_x[~zero] = np.log(x[~zero])
        phi = x * log_x - x + 1.0 if a == 0.0 else -log_x + x - 1.0  # 0 * log 0 overwritten below
        weight = 1.0 - x if a == 0.0 else -log_x
    else:
        xa1 = x ** (a + 1.0)
        phi = (xa1 - x - a * (x - 1.0)) / (a * (a + 1.0))
        weight = (1.0 - xa1) / (a + 1.0)
    if zero.any():
        phi[zero] = 1.0 / (a + 1.0) if a > -1.0 else math.inf
    return phi, weight


def _divergence(a: float, P: np.ndarray, Q: np.ndarray) -> tuple:
    """``(sum Q phi_a(P / Q), weight, lost)`` along the last axis; unchecked.

    ``lost`` marks the cells where ``P / Q`` is ``inf``: data in a model cell
    that is 0 or too small for the ratio.  Those cells and the ``0 / 0`` ones
    take the ratio 1, where phi and its weight are exactly 0, so they
    contribute nothing: the caller decides what a lost cell means.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = P / Q
        lost = ratio == math.inf
        ratio[~(ratio < math.inf)] = 1.0  # lost and 0 / 0 cells
        phi, weight = _terms(a, ratio)
        return (Q * phi).sum(axis=-1), weight, lost


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise DomainError(f"{name} must be a vector")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise DomainError(f"{name} must have finite nonnegative entries")
    if abs(float(p.sum()) - 1.0) > _SUM_TOL:
        raise DomainError(f"{name} must sum to 1 within {_SUM_TOL}")
    return p


def phi_divergence(p, q, spec: PhiSpec) -> float:
    """Divergence ``sum_i q_i phi(p_i / q_i)`` of ``p`` from ``q``.

    Parameters
    ----------
    p : array
        Probability vector, typically the empirical distribution.
    q : array
        Probability vector weighting the sum, typically the model.
    spec : PhiSpec

    Returns a nonnegative float, possibly ``inf`` (see module docstring for
    the zero-cell conventions).
    """
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.shape != q.shape:
        raise DomainError("p and q must have equal length")
    return float(_phi_divergence(spec, p[None], q[None])[0])


def _phi_divergence(spec: PhiSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """:func:`phi_divergence` of each row of ``P`` from the same row of ``Q``, unchecked.

    Takes rows only, two float arrays of shape ``(b, 2**k)``, and returns
    the ``b`` divergences, each row's bits those of the row alone.  Each lost
    cell of :func:`_divergence` adds ``p * lim phi(x)/x``.  For callers whose
    rows are already validated, such as the test statistics, which take them
    from ``ObservedCounts`` and a fit's ``ManifestDistribution``.
    """
    total, _, lost = _divergence(spec.a, P, Q)
    for row in np.flatnonzero(lost.any(axis=1)):
        total[row] += P[row][lost[row]].sum() * spec.slope_limit()
    # Tiny negatives can appear from cancellation when p ~= q.
    total[(-1e-15 < total) & (total < 0.0)] = 0.0
    return total


# ---------------------------------------------------------------------------
# Increasing transforms h with h(0) = 0, used by the transformed statistics.
# ---------------------------------------------------------------------------

# Each transform with the indices it takes.
_H_INDICES = {"identity": (), "renyi": ("a",), "sharma_mittal": ("a", "b"), "bhattacharyya": ()}


@dataclass(frozen=True)
class HSpec:
    """A smooth increasing transform of a divergence value.

    tag:
        ``identity``        h(x) = x
        ``renyi``           h(x) = log(a*(a-1)*x + 1) / (a*(a-1)),  a not in {0, 1}
        ``sharma_mittal``   h(x) = ((1 + a*(a-1)*x)**((b-1)/(a-1)) - 1) / (b - 1)
        ``bhattacharyya``   h(x) = -log(1 - x),  x < 1
    """

    tag: str = "identity"
    a: Optional[float] = None
    b: Optional[float] = None

    def __post_init__(self):
        if self.tag not in _H_INDICES:
            raise DomainError(f"unknown h transform: {self.tag!r}")
        for key in ("a", "b"):
            index = getattr(self, key)
            if index is not None and key not in _H_INDICES[self.tag]:
                raise DomainError(f"the {self.tag} transform takes no index {key}")
            if index is not None and not math.isfinite(index):
                raise DomainError(f"the {self.tag} transform requires a finite index {key}")
        if self.tag == "renyi":
            if self.a is None or self.a in (0.0, 1.0):
                raise DomainError("renyi requires an index a outside {0, 1}")
        if self.tag == "sharma_mittal":
            if self.a is None or self.b is None:
                raise DomainError("sharma_mittal requires indices a and b")
            if self.a in (0.0, 1.0) or self.b == 1.0:
                raise DomainError("sharma_mittal requires a outside {0, 1} and b != 1")
            if self.a <= 0.0:
                # h'(0) equals a here, and the transform must be increasing at 0.
                raise DomainError("sharma_mittal requires a > 0")

    def value(self, x: float) -> float:
        """h(x) for x >= 0 inside the transform's domain; ``x = inf`` gives the
        limit of ``h``, finite (``1 / (1 - b)``) for sharma_mittal with ``a > 1 > b``."""
        x = float(x)
        if not x >= 0.0:  # NaN fails it too
            raise DomainError("h transforms are defined for x >= 0")
        if self.tag == "identity":
            return x
        if self.tag == "bhattacharyya":
            if x >= 1.0:
                raise DomainError("bhattacharyya transform requires x < 1")
            return -math.log1p(-x)
        c = self.a * (self.a - 1.0)
        inner = 1.0 + c * x
        if inner <= 0.0:
            raise DomainError(f"{self.tag} transform undefined at x = {x}")
        if self.tag == "renyi":
            return math.log(inner) / c
        return (inner ** ((self.b - 1.0) / (self.a - 1.0)) - 1.0) / (self.b - 1.0)

    def slope_at_zero(self) -> float:
        """h'(0), the scale factor of the transformed statistics."""
        if self.tag == "sharma_mittal":
            return self.a
        return 1.0


def identity_h() -> HSpec:
    return HSpec(tag="identity")
