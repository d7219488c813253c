"""Convex divergences between finite distributions.

The workhorse is the power family

    phi_a(x) = (x**(a+1) - x - a*(x-1)) / (a*(a+1))    a not in {0, -1}
    phi_0(x) = x*log(x) - x + 1
    phi_-1(x) = -log(x) + x - 1

normalized so that phi_a(1) = 0 and phi_a''(1) = 1 for every ``a``.  The
divergence of an empirical vector ``p`` from a model vector ``q`` is

    D_phi(p, q) = sum_i q_i * phi(p_i / q_i)

i.e. the second argument weights the sum.  With this convention the member
``a = 0`` is the Kullback-Leibler divergence ``sum p_i log(p_i / q_i)``,
``a = 1`` is half the Pearson chi-square discrepancy ``0.5 * sum
(p_i - q_i)**2 / q_i``, and ``a = -1`` is the reversed Kullback-Leibler
divergence, which is infinite whenever ``p`` has an empty cell.

Zero cells follow the limit conventions for convex-function divergences:
terms with ``q_i = 0 = p_i`` contribute nothing, terms with ``q_i = 0 <
p_i`` contribute ``p_i * lim_{x->inf} phi(x)/x``, and terms with ``q_i > 0 =
p_i`` contribute ``q_i * lim_{x->0+} phi(x)``.  Infinite results are
returned as ``math.inf``, never raised: test statistics legitimately diverge
for ``a <= -1`` in the presence of empty cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PhiSpec:
    """A divergence-generating convex function.

    Either a member of the power family (``family="power"`` with index
    ``a``) or a user-supplied triple of callables ``phi, dphi, d2phi``.
    Custom functions must be convex on (0, inf) with ``phi(1) = 0`` and
    ``0 < phi''(1) < inf``; the boundary limits ``phi(0+)`` and
    ``lim phi(x)/x`` may be supplied and are otherwise probed numerically.
    """

    family: str = "power"
    a: Optional[float] = None
    phi: Optional[Callable[[float], float]] = None
    dphi: Optional[Callable[[float], float]] = None
    d2phi: Optional[Callable[[float], float]] = None
    phi_at_zero: Optional[float] = None
    slope_at_inf: Optional[float] = None

    def __post_init__(self):
        if self.family == "power":
            if self.a is None or not np.isfinite(self.a):
                raise DomainError("power family requires a finite index a")
        elif self.family == "custom":
            if self.phi is None or self.dphi is None or self.d2phi is None:
                raise DomainError("custom spec requires phi, dphi and d2phi callables")
        else:
            raise DomainError(f"unknown phi family: {self.family!r}")

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        """phi(x) for scalar or array ``x >= 0`` (limit value at x = 0)."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise DomainError("phi is only defined for x >= 0")
        if self.family != "power":
            out = _map_positive(self.phi, x, self.at_zero())
        elif self.a in (0.0, -1.0):
            out = _power_phi(self.a, x)
        else:
            out = _power_terms(self.a, x)[0]
        return float(out) if out.ndim == 0 else out

    def deriv(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x <= 0):
            raise DomainError("phi' requires x > 0")
        if self.family == "power":
            out = _power_dphi(self.a, x)
        else:
            out = np.vectorize(self.dphi, otypes=[np.float64])(x)
        return float(out) if out.ndim == 0 else out

    def second_deriv(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x <= 0):
            raise DomainError("phi'' requires x > 0")
        if self.family == "power":
            out = np.asarray(x ** (self.a - 1.0))
        else:
            out = np.vectorize(self.d2phi, otypes=[np.float64])(x)
        return float(out) if out.ndim == 0 else out

    def curvature_at_one(self) -> float:
        """phi''(1), the normalizing constant of the test statistics."""
        c = float(self.second_deriv(1.0))
        if not (np.isfinite(c) and c > 0):
            raise DomainError("phi''(1) must be finite and positive")
        return c

    # -- boundary limits ----------------------------------------------------

    def at_zero(self) -> float:
        """lim_{x->0+} phi(x); +inf for power indices a <= -1."""
        if self.family == "power":
            return 1.0 / (self.a + 1.0) if self.a > -1.0 else math.inf
        if self.phi_at_zero is not None:
            return self.phi_at_zero
        return float(self.phi(1e-12))

    def slope_limit(self) -> float:
        """lim_{x->inf} phi(x)/x; +inf for power indices a >= 0."""
        if self.family == "power":
            return math.inf if self.a >= 0.0 else -1.0 / self.a
        if self.slope_at_inf is not None:
            return self.slope_at_inf
        return float(self.phi(1e12) / 1e12)

    def gradient_weight(self, x):
        """phi(x) - x * phi'(x), the cell weight in the objective gradient.

        For the power family this collapses to ``(1 - x**(a+1)) / (a + 1)``
        (``1 - x`` at a = 0, ``-log x`` at a = -1), which is also the correct
        limit at x = 0 for a > -1.
        """
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise DomainError("gradient weight requires x >= 0")
        if self.family != "power":
            out = _map_positive(
                lambda v: self.phi(v) - v * self.dphi(v), x, self.at_zero()
            )
        elif self.a == -1.0:
            out = np.asarray(-_safe_log(x))
        elif self.a == 0.0:
            out = np.asarray(1.0 - x)
        else:
            out = _power_terms(self.a, x)[1]
        return float(out) if out.ndim == 0 else out

    def value_and_gradient_weight(self, x):
        """``(phi(x), phi(x) - x phi'(x))`` on an array ``x >= 0``.

        Equal element for element to :meth:`value` and
        :meth:`gradient_weight`; for a power index outside {0, -1} both come
        from one evaluation of ``x**(a+1)``.
        """
        if self.family != "power" or self.a in (0.0, -1.0):
            return self.value(x), self.gradient_weight(x)
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise DomainError("phi is only defined for x >= 0")
        return _power_terms(self.a, x)


def power(a: float) -> PhiSpec:
    """Power-family member with index ``a``."""
    return PhiSpec(family="power", a=float(a))


def _safe_log(x: np.ndarray) -> np.ndarray:
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.full_like(xv, -math.inf)
    pos = xv > 0
    out[pos] = np.log(xv[pos])
    return out.reshape(()) if scalar else out


def _map_positive(f, x: np.ndarray, zero_value: float) -> np.ndarray:
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.empty_like(xv)
    pos = xv > 0
    if np.any(pos):
        out[pos] = np.vectorize(f, otypes=[np.float64])(xv[pos])
    out[~pos] = zero_value
    return out.reshape(()) if scalar else out


def _power_phi(a: float, x: np.ndarray) -> np.ndarray:
    """phi_a(x) for a in {0, -1}, the two logarithmic members."""
    scalar = x.ndim == 0
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(xv)
    zero = xv == 0.0
    pos = ~zero
    xp = xv[pos]
    if a == 0.0:
        out[pos] = xp * np.log(xp) - xp + 1.0
        out[zero] = 1.0
    else:
        out[pos] = -np.log(xp) + xp - 1.0
        out[zero] = math.inf
    return out.reshape(()) if scalar else out


def _power_terms(a: float, x: np.ndarray) -> tuple:
    """``(phi_a(x), phi_a(x) - x phi_a'(x))`` for ``a`` not in {0, -1}.

    Both come from one ``x**(a+1)``; ``phi_a(0)`` is its limit, and the
    weight's formula is already the limit at x = 0.
    """
    xv = np.atleast_1d(x)
    with np.errstate(divide="ignore"):
        xa1 = xv ** (a + 1.0)
    phi = (xa1 - xv - a * (xv - 1.0)) / (a * (a + 1.0))
    phi[xv == 0.0] = 1.0 / (a + 1.0) if a > -1.0 else math.inf
    return phi.reshape(x.shape), ((1.0 - xa1) / (a + 1.0)).reshape(x.shape)


def _power_dphi(a: float, x: np.ndarray) -> np.ndarray:
    if a == 0.0:
        return np.log(x)
    if a == -1.0:
        return 1.0 - 1.0 / x
    return (x ** a - 1.0) / a


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

    both = (q > 0) & (p > 0)
    q_only = (q > 0) & (p == 0)
    p_only = (q == 0) & (p > 0)

    total = 0.0
    if np.any(both):
        total += float(np.sum(q[both] * spec.value(p[both] / q[both])))
    if np.any(q_only):
        total += float(q[q_only].sum() * spec.at_zero())
    if np.any(p_only):
        total += float(p[p_only].sum() * spec.slope_limit())
    # Tiny negatives can appear from cancellation when p ~= q.
    if -1e-15 < total < 0.0:
        total = 0.0
    return total


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence ``sum p_i log(p_i / q_i)`` (power index 0)."""
    return phi_divergence(p, q, power(0.0))


# ---------------------------------------------------------------------------
# Increasing transforms h with h(0) = 0, used by the transformed statistics.
# ---------------------------------------------------------------------------

_H_TAGS = ("identity", "renyi", "sharma_mittal", "bhattacharyya")


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
        if self.tag not in _H_TAGS:
            raise DomainError(f"unknown h transform: {self.tag!r}")
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
        """h(x) for x >= 0 inside the transform's domain."""
        x = float(x)
        if x < 0:
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

    def deriv_at_zero(self) -> float:
        """h'(0), the scale factor of the transformed statistics."""
        if self.tag == "sharma_mittal":
            return self.a
        return 1.0


def identity_h() -> HSpec:
    return HSpec(tag="identity")
