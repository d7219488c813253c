"""Latent class models for binary response patterns.

A model with ``k`` binary items and ``m`` latent classes assigns each class
``j`` a weight ``w_j`` and per-item success probabilities ``p_ji``.  Both are
driven by free parameters through fixed linear-logistic structure matrices:

* item logits: ``logit(p_ji) = sum_r Q[j, i, r] * lambda_r + C[j, i]``
* class log-odds: ``w = softmax(V @ eta + d)``

The induced distribution over the ``2**k`` answer patterns is the quantity
everything else in this package works with.  Pattern ``nu`` (1-based) encodes
the item responses with item 1 as the most significant bit::

    nu = 1 + sum_i y_i * 2**(k - i)

so ``(0,...,0)`` is pattern 1 and ``(1,...,1)`` is pattern ``2**k``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.special import expit, gammaln, log_expit

from .errors import DomainError

# Inverse-CDF sampling materializes the full 2**k cell table.
MAX_ITEMS_FOR_SAMPLING = 20

RANK_RTOL = 1e-8  # relative singular-value cut of numerical_rank


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelDesign:
    """Fixed structure of a linear-logistic latent class model.

    Attributes
    ----------
    Q : array, shape (m, k, t)
        Loadings of the item-logit parameters ``lambda_1..lambda_t``.
    C : array, shape (m, k)
        Fixed item-logit offsets.
    V : array, shape (m, u)
        Loadings of the class-weight parameters ``eta_1..eta_u``.
    d : array, shape (m,)
        Fixed class log-odds offsets.
    """

    Q: np.ndarray
    C: np.ndarray
    V: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _frozen_array(self.Q))
        object.__setattr__(self, "C", _frozen_array(self.C))
        object.__setattr__(self, "V", _frozen_array(self.V))
        object.__setattr__(self, "d", _frozen_array(self.d))
        if self.Q.ndim != 3:
            raise DomainError("Q must have shape (m, k, t)")
        m, k, t = self.Q.shape
        if min(m, k, t) < 1:
            raise DomainError("all design dimensions must be positive")
        if self.C.shape != (m, k):
            raise DomainError(f"C must have shape {(m, k)}, got {self.C.shape}")
        if self.V.ndim != 2 or self.V.shape[0] != m or self.V.shape[1] < 1:
            raise DomainError(f"V must have shape (m={m}, u>=1), got {self.V.shape}")
        if self.d.shape != (m,):
            raise DomainError(f"d must have shape {(m,)}, got {self.d.shape}")
        for name in ("Q", "C", "V", "d"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} contains non-finite entries")

    @property
    def m(self) -> int:
        return self.Q.shape[0]

    @property
    def k(self) -> int:
        return self.Q.shape[1]

    @property
    def t(self) -> int:
        return self.Q.shape[2]

    @property
    def u(self) -> int:
        return self.V.shape[1]

    @property
    def n_patterns(self) -> int:
        return 2 ** self.k

    @property
    def n_params(self) -> int:
        """Nominal free-parameter count ``t + u`` (ignores any softmax redundancy)."""
        return self.t + self.u

    @cached_property
    def _kernel_constants(self) -> tuple:
        """``(Y, Q_flat)`` for :func:`_evaluate`, built on first use.

        ``Y`` is the (2**k, k) pattern matrix as floats (read-only) and
        ``Q_flat`` is ``Q`` reshaped to (m*k, t).
        """
        Y = all_patterns(self.k).astype(np.float64)
        Y.setflags(write=False)
        return Y, self.Q.reshape(self.m * self.k, self.t)

    def __getstate__(self):
        # Pickles carry the design only; derived constants are rebuilt on use.
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Theta:
    """Free parameter point: item-logit part ``lam`` and class-weight part ``eta``."""

    lam: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _frozen_array(np.atleast_1d(self.lam)))
        object.__setattr__(self, "eta", _frozen_array(np.atleast_1d(self.eta)))
        if self.lam.ndim != 1 or self.eta.ndim != 1:
            raise DomainError("lam and eta must be vectors")
        if not (np.all(np.isfinite(self.lam)) and np.all(np.isfinite(self.eta))):
            raise DomainError("parameter values must be finite")

    def vector(self) -> np.ndarray:
        """Concatenated ``(lam, eta)`` in that order."""
        return np.concatenate([self.lam, self.eta])

    @classmethod
    def from_vector(cls, design: ModelDesign, vec) -> "Theta":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (design.t + design.u,):
            raise DomainError(
                f"expected parameter vector of length {design.t + design.u}, got {vec.shape}"
            )
        return cls(lam=vec[: design.t], eta=vec[design.t :])

    @classmethod
    def zeros(cls, design: ModelDesign) -> "Theta":
        return cls(lam=np.zeros(design.t), eta=np.zeros(design.u))

    def check_shape(self, design: ModelDesign) -> None:
        if self.lam.shape != (design.t,) or self.eta.shape != (design.u,):
            raise DomainError(
                f"theta has shapes lam{self.lam.shape}, eta{self.eta.shape}; "
                f"design expects ({design.t},), ({design.u},)"
            )


@dataclass(frozen=True)
class LatentParams:
    """Class weights ``w`` (summing to one) and item probabilities ``P`` in (0, 1).

    For finite parameters both are strictly interior mathematically; in
    float64 the logistic/softmax saturate once a logit passes roughly +-37
    (+-745 for weights), so the validator only rejects values outside
    [0, 1] (NaN included).  Strict interiority at moderate parameters is
    covered by tests.
    """

    w: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen_array(self.w))
        object.__setattr__(self, "P", _frozen_array(self.P))
        if self.w.ndim != 1 or self.P.ndim != 2 or self.P.shape[0] != self.w.shape[0]:
            raise DomainError("w must be length m and P shape (m, k)")
        # Comparisons are written so that NaN fails them.
        if not abs(float(self.w.sum()) - 1.0) <= 1e-12:
            raise DomainError("class weights must sum to 1 within 1e-12")
        if not np.all(self.w >= 0.0):
            raise DomainError("class weights must be finite and nonnegative")
        if not np.all((self.P >= 0.0) & (self.P <= 1.0)):
            raise DomainError("item probabilities must lie in [0, 1]")


def _check_manifest(p: np.ndarray) -> None:
    """Check one manifest vector, or each row of a stack of them."""
    # Comparisons are written so that NaN fails them; the sum then rules out inf.
    if not np.all(p >= 0.0):
        raise DomainError("manifest probabilities must be finite and nonnegative")
    if not np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12):
        raise DomainError("manifest probabilities must sum to 1 within 1e-12")


@dataclass(frozen=True)
class ManifestDistribution:
    """Probability vector over the ``2**k`` answer patterns."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(self.p))
        if self.p.ndim != 1 or self.p.shape[0] < 2 or (self.p.shape[0] & (self.p.shape[0] - 1)):
            raise DomainError("manifest vector length must be a power of two >= 2")
        _check_manifest(self.p)

    @property
    def k(self) -> int:
        return int(self.p.shape[0]).bit_length() - 1


@dataclass(frozen=True)
class ObservedCounts:
    """Pattern frequencies ``n`` with total sample size ``N = sum(n)``."""

    n: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.n)
        if arr.ndim != 1 or arr.shape[0] < 2 or (arr.shape[0] & (arr.shape[0] - 1)):
            raise DomainError("counts vector length must be a power of two >= 2")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(np.asarray(arr, dtype=np.float64))
            if np.any(np.abs(arr - rounded) > 0):
                raise DomainError("counts must be integers")
            arr = rounded.astype(np.int64)
        if np.any(arr < 0):
            raise DomainError("counts must be nonnegative")
        if int(arr.sum()) <= 0:
            raise DomainError("total count must be positive")
        object.__setattr__(self, "n", _frozen_array(arr, dtype=np.int64))

    @property
    def N(self) -> int:
        return int(self.n.sum())

    @property
    def k(self) -> int:
        return int(self.n.shape[0]).bit_length() - 1

    def p_hat(self) -> np.ndarray:
        """Empirical pattern frequencies ``n / N``."""
        return self.n / self.N


def pattern_index(y) -> int:
    """1-based index of a binary response pattern (item 1 most significant)."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size < 1:
        raise DomainError("pattern must be a nonempty vector")
    if not np.all((y == 0) | (y == 1)):
        raise DomainError("pattern entries must be 0 or 1")
    k = y.size
    weights = 2 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return int(1 + (y.astype(np.int64) * weights).sum())


def pattern_vector(nu: int, k: int) -> np.ndarray:
    """Inverse of :func:`pattern_index`: the pattern with 1-based index ``nu``."""
    if not 1 <= nu <= 2 ** k:
        raise DomainError(f"pattern index must be in [1, {2 ** k}]")
    bits = (int(nu) - 1) >> np.arange(k - 1, -1, -1)
    return (bits & 1).astype(np.int64)


def all_patterns(k: int) -> np.ndarray:
    """All ``2**k`` patterns as a (2**k, k) 0/1 matrix, row ``nu - 1`` = pattern ``nu``."""
    if k < 1:
        raise DomainError("k must be positive")
    idx = np.arange(2 ** k, dtype=np.int64)[:, None]
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)[None, :]
    return ((idx >> shifts) & 1).astype(np.int64)


def _softmax(design: ModelDesign, eta: np.ndarray) -> np.ndarray:
    """Class weights of ``eta``, shape (..., u), by a max-shifted softmax per row."""
    z = np.matmul(design.V, eta[..., None])[..., 0] + design.d
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def item_probs(design: ModelDesign, theta: Theta) -> np.ndarray:
    """Per-class item success probabilities, shape (m, k).

    Computed with an overflow-safe logistic, so the output is interior to
    (0, 1) up to floating-point saturation at extreme logits.
    """
    theta.check_shape(design)
    return expit(design.Q @ theta.lam + design.C)


def class_weights(design: ModelDesign, theta: Theta) -> np.ndarray:
    """Class membership probabilities via a max-shifted softmax, shape (m,)."""
    theta.check_shape(design)
    return _softmax(design, theta.eta)


def latent_params(design: ModelDesign, theta: Theta) -> LatentParams:
    return LatentParams(w=class_weights(design, theta), P=item_probs(design, theta))


def _vector(design: ModelDesign, theta: Theta) -> np.ndarray:
    """``theta`` checked against ``design`` and flattened for :func:`_evaluate`."""
    theta.check_shape(design)
    return theta.vector()


def _evaluate(design: ModelDesign, x: np.ndarray, jacobian: bool = True) -> tuple:
    """Manifest vectors ``p`` and Jacobians ``J`` from one class-pattern table per row.

    ``x`` holds raw parameter vectors ``(lam, eta)`` on a leading batch axis,
    shape ``(b, t + u)``, or one vector of shape ``(t + u,)``; the outputs
    carry the same leading axis, ``p`` of shape ``(b, 2**k)`` and ``J`` of
    shape ``(b, 2**k, t + u)``.  Shapes and finiteness are the caller's to
    check (the public views take a validated :class:`Theta`).

    Every product of a row goes through a matmul stacked on the batch axis,
    and every sum runs along a row's own last axis, so a row's bits do not
    depend on what else is in the batch.

    The table is built in log space from the item logits ``S`` and the
    pattern matrix ``Y``::

        log B = log_expit(S) Y' + log_expit(-S) (1 - Y)'

    so a logit that saturates ``expit`` still leaves a positive cell, down to
    the underflow of ``exp`` (a log cell below about -745).  Each row of ``p``
    is checked to be nonnegative and to sum to one within 1e-12, which also
    rules out NaN and inf.
    Returns ``(p, J)``; ``J`` is None when ``jacobian`` is false, which keeps
    sampling at large ``k`` from materializing the (2**k, m*k) residual.
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1:
        p, J = _evaluate(design, X[None], jacobian)
        return p[0], None if J is None else J[0]
    b, t = X.shape[0], design.t
    Y, Q_flat = design._kernel_constants
    w = _softmax(design, X[:, t:])
    S = np.matmul(Q_flat, X[:, :t, None]).reshape(b, design.m, design.k) + design.C
    # Patterns count up in binary, so the rows of 1 - Y are those of Y reversed.
    B = np.exp(log_expit(S) @ Y.T + (log_expit(-S) @ Y.T)[..., ::-1])
    p = np.matmul(w[:, None, :], B)[:, 0]
    _check_manifest(p)
    if not jacobian:
        return p, None

    # d log B[j, nu] / d s_ji = y_nu_i - p_ji, and d s_ji / d lambda_r = Q[j, i, r].
    wB = w[:, :, None] * B
    resid = wB.transpose(0, 2, 1)[..., None] * (Y[None, :, None, :] - expit(S)[:, None])
    J_lam = resid.reshape(b, B.shape[2], -1) @ Q_flat
    # d w_j / d eta_s = w_j (V[j, s] - sum_h w_h V[h, s]).
    mean_V = np.matmul(w[:, None, :], design.V)
    J_eta = np.matmul(B.transpose(0, 2, 1), w[:, :, None] * (design.V - mean_V))
    return p, np.concatenate([J_lam, J_eta], axis=2)


def manifest_distribution(design: ModelDesign, theta: Theta) -> ManifestDistribution:
    """Mixture distribution over answer patterns implied by ``theta``."""
    return ManifestDistribution(p=_evaluate(design, _vector(design, theta), jacobian=False)[0])


def manifest_jacobian(design: ModelDesign, theta: Theta) -> np.ndarray:
    """Partial derivatives of every pattern probability, shape (2**k, t + u).

    Columns are ordered ``(lambda_1..lambda_t, eta_1..eta_u)``.  Each column
    sums to zero because the pattern probabilities sum to one identically.
    """
    return _evaluate(design, _vector(design, theta))[1]


def numerical_rank(A: np.ndarray) -> int:
    """Number of singular values of ``A`` above ``RANK_RTOL`` times the largest."""
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def jacobian_rank(design: ModelDesign, theta: Theta) -> int:
    """Numerical rank of the manifest Jacobian."""
    return numerical_rank(_evaluate(design, _vector(design, theta))[1])


def sample_counts(design: ModelDesign, theta: Theta, N: int, seed) -> ObservedCounts:
    """Draw ``N`` independent pattern observations and tally them.

    Sampling is inverse-CDF over the materialized cell table using a
    counter-based (Philox) generator, so results are reproducible for a fixed
    seed and seeds are cheap to derive for parallel replications.  ``seed``
    may be an integer or a ``numpy.random.SeedSequence``.
    """
    if design.k > MAX_ITEMS_FOR_SAMPLING:
        raise DomainError(f"sampling supports at most k = {MAX_ITEMS_FOR_SAMPLING} items")
    if N < 1:
        raise DomainError("N must be >= 1")
    p = _evaluate(design, _vector(design, theta), jacobian=False)[0]
    rng = np.random.Generator(np.random.Philox(seed))
    cum = np.cumsum(p)
    cum[-1] = max(cum[-1], 1.0)
    cells = np.searchsorted(cum, rng.random(N), side="right")
    cells = np.minimum(cells, p.size - 1)
    return ObservedCounts(n=np.bincount(cells, minlength=p.size))


def log_likelihood(counts: ObservedCounts, dist: ManifestDistribution) -> float:
    """Multinomial log-likelihood of ``counts`` under ``dist``.

    Log-factorials go through log-gamma so large totals do not overflow.
    Returns ``-inf`` when some pattern with a positive count has zero
    probability.
    """
    if counts.n.shape != dist.p.shape:
        raise DomainError("counts and distribution have different lengths")
    n = counts.n
    pos = n > 0
    if np.any(dist.p[pos] <= 0.0):
        return float("-inf")
    const = gammaln(counts.N + 1) - gammaln(n + 1).sum()
    return float(const + (n[pos] * np.log(dist.p[pos])).sum())
