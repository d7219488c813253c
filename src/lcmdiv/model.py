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

One checked routine, ``_table``, builds the class-by-pattern table and the
manifest vector for stacked parameter rows, and takes rows only.  Two
consumers sit on it: ``_jacobian``, behind :func:`manifest_jacobian`, the
ranks and the asymptotic projections, and ``_pullback``, which gives the
fit's gradient ``weight @ J`` without forming ``J`` (the fit builds no
Jacobian).  :func:`manifest_distribution` needs only ``p`` and stops at the
table; :func:`sample_counts` draws from it, and a simulation cell draws
every replication of one model from one such vector.  The views of one
point pass the one-row batch of ``_vector`` and read row 0 at the boundary.

A :class:`NestedChain` is a set of zero masks over one design: each of its
models is the design with some coordinates fixed at zero, and a single
model (no mask) is the chain of length one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.special import expit, log_expit

from .errors import DomainError, require_integer

# Inverse-CDF sampling materializes the full 2**k cell table.
MAX_ITEMS_FOR_SAMPLING = 20

RANK_RTOL = 1e-8  # relative singular-value cut of numerical_rank


_INT64 = np.iinfo(np.int64)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """A read-only C-ordered copy: the kernel's results then depend on the values alone,
    not on the layout of the caller's array."""
    arr = np.array(values, dtype=dtype, order="C")
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
        """``(Y, Q_flat)`` for :func:`_table` and its consumers, built on first use.

        ``Y`` is the (2**k, k) pattern matrix as floats (read-only) and
        ``Q_flat`` is ``Q`` reshaped to (m*k, t).
        """
        Y = all_patterns(self.k).astype(np.float64)
        Y.setflags(write=False)
        return Y, self.Q.reshape(self.m * self.k, self.t)

    @cached_property
    def generic_rank(self) -> int:
        """Identifiable parameter count: the largest Jacobian rank at four fixed-seed points."""
        x = np.random.default_rng(0).standard_normal((4, self.n_params))
        return max(map(numerical_rank, _evaluate(self, x)[1]))

    def __getstate__(self):
        # Pickles carry the design only; derived constants and the rank are rebuilt on use.
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
class NestedChain:
    """A decreasing sequence of models over one base design.

    ``steps`` holds cumulative 0-based ``(zero_lam, zero_eta)`` masks for the
    second, third, ... model: the base design with those coordinates of
    ``lam`` and ``eta`` fixed to zero.  The first model is the unrestricted
    design, and a nested pair (model B in model A) is the chain of one step.
    Each mask names each coordinate at most once, by an integer index,
    leaves at least one ``lam`` and one ``eta`` coordinate free, and
    strictly contains the previous one.
    """

    design: ModelDesign
    steps: tuple

    def __post_init__(self):
        norm = [((), ())]
        for number, step in enumerate(self.steps, 1):
            try:
                zl, ze = (tuple(zeroed) for zeroed in step)
            except (TypeError, ValueError):  # not a pair, or an entry that is not a sequence
                raise DomainError(
                    f"chain step {number} must be a pair (zero_lambda, zero_eta) of index sequences, got {step!r}"
                ) from None
            for zeroed, name in ((zl, "lambda"), (ze, "eta")):
                for i in zeroed:
                    require_integer(f"zeroed {name} index", i)
            zl, ze = tuple(sorted(int(i) for i in zl)), tuple(sorted(int(i) for i in ze))
            for zeroed, size, name in ((zl, self.design.t, "lambda"), (ze, self.design.u, "eta")):
                if len(set(zeroed)) != len(zeroed):
                    raise DomainError("zeroed coordinate indices must be unique")
                if zeroed and not 0 <= zeroed[0] <= zeroed[-1] < size:
                    raise DomainError(f"zeroed {name} index out of range")
                if len(zeroed) == size:
                    raise DomainError(f"cannot zero every {name} coordinate")
            prev_l, prev_e = norm[-1]
            if not (set(prev_l) <= set(zl) and set(prev_e) <= set(ze) and (zl, ze) != norm[-1]):
                raise DomainError("chain masks must strictly grow at every step")
            norm.append((zl, ze))
        object.__setattr__(self, "steps", tuple(norm[1:]))

    @property
    def n_models(self) -> int:
        return len(self.steps) + 1

    def mask(self, level: int) -> tuple:
        """Cumulative (zero_lam, zero_eta) of model ``level`` (1-based)."""
        require_integer("model level", level)
        if not 1 <= level <= self.n_models:
            raise DomainError(f"model level must be in [1, {self.n_models}]")
        return ((), ()) if level == 1 else self.steps[level - 2]

    def free_columns(self, level: int) -> list:
        """Positions of model ``level``'s free coordinates in the base design's ``(lam, eta)``."""
        zl, ze = self.mask(level)
        t = self.design.t
        return [i for i in range(t) if i not in zl] + [t + i for i in range(self.design.u) if i not in ze]

    def model_design(self, level: int) -> ModelDesign:
        """Model ``level`` as a design: the base design's columns of its free coordinates.

        Model 1 is the base design itself, not a re-indexed copy, so its fits keep their bits.
        """
        columns = np.array(self.free_columns(level))  # refuses a level outside the chain
        if level == 1:
            return self.design
        A, t = self.design, self.design.t
        return ModelDesign(Q=A.Q[:, :, columns[columns < t]], C=A.C, V=A.V[:, columns[columns >= t] - t], d=A.d)

    def free_params(self, level: int) -> int:
        return len(self.free_columns(level))


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
    if not (p >= 0.0).all():
        raise DomainError("manifest probabilities must be finite and nonnegative")
    if not (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12).all():
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
            if not (np.abs(arr - rounded) == 0).all():  # NaN and inf fail too
                raise DomainError("counts must be integers")
            arr = rounded
        if (arr < 0).any():
            raise DomainError("counts must be nonnegative")
        top = arr.max()
        if top <= 0:
            raise DomainError("total count must be positive")
        # An int64 sum wraps, so a total that could pass the int64 range is summed exactly.
        if top > _INT64.max // arr.size and (total := sum(map(int, arr.tolist()))) > _INT64.max:
            raise DomainError(f"total count {total} does not fit in a 64-bit integer")
        object.__setattr__(self, "n", _frozen_array(arr, dtype=np.int64))

    @cached_property
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


def all_patterns(k: int) -> np.ndarray:
    """All ``2**k`` patterns as a (2**k, k) 0/1 matrix, row ``nu - 1`` = pattern ``nu``."""
    if k < 1:
        raise DomainError("k must be positive")
    idx = np.arange(2 ** k, dtype=np.int64)[:, None]
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)[None, :]
    return ((idx >> shifts) & 1).astype(np.int64)


def _vector(design: ModelDesign, theta: Theta) -> np.ndarray:
    """``theta`` checked against ``design``, as the one-row batch ``(1, t + u)`` of :func:`_table`."""
    theta.check_shape(design)
    return theta.vector()[None]


def _table(design: ModelDesign, x: np.ndarray) -> tuple:
    """Class weights ``w``, item logits ``S``, class-pattern table ``B`` and manifest ``p``.

    ``x`` holds raw parameter vectors ``(lam, eta)`` as rows only, shape
    ``(b, t + u)``; the outputs carry the same leading axis: ``w`` of shape
    ``(b, m)``, ``S`` of shape ``(b, m, k)``, ``B`` of shape ``(b, m, 2**k)``
    and ``p`` of shape ``(b, 2**k)``.  Shapes and finiteness are the caller's
    to check (the public views take a validated :class:`Theta` and read row 0
    at the boundary).

    Every product of a row goes through a matmul stacked on the batch axis,
    and every sum runs along a row's own last axis, so a row's bits do not
    depend on what else is in the batch.  The same holds for the two
    consumers of the table, :func:`_jacobian` and :func:`_pullback`.

    The table is built in log space from the item logits ``S`` and the
    pattern matrix ``Y``::

        log B = log_expit(S) Y' + log_expit(-S) (1 - Y)'

    so a logit that saturates ``expit`` still leaves a positive cell, down to
    the underflow of ``exp`` (a log cell below about -745).  Each row of ``p``
    is checked to be nonnegative and to sum to one within 1e-12, which also
    rules out NaN and inf.
    """
    X = np.asarray(x, dtype=np.float64)
    b, t = X.shape[0], design.t
    Y, Q_flat = design._kernel_constants
    # Class weights by a max-shifted softmax per row.
    z = np.matmul(design.V, X[:, t:, None])[..., 0] + design.d
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    S = np.matmul(Q_flat, X[:, :t, None]).reshape(b, design.m, design.k) + design.C
    # Patterns count up in binary, so the rows of 1 - Y are those of Y reversed.
    B = np.exp(log_expit(S) @ Y.T + (log_expit(-S) @ Y.T)[..., ::-1])
    p = np.matmul(w[:, None, :], B)[:, 0]
    _check_manifest(p)
    return w, S, B, p


def _jacobian(design: ModelDesign, w, S, B) -> np.ndarray:
    """Jacobians ``dp/d(lam, eta)`` of a batched :func:`_table`, shape ``(b, 2**k, t + u)``.

    Builds a ``(b, 2**k, m, k)`` residual; the fit's gradient, which needs
    only ``weight @ J``, goes through :func:`_pullback` instead.
    """
    Y, Q_flat = design._kernel_constants
    # d log B[j, nu] / d s_ji = y_nu_i - p_ji, and d s_ji / d lambda_r = Q[j, i, r].
    wB = w[:, :, None] * B
    resid = wB.transpose(0, 2, 1)[..., None] * (Y[None, :, None, :] - expit(S)[:, None])
    J_lam = resid.reshape(B.shape[0], B.shape[2], -1) @ Q_flat
    # d w_j / d eta_s = w_j (V[j, s] - sum_h w_h V[h, s]).
    mean_V = np.matmul(w[:, None, :], design.V)
    J_eta = np.matmul(B.transpose(0, 2, 1), w[:, :, None] * (design.V - mean_V))
    return np.concatenate([J_lam, J_eta], axis=2)


def _pullback(design: ModelDesign, w, S, B, weight) -> np.ndarray:
    """``weight @ J`` for each row of a batched :func:`_table`, without forming ``J``.

    ``weight`` has shape ``(b, 2**k)``; returns ``(b, t + u)``.  With ``Bw =
    B @ weight``, one number per class, the chain rule of :func:`_jacobian`
    contracts to::

        g_S   = w * ((B * weight) @ Y - expit(S) * Bw)      # (m, k)
        g_lam = vec(g_S) @ Q_flat
        g_eta = (w * Bw) @ (V - w V)

    so the largest array is the table itself, ``2**k * m`` floats per row.
    """
    Y, Q_flat = design._kernel_constants
    b = B.shape[0]
    Bw = np.matmul(B, weight[:, :, None])
    g_S = w[:, :, None] * (np.matmul(B * weight[:, None, :], Y) - expit(S) * Bw)
    g_lam = np.matmul(g_S.reshape(b, 1, -1), Q_flat)[:, 0]
    mean_V = np.matmul(w[:, None, :], design.V)
    g_eta = np.matmul((w * Bw[..., 0])[:, None, :], design.V - mean_V)[:, 0]
    return np.concatenate([g_lam, g_eta], axis=1)


def _evaluate(design: ModelDesign, x: np.ndarray) -> tuple:
    """Manifest vectors ``p`` and Jacobians ``J`` of the rows ``x``, shaped as in :func:`_table`."""
    w, S, B, p = _table(design, x)
    return p, _jacobian(design, w, S, B)


def manifest_distribution(design: ModelDesign, theta: Theta) -> ManifestDistribution:
    """Mixture distribution over answer patterns implied by ``theta``."""
    return ManifestDistribution(p=_table(design, _vector(design, theta))[3][0])


def manifest_jacobian(design: ModelDesign, theta: Theta) -> np.ndarray:
    """Partial derivatives of every pattern probability, shape (2**k, t + u).

    Columns are ordered ``(lambda_1..lambda_t, eta_1..eta_u)``.  Each column
    sums to zero because the pattern probabilities sum to one identically.
    """
    return _evaluate(design, _vector(design, theta))[1][0]


def numerical_rank(A: np.ndarray) -> int:
    """Number of singular values of the matrix ``A`` above ``RANK_RTOL`` times the largest.

    A zero matrix has rank 0.
    """
    return int(_rank_of(np.linalg.svd(A, compute_uv=False)))


def _rank_of(s: np.ndarray) -> np.ndarray:
    """:func:`numerical_rank` from descending singular values ``s`` (on the last axis)."""
    return np.sum(s > RANK_RTOL * s[..., :1], axis=-1)


def jacobian_rank(design: ModelDesign, theta: Theta) -> int:
    """Numerical rank of the manifest Jacobian."""
    return numerical_rank(_evaluate(design, _vector(design, theta))[1][0])


def sample_counts(design: ModelDesign, theta: Theta, N: int, seed) -> ObservedCounts:
    """Draw ``N`` independent pattern observations and tally them.

    Sampling is inverse-CDF over the materialized cell table using a
    counter-based (Philox) generator, so results are reproducible for a fixed
    seed and seeds are cheap to derive for parallel replications.  ``seed``
    may be an integer >= 0 or a ``numpy.random.SeedSequence``; anything else,
    and an ``N`` that is not an integer >= 1, raises :class:`DomainError`.
    """
    require_integer("N", N, 1)
    if not isinstance(seed, np.random.SeedSequence):
        require_integer("seed", seed, 0)
    if design.k > MAX_ITEMS_FOR_SAMPLING:
        raise DomainError(f"sampling supports at most k = {MAX_ITEMS_FOR_SAMPLING} items")
    return ObservedCounts(n=_draw(manifest_distribution(design, theta).p, N, seed))


def _draw(p: np.ndarray, N: int, seed) -> np.ndarray:
    """The tally of :func:`sample_counts` from the manifest vector ``p``.

    Many draws from one model (the replications of a simulation cell) share
    one ``p``; ``N`` is not checked here.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    cum = np.cumsum(p)
    # Every draw in [0, 1) then lies below cum[-1], so its cell is in range.
    cum[-1] = max(cum[-1], 1.0)
    return np.bincount(np.searchsorted(cum, rng.random(N), side="right"), minlength=p.size)

