"""Numerical construction of the projection matrices behind the chi-square limits.

Everything here is a test oracle: the limiting distributions of the test
statistics rest on a handful of matrix identities, and this module builds
the matrices at a given parameter point so the identities can be checked to
floating-point accuracy on concrete designs.

With ``p`` the manifest vector, ``D = diag(p)``, ``J`` the manifest Jacobian
and ``L = D^{-1/2} J``:

* ``R = L (L'L)^{-1} L'`` projects onto the scaled parameter directions;
  it is built as ``U_r U_r'`` from one thin SVD ``L = U S W'``, with ``U_r``
  the left singular vectors of the ``r`` singular values above
  ``RANK_RTOL`` times the largest, so ``L'L``, whose condition is the
  square of ``L``'s, is never formed;
* ``V = D^{1/2} R D^{-1/2}`` conjugates it back to probability space;
* ``Sigma = D - p p'`` is the multinomial covariance;
* ``Q = D^{-1/2} (I - V) Sigma (I - V') D^{-1/2}`` is the covariance of the
  scaled residual ``D^{-1/2}(p_hat - p(theta_hat))``.

``Q`` must be symmetric and idempotent with trace ``2**k - (t + u) - 1`` on a
full-rank design, and the square-root-probability direction is annihilated
by the projections.  The covariance is sandwiched ``(I - V) ... (I - V')``;
writing the first factor transposed as well breaks symmetry and is a known
slip in some derivations.

For a nested pair, the chain of one step, ``R_L`` uses all columns of ``L``
and ``R_M`` only the columns of the coordinates the submodel keeps free; then
``R_L R_M = R_M R_L = R_M``, the traces are the free-parameter counts, and
``R_L - R_M`` is again an orthogonal projection with trace equal to the
test's degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RankDeficiencyError
from .inference import NestedChain
from .model import ModelDesign, Theta, _evaluate, _rank_of, _vector


@dataclass(frozen=True)
class AsymptoticBundle:
    L: np.ndarray
    Vmat: np.ndarray
    Sigma: np.ndarray
    Qmat: np.ndarray
    p: np.ndarray
    rank: int
    gram_condition: float


@dataclass(frozen=True)
class NestedProjections:
    """``h1`` and ``h2`` are the ranks of ``L`` and ``M``: the free-parameter
    counts on a full-rank design, the identifiable ones under a pseudo-inverse."""

    R_L: np.ndarray
    R_M: np.ndarray
    h1: int
    h2: int
    p: np.ndarray


def _scaled_jacobian(design: ModelDesign, theta: Theta) -> tuple:
    """``p`` and ``L = diag(p)^{-1/2} J`` at ``theta``; refuses a cell with ``p <= 0``."""
    p, J = _evaluate(design, _vector(design, theta))
    if np.any(p <= 0):
        raise DomainError("manifest distribution must be strictly positive")
    return p, J / np.sqrt(p)[:, None]


def _projection(L: np.ndarray, pseudo_inverse: bool, what: str) -> tuple:
    """Orthogonal projection onto the column space of L, its rank, and the
    condition of ``L'L`` (inf when the rank is short)."""
    U, s, _ = np.linalg.svd(L, full_matrices=False)
    rank = int(_rank_of(s))
    if rank < L.shape[1] and not pseudo_inverse:
        raise RankDeficiencyError(
            f"{what}: Gram matrix is singular (rank {rank} of {L.shape[1]}); "
            "drop redundant coordinates or pass pseudo_inverse=True",
            rank=rank,
        )
    cond = float((s[0] / s[-1]) ** 2) if rank == L.shape[1] else np.inf
    return U[:, :rank] @ U[:, :rank].T, rank, cond


def build_bundle(
    design: ModelDesign, theta0: Theta, pseudo_inverse: bool = False
) -> AsymptoticBundle:
    """Construct L, V, Sigma and Q at ``theta0``.

    Refuses rank-deficient designs (naming the rank) unless
    ``pseudo_inverse`` is set, in which case the trace of Q reflects the
    identifiable parameter count rather than the nominal one.
    """
    p, L = _scaled_jacobian(design, theta0)
    s = np.sqrt(p)
    R, rank, cond = _projection(L, pseudo_inverse, "asymptotic bundle")

    Vmat = s[:, None] * R / s[None, :]
    Sigma = np.diag(p) - np.outer(p, p)
    I = np.eye(p.size)
    inv_s = 1.0 / s
    Qmat = (inv_s[:, None] * (I - Vmat)) @ Sigma @ ((I - Vmat.T) * inv_s[None, :])
    return AsymptoticBundle(
        L=L, Vmat=Vmat, Sigma=Sigma, Qmat=Qmat, p=p, rank=rank, gram_condition=cond
    )


def build_nested_projections(
    chain: NestedChain, theta0_A: Theta, pseudo_inverse: bool = False
) -> NestedProjections:
    """Projections onto the column spaces of the chain's models 1 and 2 at ``theta0_A``.

    ``theta0_A`` is a point of model 1, the chain's base design.  It should
    satisfy model 2 (its zeroed coordinates actually zero) for the identities
    to carry their intended meaning, but the construction itself only needs
    full column rank and a strictly positive manifest distribution.
    """
    p, L = _scaled_jacobian(chain.design, theta0_A)
    M = L[:, chain.free_columns(2)]
    R_L, h1, _ = _projection(L, pseudo_inverse, "full-model projection")
    R_M, h2, _ = _projection(M, pseudo_inverse, "submodel projection")
    return NestedProjections(R_L=R_L, R_M=R_M, h1=h1, h2=h2, p=p)


def bundle_identity_checks(bundle: AsymptoticBundle, design: ModelDesign) -> dict:
    """Measured deviations of the bundle identities, keyed by identity name."""
    Q = bundle.Qmat
    s = np.sqrt(bundle.p)
    target_trace = design.n_patterns - bundle.rank - 1
    return {
        "q_symmetry": float(np.max(np.abs(Q - Q.T))),
        "q_idempotency": float(np.max(np.abs(Q @ Q - Q))),
        "q_trace": float(np.trace(Q)),
        "q_trace_target": float(target_trace),
        "q_trace_deviation": float(abs(np.trace(Q) - target_trace)),
        "sqrtp_annihilation": float(
            max(np.max(np.abs(Q @ s)), np.max(np.abs(s @ Q)))
        ),
    }


def projection_identity_checks(proj: NestedProjections) -> dict:
    """Measured deviations of the nested-projection identities."""
    R_L, R_M = proj.R_L, proj.R_M
    diff = R_L - R_M
    s = np.sqrt(proj.p)
    return {
        "rl_idempotency": float(np.max(np.abs(R_L @ R_L - R_L))),
        "rm_idempotency": float(np.max(np.abs(R_M @ R_M - R_M))),
        "rl_trace": float(np.trace(R_L)),
        "rm_trace": float(np.trace(R_M)),
        "rl_trace_deviation": float(abs(np.trace(R_L) - proj.h1)),
        "rm_trace_deviation": float(abs(np.trace(R_M) - proj.h2)),
        "product_rl_rm": float(np.max(np.abs(R_L @ R_M - R_M))),
        "product_rm_rl": float(np.max(np.abs(R_M @ R_L - R_M))),
        "difference_idempotency": float(np.max(np.abs(diff @ diff - diff))),
        "difference_trace": float(np.trace(diff)),
        "difference_trace_deviation": float(abs(np.trace(diff) - (proj.h1 - proj.h2))),
        "sqrtp_annihilation": float(
            max(
                np.max(np.abs(R_L @ s)),
                np.max(np.abs(s @ R_L)),
                np.max(np.abs(R_M @ s)),
                np.max(np.abs(s @ R_M)),
            )
        ),
    }
