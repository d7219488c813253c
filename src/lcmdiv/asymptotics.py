"""Numerical checks of the projection identities behind the chi-square limits.

Everything here is a test oracle: the limiting distributions of the test
statistics rest on a handful of matrix identities, and this module builds
the matrices at a parameter point and returns how far each identity is from
holding there, to floating-point accuracy on concrete designs.
:func:`build_bundle` measures at the point it is given;
:func:`build_nested_projections` measures at that point with the coordinates
model 2 fixes set to zero, a point of both models.

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

import numpy as np

from .errors import DomainError, RankDeficiencyError
from .model import ModelDesign, NestedChain, Theta, _evaluate, _rank_of, _vector


def _scaled_jacobian(design: ModelDesign, x: np.ndarray) -> tuple:
    """``p`` and ``L = diag(p)^{-1/2} J`` at the one-row batch ``x``; refuses a cell with ``p <= 0``."""
    p, J = (part[0] for part in _evaluate(design, x))
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
) -> dict:
    """The rank and Gram condition of ``L`` and the deviations of the ``Q`` identities at ``theta0``.

    Refuses rank-deficient designs (naming the rank) unless
    ``pseudo_inverse`` is set, in which case the trace of Q is measured
    against the identifiable parameter count rather than the nominal one.
    """
    p, L = _scaled_jacobian(design, _vector(design, theta0))
    s = np.sqrt(p)
    R, rank, cond = _projection(L, pseudo_inverse, "asymptotic bundle")

    Vmat = s[:, None] * R / s[None, :]
    Sigma = np.diag(p) - np.outer(p, p)
    I = np.eye(p.size)
    inv_s = 1.0 / s
    Q = (inv_s[:, None] * (I - Vmat)) @ Sigma @ ((I - Vmat.T) * inv_s[None, :])
    target_trace = p.size - rank - 1
    return {
        "rank": rank,
        "gram_condition": cond,
        "q_symmetry": float(np.max(np.abs(Q - Q.T))),
        "q_idempotency": float(np.max(np.abs(Q @ Q - Q))),
        "q_trace": float(np.trace(Q)),
        "q_trace_target": float(target_trace),
        "q_trace_deviation": float(abs(np.trace(Q) - target_trace)),
        "sqrtp_annihilation": float(
            max(np.max(np.abs(Q @ s)), np.max(np.abs(s @ Q)))
        ),
    }


def build_nested_projections(
    chain: NestedChain, theta0: Theta, pseudo_inverse: bool = False
) -> dict:
    """Deviations of the identities of the projections onto models 1 and 2 of the chain.

    ``theta0`` is any point of model 1, the chain's base design; the
    identities are measured at its restriction to model 2, with the
    coordinates model 2 fixes set to zero.  The traces are measured against
    the ranks of ``L`` and ``M``: the free-parameter counts on a full-rank
    design, the identifiable ones under a pseudo-inverse.
    """
    x = _vector(chain.design, theta0)
    free = chain.free_columns(2)
    x0 = np.zeros_like(x)
    x0[:, free] = x[:, free]
    p, L = _scaled_jacobian(chain.design, x0)
    R_L, h1, _ = _projection(L, pseudo_inverse, "full-model projection")
    R_M, h2, _ = _projection(L[:, free], pseudo_inverse, "submodel projection")
    diff = R_L - R_M
    s = np.sqrt(p)
    return {
        "rl_idempotency": float(np.max(np.abs(R_L @ R_L - R_L))),
        "rm_idempotency": float(np.max(np.abs(R_M @ R_M - R_M))),
        "rl_trace": float(np.trace(R_L)),
        "rm_trace": float(np.trace(R_M)),
        "rl_trace_deviation": float(abs(np.trace(R_L) - h1)),
        "rm_trace_deviation": float(abs(np.trace(R_M) - h2)),
        "product_rl_rm": float(np.max(np.abs(R_L @ R_M - R_M))),
        "product_rm_rl": float(np.max(np.abs(R_M @ R_L - R_M))),
        "difference_idempotency": float(np.max(np.abs(diff @ diff - diff))),
        "difference_trace": float(np.trace(diff)),
        "difference_trace_deviation": float(abs(np.trace(diff) - (h1 - h2))),
        "sqrtp_annihilation": float(
            max(
                np.max(np.abs(R_L @ s)),
                np.max(np.abs(s @ R_L)),
                np.max(np.abs(R_M @ s)),
                np.max(np.abs(s @ R_M)),
            )
        ),
    }
