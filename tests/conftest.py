import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from lcmdiv import datasets, estimation
from lcmdiv.divergence import power
from lcmdiv.estimation import FitOptions, _objective, fit, fit_chain
from lcmdiv.inference import estimator_sweep
from lcmdiv.model import LatentParams, ModelDesign, Theta, _table, all_patterns


def make_design(seed=0, k=3, m=2, t=2, u=1, logit_scale=0.8) -> ModelDesign:
    """Random small design with a generic (full-rank, no-redundancy) structure."""
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(m, u))
    return ModelDesign(
        Q=rng.normal(size=(m, k, t)) * logit_scale,
        C=rng.normal(size=(m, k)) * 0.3,
        V=V,
        d=rng.normal(size=m) * 0.2,
    )


def random_theta(design: ModelDesign, seed=0, scale=0.7) -> Theta:
    rng = np.random.default_rng(seed)
    return Theta(
        lam=rng.normal(0.0, scale, design.t), eta=rng.normal(0.0, scale, design.u)
    )


def reference_class_pattern_probs(P: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Per-class pattern probabilities, shape (m, 2**k), multiplied item by item.

    The loop reference for the package's log-space kernel: where an item
    logit saturates ``expit`` to exactly 0 or 1 the product gives exact zero
    cells.
    """
    m, k = P.shape
    out = np.ones((m, patterns.shape[0]))
    for i in range(k):
        yi = patterns[:, i]
        out *= np.where(yi == 1, P[:, i][:, None], (1.0 - P[:, i])[:, None])
    return out


def reference_latent(design: ModelDesign, theta: Theta) -> tuple:
    """Class weights ``softmax(V @ eta + d)`` and item probabilities
    ``logistic(Q @ lam + C)``, written out apart from the package's kernel."""
    z = design.V @ theta.eta + design.d
    w = np.exp(z - z.max())
    with np.errstate(over="ignore"):  # a logit below about -709 gives P = 1 / inf = 0
        P = 1.0 / (1.0 + np.exp(-(design.Q @ theta.lam + design.C)))
    return w / w.sum(), P


def table_latent(design: ModelDesign, theta: Theta) -> LatentParams:
    """The class weights and item probabilities of the kernel table at ``theta``."""
    w, S, _, _ = _table(design, theta.vector()[None])
    return LatentParams(w=w[0], P=expit(S[0]))


def reference_manifest(design: ModelDesign, theta: Theta) -> np.ndarray:
    """Manifest vector ``w @ B`` from the item-by-item class-pattern table."""
    w, P = reference_latent(design, theta)
    return w @ reference_class_pattern_probs(P, all_patterns(design.k))


def reference_jacobian(design: ModelDesign, theta: Theta) -> np.ndarray:
    """Manifest Jacobian, shape (2**k, t + u), by einsum over the product table."""
    w, P = reference_latent(design, theta)
    patterns = all_patterns(design.k)
    B = reference_class_pattern_probs(P, patterns)
    # d log B[j, nu] / d s_ji = y_nu_i - p_ji, and d s_ji / d lambda_r = Q[j, i, r].
    resid = patterns[None, :, :] - P[:, None, :]
    G = np.einsum("jvi,jir->jvr", resid, design.Q)
    J_lam = np.einsum("j,jv,jvr->vr", w, B, G)
    # d w_j / d eta_s = w_j (V[j, s] - sum_h w_h V[h, s]).
    W_grad = w[:, None] * (design.V - (w @ design.V)[None, :])
    J_eta = np.einsum("jv,js->vs", B, W_grad)
    return np.concatenate([J_lam, J_eta], axis=1)


def scipy_bfgs_fit(design: ModelDesign, counts, a: float, x0, grad_tol: float, max_iters: int):
    """One launch of scipy's BFGS from ``x0``: ``(objective, converged)``.

    The optimizer reference for the package's batched BFGS, run on the same
    objective.  scipy can stop on precision loss short of a tight
    ``grad_tol``; up to three restarts from the stopping point (identity
    Hessian) finish the job, within ``max_iters`` iterations in total.
    """
    p_hat = counts.p_hat()[None]

    def fun(x):
        value, grad = _objective(design, p_hat, a, x[None])
        return value[0], grad[0]

    x, iterations = np.asarray(x0, dtype=np.float64), 0
    for _ in range(3):
        if iterations >= max_iters:
            break
        res = minimize(
            fun, x, jac=True, method="BFGS",
            options={"gtol": grad_tol, "maxiter": max_iters - iterations},
        )
        iterations += res.nit
        x = res.x
        if np.max(np.abs(res.jac)) <= grad_tol or res.nit == 0:
            break
    value, grad = fun(x)
    return float(value), bool(np.max(np.abs(grad)) <= grad_tol and np.isfinite(value))


def result_fields(result):
    """A fit's point, objective, convergence, latent and manifest views and per-start traces."""
    traces = result.traces
    return (
        result.theta_hat.vector(), result.objective, result.converged, result.latent.w,
        result.latent.P, result.manifest.p,
        *([getattr(t, name) for t in traces]
          for name in ("objective", "grad_norm", "iterations", "evaluations", "restarts")),
        [estimation._STATUSES.index(t.status) for t in traces],
    )


def assert_same_bits(left, right):
    assert len(left) == len(right)
    for x, y in zip(left, right):
        assert np.asarray(x, dtype=np.float64).tobytes() == np.asarray(y, dtype=np.float64).tobytes()


@pytest.fixture
def infinite_rows(monkeypatch):
    """Counts of rows with an infinite objective, one entry per objective call."""
    counts = []
    objective = estimation._objective

    def counting(*args):
        value, grad = objective(*args)
        counts.append(int(np.isinf(value).sum()))
        return value, grad

    monkeypatch.setattr(estimation, "_objective", counting)
    return counts


# Reference values from the original published analysis of the Coleman data.
COLEMAN_REF_LAMBDA = np.array(
    [-2.34292610, 1.72393168, -0.84040580, 1.56524945,
     -2.06480043, 2.29928080, -0.91137901, 2.01252338]
)
COLEMAN_REF_ETA = np.array([0.50480183, 0.16964329, -0.87356633, -0.00424661])
COLEMAN_REF_W = np.array([0.38936544, 0.27848377, 0.09811597, 0.23403482])
# Item probabilities by class; the (3,1) cell is the corrected value (the
# source prints 0.8463457, a dropped digit).
COLEMAN_REF_P = np.array(
    [
        [0.08762969, 0.30144933, 0.11256540, 0.28671773],
        [0.08762969, 0.82710532, 0.11256540, 0.88210569],
        [0.84863457, 0.30144933, 0.90881746, 0.28671773],
        [0.84863457, 0.82710532, 0.90881746, 0.88210569],
    ]
)
# Goodness-of-fit statistics T^{phi_{2/3}}(theta_hat_{phi_a}): the statistic
# index is fixed at 2/3 and the estimator index runs over
# a = -1, -1/2, 0, 2/3, 1, 3/2, 2, 5/2, 3.  PAPER.md holds only the abstract,
# so this reading of the row rests on the numbers: fitted this way, all nine
# members match to the row's 3-decimal rounding (checked by
# test_inference.py::TestGofStatistic::test_coleman_row_to_published_rounding),
# while sweeping the statistic index at the index-2/3 estimate gives 1.303
# at a = 3.
COLEMAN_REF_A_GRID = (-1.0, -0.5, 0.0, 2.0 / 3.0, 1.0, 1.5, 2.0, 2.5, 3.0)
COLEMAN_REF_T_ROW = (1.279, 1.278, 1.277, 1.277, 1.277, 1.277, 1.278, 1.279, 1.281)
# Nested-chain statistics at a = 2/3: (M1-M2, M2-M3, M3-M4).
COLEMAN_REF_NESTED_S = (3.754, 4.578, 30.626)
COLEMAN_REF_NESTED_T = (3.386, 4.585, 30.616)

# The published parameter table (COLEMAN_REF_LAMBDA/ETA/W/P) is kept as the
# record of the source, but it is not the optimum behind the published
# statistics: at the published (lambda, eta) the index-2/3 statistic is 63.3
# (G^2 = 63.06 on 4 dof), and no recoding of the data table (24 item orders x
# 16 item flips x 24 pairings of weights to classes) brings G^2 below 43.3.
# The index-2/3 optimum below does reproduce the published statistic row.  It
# was derived without lcmdiv by scripts/derive_coleman_optimum.py: a
# plain-numpy index-2/3 objective over the class weights and low/high item
# probabilities, minimised by Nelder-Mead from 10 random starts (seed 0; 8
# reach the same optimum, statistic 1.276866).  Class order and layout match
# COLEMAN_REF_W/P.  The script prints these two constants in this form, so its
# output can be diffed against them; test_coleman_reference.py checks that the
# published table is rejected, that this point is stationary for the script's
# objective, and (extended tier) that the full derivation reproduces it.
COLEMAN_OPT_W = np.array([0.36797070, 0.23161177, 0.12834505, 0.27207249])
COLEMAN_OPT_P = np.array(
    [
        [0.11123233, 0.26641401, 0.07571791, 0.30152816],
        [0.11123233, 0.80556792, 0.07571791, 0.83221412],
        [0.75430576, 0.26641401, 0.90983648, 0.30152816],
        [0.75430576, 0.80556792, 0.90983648, 0.83221412],
    ]
)


@pytest.fixture(scope="session")
def coleman_design():
    return datasets.coleman_design_m1()


@pytest.fixture(scope="session")
def coleman_counts():
    return datasets.coleman_counts()


@pytest.fixture(scope="session")
def coleman_fit_23(coleman_design, coleman_counts):
    return fit(coleman_design, coleman_counts, power(2.0 / 3.0), FitOptions(starts=30, seed=1))


def coleman_estimator_sweep(design, counts, fit_23):
    """Minimum phi_a-divergence fits for each a of ``COLEMAN_REF_A_GRID``.

    The published statistic row is T^{phi_{2/3}} evaluated at these fits.
    Each fit is warm-started from the index-2/3 fit ``fit_23``, which is
    reused as the a = 2/3 member.
    """
    return estimator_sweep(design, counts, COLEMAN_REF_A_GRID, fit_23, seed=1)


@pytest.fixture(scope="session")
def coleman_sweep_fits(coleman_design, coleman_counts, coleman_fit_23):
    return coleman_estimator_sweep(coleman_design, coleman_counts, coleman_fit_23)


@pytest.fixture(scope="session")
def coleman_fit_mle(coleman_design, coleman_counts):
    return fit(coleman_design, coleman_counts, power(0.0), FitOptions(starts=30, seed=1))


@pytest.fixture(scope="session")
def coleman_chain():
    return datasets.coleman_chain()


@pytest.fixture(scope="session")
def coleman_chain_fits(coleman_chain, coleman_counts):
    fits = fit_chain(coleman_chain, coleman_counts, power(2.0 / 3.0), FitOptions(starts=30, seed=5))
    return dict(enumerate(fits, start=1))
