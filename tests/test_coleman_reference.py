"""Checks on the Coleman reference values kept in conftest.py.

The published parameter table (``COLEMAN_REF_LAMBDA/ETA/W/P``) is the record
of the source, and the index-2/3 optimum (``COLEMAN_OPT_W/P``) is what the
acceptance suite's criterion 2 checks the fit against.  These tests keep the
two findings behind that choice checked: the published table does not fit the
data, and the optimum is the one that ``scripts/derive_coleman_optimum.py``
derives without lcmdiv.
"""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest
from scipy.special import logit

from lcmdiv.divergence import power
from lcmdiv.inference import chi2_quantile, gof_statistic
from lcmdiv.model import Theta, manifest_distribution

from conftest import (
    COLEMAN_OPT_P,
    COLEMAN_OPT_W,
    COLEMAN_REF_ETA,
    COLEMAN_REF_LAMBDA,
    table_latent,
)

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "derive_coleman_optimum.py"


def load_derivation():
    spec = importlib.util.spec_from_file_location("derive_coleman_optimum", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def derivation_point():
    """``COLEMAN_OPT_W/P`` in the script's coordinates: item logits, then log-weights."""
    low_high = np.stack([COLEMAN_OPT_P[0], COLEMAN_OPT_P[3]], axis=1)  # item x (low, high)
    logw = np.log(COLEMAN_OPT_W)
    return np.concatenate([logit(low_high).ravel(), logw[:3] - logw[3]])


def test_published_table_is_rejected(coleman_design, coleman_counts, coleman_fit_23):
    # At the published (lambda, eta) the index-2/3 statistic is 63.3 and G^2
    # is 63.06 on 4 dof, not the published 1.277.
    theta = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
    at_table = dataclasses.replace(
        coleman_fit_23,
        theta_hat=theta,
        latent=table_latent(coleman_design, theta),
        manifest=manifest_distribution(coleman_design, theta),
    )
    for a, published_point in ((2.0 / 3.0, 63.34), (0.0, 63.06)):
        test = gof_statistic(coleman_design, coleman_counts, power(a), at_table)
        assert test.dof == 4
        assert test.statistic > chi2_quantile(0.95, 4) and test.reject
        assert test.statistic == pytest.approx(published_point, abs=0.01)


def test_reference_optimum_is_stationary_without_lcmdiv(coleman_counts):
    derive = load_derivation()
    patterns, n = derive.read_counts(derive.DATA)
    assert n.sum() == coleman_counts.N
    x = derivation_point()
    w, P, _ = derive.unpack(x)
    # The rounded weights sum to 1 + 1e-8, so the script renormalises them.
    np.testing.assert_allclose(w, COLEMAN_OPT_W, rtol=0, atol=1e-8)
    np.testing.assert_allclose(P, COLEMAN_OPT_P, rtol=0, atol=1e-12)
    p_hat = n / n.sum()
    assert 2.0 * n.sum() * derive.objective(x, patterns, p_hat) == pytest.approx(1.276866, abs=1e-6)
    # Central differences of the script's objective; the 8-digit rounding of
    # the constants leaves a gradient of order 1e-9.
    step = 1e-5
    grad = [
        (derive.objective(x + e, patterns, p_hat) - derive.objective(x - e, patterns, p_hat))
        / (2.0 * step)
        for e in np.eye(x.size) * step
    ]
    assert np.max(np.abs(grad)) < 1e-7


@pytest.mark.extended
def test_derivation_reproduces_reference_optimum():
    # The full derivation (about a minute): its output must equal the
    # constants to their 8-digit rounding.
    derive = load_derivation()
    fun, at_best, w, P = derive.derive()
    _, n = derive.read_counts(derive.DATA)
    assert 2.0 * n.sum() * fun == pytest.approx(1.276866, abs=1e-6)
    assert at_best >= 2
    np.testing.assert_allclose(w, COLEMAN_OPT_W, rtol=0, atol=5e-9)
    np.testing.assert_allclose(P, COLEMAN_OPT_P, rtol=0, atol=5e-9)
