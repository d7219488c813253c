import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, multinomial

from lcmdiv.errors import DomainError
from lcmdiv.model import (
    LatentParams,
    ManifestDistribution,
    ModelDesign,
    ObservedCounts,
    Theta,
    _evaluate,
    all_patterns,
    class_weights,
    item_probs,
    jacobian_rank,
    log_likelihood,
    manifest_distribution,
    manifest_jacobian,
    pattern_index,
    pattern_vector,
    sample_counts,
)
from lcmdiv.divergence import kl_divergence

from conftest import (
    COLEMAN_REF_ETA,
    COLEMAN_REF_LAMBDA,
    make_design,
    random_theta,
    reference_jacobian,
    reference_manifest,
)

# Kernel against loop reference, absolute.  Entries of p are at most 1 and
# entries of J at most a few hundred at the largest logit scale below; the
# two sides round differently (log-space sums against an item-by-item
# product), so 1e-12 allows a few thousand ulps of 1.0.
KERNEL_ATOL = 1e-12


class TestPatternIndex:
    def test_all_zeros_first(self):
        assert pattern_index([0, 0, 0, 0]) == 1

    def test_all_ones_last(self):
        assert pattern_index([1, 1, 1, 1]) == 16

    def test_coleman_cell(self, coleman_counts):
        # Row "01", column "10" of the published 4x4 table holds 75.
        assert pattern_index([0, 1, 1, 0]) == 7
        assert coleman_counts.n[7 - 1] == 75

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            pattern_index([0, 2, 0])

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, k, data):
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
        nu = pattern_index(y)
        assert 1 <= nu <= 2 ** k
        np.testing.assert_array_equal(pattern_vector(nu, k), y)

    def test_all_patterns_consistent(self):
        pats = all_patterns(5)
        for nu in (1, 17, 32):
            np.testing.assert_array_equal(pats[nu - 1], pattern_vector(nu, 5))


class TestItemProbs:
    def test_zero_parameters_give_half(self):
        design = ModelDesign(
            Q=np.ones((2, 3, 2)), C=np.zeros((2, 3)), V=np.ones((2, 1)), d=np.zeros(2)
        )
        P = item_probs(design, Theta.zeros(design))
        np.testing.assert_allclose(P, 0.5, atol=0)

    def test_logistic_of_one(self):
        design = ModelDesign(
            Q=np.ones((1, 1, 1)), C=np.zeros((1, 1)), V=np.ones((1, 1)), d=np.zeros(1)
        )
        P = item_probs(design, Theta(lam=[1.0], eta=[0.0]))
        assert abs(P[0, 0] - 0.7310585786300049) < 1e-12

    def test_coleman_reference_value(self, coleman_design):
        theta = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
        P = item_probs(coleman_design, theta)
        assert abs(P[0, 0] - 0.08762969) < 5e-9

    def test_overflow_safe(self):
        design = ModelDesign(
            Q=np.ones((1, 2, 1)), C=np.array([[800.0, -800.0]]), V=np.ones((1, 1)), d=np.zeros(1)
        )
        P = item_probs(design, Theta.zeros(design))
        assert np.all(np.isfinite(P)) and P[0, 0] == 1.0 and P[0, 1] == 0.0


class TestClassWeights:
    def test_uniform_at_zero(self):
        design = make_design(seed=1, m=3, u=2)
        design = ModelDesign(Q=design.Q, C=design.C, V=design.V, d=np.zeros(3))
        w = class_weights(design, Theta.zeros(design))
        np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-15)

    def test_coleman_reference_value(self, coleman_design):
        theta = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
        w = class_weights(coleman_design, theta)
        assert abs(w[0] - 0.38936544) < 5e-9

    @given(st.floats(-30, 30), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, shift, seed):
        design = ModelDesign(
            Q=np.ones((3, 2, 1)), C=np.zeros((3, 2)), V=np.eye(3), d=np.zeros(3)
        )
        rng = np.random.default_rng(seed)
        eta = rng.normal(size=3)
        w1 = class_weights(design, Theta(lam=[0.0], eta=eta))
        w2 = class_weights(design, Theta(lam=[0.0], eta=eta + shift))
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_sums_to_one(self):
        design = make_design(seed=4, m=5, u=3)
        w = class_weights(design, random_theta(design, seed=5, scale=3.0))
        assert abs(w.sum() - 1.0) <= 1e-12


class TestManifestDistribution:
    def test_single_fair_item(self):
        design = ModelDesign(
            Q=np.ones((1, 1, 1)), C=np.zeros((1, 1)), V=np.ones((1, 1)), d=np.zeros(1)
        )
        dist = manifest_distribution(design, Theta.zeros(design))
        np.testing.assert_allclose(dist.p, [0.5, 0.5], atol=1e-15)

    def test_uniform_when_everything_fair(self):
        design = ModelDesign(
            Q=np.ones((3, 4, 2)), C=np.zeros((3, 4)), V=np.ones((3, 2)), d=np.zeros(3)
        )
        dist = manifest_distribution(design, Theta.zeros(design))
        np.testing.assert_allclose(dist.p, 1.0 / 16.0, atol=1e-15)

    def test_brute_force_oracle(self):
        # Independent enumeration: all four patterns, direct multiplication.
        design = make_design(seed=7, k=2, m=2, t=2, u=1)
        theta = random_theta(design, seed=8)
        w = class_weights(design, theta)
        P = item_probs(design, theta)
        expected = np.zeros(4)
        for nu, (y1, y2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            for j in range(2):
                term = w[j]
                term *= P[j, 0] if y1 else 1 - P[j, 0]
                term *= P[j, 1] if y2 else 1 - P[j, 1]
                expected[nu] += term
        dist = manifest_distribution(design, theta)
        np.testing.assert_allclose(dist.p, expected, rtol=1e-13)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one_and_positive(self, seed):
        design = make_design(seed=seed % 1000, k=4, m=3, t=3, u=2)
        dist = manifest_distribution(design, random_theta(design, seed=seed, scale=2.0))
        assert abs(dist.p.sum() - 1.0) <= 1e-12
        assert np.all(dist.p > 0)

    @pytest.mark.parametrize("p", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]])
    def test_non_finite_vector_rejected(self, p):
        # NaN fails every comparison, so it has to be refused explicitly.
        with pytest.raises(DomainError):
            ManifestDistribution(p=p)

    def test_kernel_rejects_non_finite_parameters(self):
        design = make_design(seed=9, k=3, m=2, t=2, u=1)
        with pytest.raises(DomainError):
            _evaluate(design, np.full(design.t + design.u, np.nan))


class TestLatentParams:
    @pytest.mark.parametrize(
        "w,P",
        [
            ([math.nan, math.nan], [[0.5], [0.5]]),
            ([0.5, 0.5], [[math.nan], [math.nan]]),
            ([0.5, 0.5], [[0.5], [math.nan]]),
            ([math.inf, 0.0], [[0.5], [0.5]]),
        ],
    )
    def test_non_finite_entries_rejected(self, w, P):
        with pytest.raises(DomainError):
            LatentParams(w=np.array(w), P=np.array(P))


class TestManifestJacobian:
    def test_columns_sum_to_zero(self):
        design = make_design(seed=11, k=4, m=3, t=4, u=2)
        J = manifest_jacobian(design, random_theta(design, seed=12))
        np.testing.assert_allclose(J.sum(axis=0), 0.0, atol=1e-10)

    def test_finite_difference_match(self):
        design = make_design(seed=13, k=3, m=2, t=3, u=2)
        theta = random_theta(design, seed=14)
        J = manifest_jacobian(design, theta)
        x0 = theta.vector()
        h = 1e-6
        for col in range(x0.size):
            e = np.zeros_like(x0)
            e[col] = h
            hi = manifest_distribution(design, Theta.from_vector(design, x0 + e)).p
            lo = manifest_distribution(design, Theta.from_vector(design, x0 - e)).p
            fd = (hi - lo) / (2 * h)
            scale = np.maximum(np.abs(J[:, col]), 1e-8)
            assert np.max(np.abs(fd - J[:, col]) / scale) < 1e-6

    def test_coleman_rank_is_eleven(self, coleman_design, coleman_fit_23):
        assert coleman_fit_23.rank == 11
        theta = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
        assert jacobian_rank(coleman_design, theta) == 11


class TestEvaluationKernel:
    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([0.8, 3.0, 60.0, 400.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, seed, k, m, t, u, logit_scale):
        design = make_design(seed=seed, k=k, m=m, t=t, u=u, logit_scale=logit_scale)
        theta = random_theta(design, seed=seed)
        p, J = _evaluate(design, theta.vector())
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0) and np.all(np.isfinite(J))
        np.testing.assert_allclose(p, reference_manifest(design, theta), rtol=0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(J, reference_jacobian(design, theta), rtol=0, atol=KERNEL_ATOL)

    def test_saturated_logits_stay_finite(self):
        # |logit| >= 40 saturates expit to exactly 0 or 1, so the product
        # reference has exact zero cells; the log-space table does not.
        design = ModelDesign(
            Q=np.ones((2, 3, 1)),
            C=np.array([[45.0, -45.0, 50.0], [-60.0, 40.0, 0.3]]),
            V=np.ones((2, 1)),
            d=np.array([0.2, -0.1]),
        )
        theta = Theta(lam=[0.1], eta=[0.0])
        ref = reference_manifest(design, theta)
        assert np.count_nonzero(ref == 0.0) > 0
        p, J = _evaluate(design, theta.vector())
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0) and np.all(np.isfinite(J))
        assert abs(p.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(p, ref, rtol=0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(J, reference_jacobian(design, theta), rtol=0, atol=KERNEL_ATOL)

    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_single_rows(self, seed, k, m, t, u, b):
        # Bit for bit: a row's result does not depend on the rest of the batch.
        design = make_design(seed=seed, k=k, m=m, t=t, u=u, logit_scale=3.0)
        X = np.random.default_rng(seed).normal(0.0, 2.0, size=(b, t + u))
        P, J = _evaluate(design, X)
        assert P.shape == (b, 2 ** k) and J.shape == (b, 2 ** k, t + u)
        for i in range(b):
            p, Ji = _evaluate(design, X[i])
            np.testing.assert_array_equal(P[i], p)
            np.testing.assert_array_equal(J[i], Ji)
            p_only, _ = _evaluate(design, X[i : i + 1], jacobian=False)
            np.testing.assert_array_equal(p_only[0], p)

    def test_public_views_share_the_kernel(self):
        design = make_design(seed=41, k=4, m=3, t=3, u=2)
        theta = random_theta(design, seed=42)
        p, J = _evaluate(design, theta.vector())
        np.testing.assert_array_equal(manifest_distribution(design, theta).p, p)
        np.testing.assert_array_equal(manifest_jacobian(design, theta), J)
        p_only, no_J = _evaluate(design, theta.vector(), jacobian=False)
        np.testing.assert_array_equal(p_only, p)
        assert no_J is None


class TestSampling:
    def test_deterministic(self):
        design = make_design(seed=21, k=3)
        theta = random_theta(design, seed=22)
        c1 = sample_counts(design, theta, 500, seed=99)
        c2 = sample_counts(design, theta, 500, seed=99)
        np.testing.assert_array_equal(c1.n, c2.n)

    def test_conservation(self):
        design = make_design(seed=23, k=3)
        counts = sample_counts(design, random_theta(design, seed=24), 777, seed=5)
        assert counts.N == 777

    def test_large_sample_frequencies(self):
        design = make_design(seed=25, k=3)
        theta = random_theta(design, seed=26)
        dist = manifest_distribution(design, theta)
        counts = sample_counts(design, theta, 1_000_000, seed=7)
        result = chisquare(counts.n, f_exp=counts.N * dist.p)
        assert result.pvalue > 0.001

    def test_k_limit(self):
        design = make_design(seed=27, k=3)
        big = ModelDesign(
            Q=np.ones((1, 21, 1)), C=np.zeros((1, 21)), V=np.ones((1, 1)), d=np.zeros(1)
        )
        with pytest.raises(DomainError):
            sample_counts(big, Theta.zeros(big), 10, seed=0)
        with pytest.raises(DomainError):
            sample_counts(design, random_theta(design), 0, seed=0)


class TestLogLikelihood:
    def test_single_observation_uniform(self):
        counts = ObservedCounts(n=[1, 0])
        dist = manifest_distribution(
            ModelDesign(Q=np.ones((1, 1, 1)), C=np.zeros((1, 1)), V=np.ones((1, 1)), d=np.zeros(1)),
            Theta(lam=[0.0], eta=[0.0]),
        )
        assert abs(log_likelihood(counts, dist) - math.log(0.5)) < 1e-14

    def test_divergence_identity_constant_in_theta(self):
        # logL(theta) + N * KL(p_hat, p(theta)) is the multinomial constant.
        design = make_design(seed=31, k=3, m=2, t=2, u=1)
        counts = sample_counts(design, random_theta(design, seed=32), 400, seed=3)
        values = []
        for s in range(10):
            theta = random_theta(design, seed=100 + s, scale=1.0)
            dist = manifest_distribution(design, theta)
            values.append(
                log_likelihood(counts, dist) + counts.N * kl_divergence(counts.p_hat(), dist.p)
            )
        assert max(values) - min(values) < 1e-8

    def test_multinomial_pmf_oracle(self):
        # 3-cell check against scipy's multinomial pmf (4-cell table, one empty).
        n = np.array([5, 2, 3, 0])
        p = np.array([0.4, 0.3, 0.2, 0.1])
        counts = ObservedCounts(n=n)
        from lcmdiv.model import ManifestDistribution

        dist = ManifestDistribution(p=p)
        expected = multinomial.logpmf(n, n.sum(), p)
        assert abs(log_likelihood(counts, dist) - expected) < 1e-10

    def test_zero_probability_sentinel(self):
        from lcmdiv.model import ManifestDistribution

        counts = ObservedCounts(n=[3, 1])
        dist = ManifestDistribution(p=[1.0, 0.0])
        assert log_likelihood(counts, dist) == -math.inf
