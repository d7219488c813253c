import math
import re
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from lcmdiv.errors import DomainError
from lcmdiv.model import (
    LatentParams,
    ManifestDistribution,
    ModelDesign,
    ObservedCounts,
    Theta,
    _evaluate,
    _jacobian,
    _pullback,
    _table,
    all_patterns,
    jacobian_rank,
    manifest_distribution,
    manifest_jacobian,
    pattern_index,
    sample_counts,
)
from lcmdiv import datasets

from conftest import (
    COLEMAN_REF_ETA,
    COLEMAN_REF_LAMBDA,
    make_design,
    random_theta,
    reference_jacobian,
    reference_latent,
    reference_manifest,
    table_latent,
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
        np.testing.assert_array_equal(all_patterns(k)[nu - 1], y)

    def test_all_patterns_consistent(self):
        pats = all_patterns(5)
        assert [pattern_index(row) for row in pats] == list(range(1, 33))


class TestObservedCounts:
    @pytest.mark.parametrize(
        "n, message",
        [
            ([2**63 - 1, 1], "does not fit in a 64-bit integer"),  # the int64 sum wraps
            (np.array([2**63, 0], dtype=np.uint64), "does not fit in a 64-bit integer"),
            ([1e20, 1.0], "does not fit in a 64-bit integer"),
            ([math.nan, 1.0], "must be integers"),
            ([1, 2, 3], "counts vector length must be a power of two >= 2"),
        ],
    )
    def test_out_of_range_counts_refused(self, n, message):
        with pytest.raises(DomainError, match=message):
            ObservedCounts(n=n)

    def test_largest_total_is_kept(self):
        counts = ObservedCounts(n=[2**62, 2**62 - 1])
        assert counts.N == 2**63 - 1 and counts.n.dtype == np.int64


class TestItemProbs:
    def test_zero_parameters_give_half(self):
        design = ModelDesign(
            Q=np.ones((2, 3, 2)), C=np.zeros((2, 3)), V=np.ones((2, 1)), d=np.zeros(2)
        )
        P = table_latent(design, Theta.zeros(design)).P
        np.testing.assert_allclose(P, 0.5, atol=0)

    def test_logistic_of_one(self):
        design = ModelDesign(
            Q=np.ones((1, 1, 1)), C=np.zeros((1, 1)), V=np.ones((1, 1)), d=np.zeros(1)
        )
        P = table_latent(design, Theta(lam=[1.0], eta=[0.0])).P
        assert abs(P[0, 0] - 0.7310585786300049) < 1e-12

    def test_coleman_reference_value(self, coleman_design):
        theta = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
        P = table_latent(coleman_design, theta).P
        assert abs(P[0, 0] - 0.08762969) < 5e-9

    def test_overflow_safe(self):
        design = ModelDesign(
            Q=np.ones((1, 2, 1)), C=np.array([[800.0, -800.0]]), V=np.ones((1, 1)), d=np.zeros(1)
        )
        P = table_latent(design, Theta.zeros(design)).P
        assert np.all(np.isfinite(P)) and P[0, 0] == 1.0 and P[0, 1] == 0.0


class TestClassWeights:
    def test_uniform_at_zero(self):
        design = make_design(seed=1, m=3, u=2)
        design = ModelDesign(Q=design.Q, C=design.C, V=design.V, d=np.zeros(3))
        w = table_latent(design, Theta.zeros(design)).w
        np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-15)

    def test_coleman_reference_value(self, coleman_design):
        theta = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
        w = table_latent(coleman_design, theta).w
        assert abs(w[0] - 0.38936544) < 5e-9

    @given(st.floats(-30, 30), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, shift, seed):
        design = ModelDesign(
            Q=np.ones((3, 2, 1)), C=np.zeros((3, 2)), V=np.eye(3), d=np.zeros(3)
        )
        rng = np.random.default_rng(seed)
        eta = rng.normal(size=3)
        w1 = table_latent(design, Theta(lam=[0.0], eta=eta)).w
        w2 = table_latent(design, Theta(lam=[0.0], eta=eta + shift)).w
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_sums_to_one(self):
        design = make_design(seed=4, m=5, u=3)
        w = table_latent(design, random_theta(design, seed=5, scale=3.0)).w
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
        w, P = reference_latent(design, theta)
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
            _evaluate(design, np.full((1, design.t + design.u), np.nan))


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
        assert jacobian_rank(coleman_design, coleman_fit_23.theta_hat) == 11
        theta = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
        assert jacobian_rank(coleman_design, theta) == 11

    @pytest.mark.parametrize(
        "name,rank",
        [
            ("coleman_m1", 11), ("coleman_m1_chain_basis", 11),
            ("coleman_m2", 9), ("coleman_m3", 8), ("coleman_m4", 7),
            ("sim_null", 12), ("sim_alt", 13),
        ],
    )
    def test_generic_rank_of_bundled_designs(self, name, rank):
        # Each bundled design is one short of its nominal parameter count.
        design = datasets.BUNDLED["design"][name][0]()
        assert design.generic_rank == rank == design.n_params - 1

    def test_generic_rank_stays_out_of_pickles(self):
        design = datasets.simulation_null_design()
        fresh = pickle.dumps(design)
        assert design.generic_rank == 12
        assert pickle.dumps(design) == fresh
        assert "generic_rank" not in vars(pickle.loads(fresh))


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
        (p,), (J,) = _evaluate(design, theta.vector()[None])
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
        (p,), (J,) = _evaluate(design, theta.vector()[None])
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
            (p,), (Ji,) = _evaluate(design, X[i : i + 1])
            np.testing.assert_array_equal(P[i], p)
            np.testing.assert_array_equal(J[i], Ji)
            p_only = _table(design, X[i : i + 1])[3]
            np.testing.assert_array_equal(p_only[0], p)

    def test_public_views_share_the_kernel(self):
        design = make_design(seed=41, k=4, m=3, t=3, u=2)
        theta = random_theta(design, seed=42)
        (p,), (J,) = _evaluate(design, theta.vector()[None])
        np.testing.assert_array_equal(manifest_distribution(design, theta).p, p)
        np.testing.assert_array_equal(manifest_jacobian(design, theta), J)
        np.testing.assert_array_equal(_table(design, theta.vector()[None])[3][0], p)


class TestDesignLayout:
    def test_fit_bits_do_not_depend_on_array_layout(self):
        # The design copies its arrays C-ordered, so equal values give equal bits
        # however the caller laid them out: a Fortran-ordered V and a Q whose
        # columns were picked by fancy indexing (as a reduced design's are).
        from lcmdiv.divergence import power
        from lcmdiv.estimation import FitOptions, fit

        base = datasets.coleman_design_chain_basis()
        layouts = (
            base,
            ModelDesign(Q=base.Q, C=base.C, V=np.asfortranarray(base.V), d=base.d),
            ModelDesign(Q=base.Q[:, :, list(range(base.t))], C=base.C, V=base.V, d=base.d),
        )
        assert not np.asfortranarray(base.V).flags.c_contiguous
        assert base.Q[:, :, list(range(base.t))].strides != base.Q.strides
        counts = datasets.coleman_counts()
        fits = [fit(d, counts, power(2.0 / 3.0), FitOptions(starts=20, seed=1)) for d in layouts]
        for result in fits[1:]:
            assert result.objective.hex() == fits[0].objective.hex()
            assert result.theta_hat.vector().tobytes() == fits[0].theta_hat.vector().tobytes()


class TestPullback:
    """``_pullback`` gives the fit's gradient ``weight @ J`` without forming ``J``."""

    @staticmethod
    def rows(design):
        # Five ordinary rows, one whose item logits saturate (|S| up to about 100
        # on the simulation design, 190 on Coleman) and one with zero weights.
        rng = np.random.default_rng(5)
        X = rng.normal(0.0, 1.0, size=(7, design.t + design.u))
        X[5, : design.t] *= 80.0
        weight = rng.normal(0.0, 1.0, size=(7, design.n_patterns))
        weight[6] = 0.0
        return X, weight

    @pytest.mark.parametrize(
        "design", (datasets.simulation_null_design(), datasets.coleman_design_m1()),
        ids=("sim_null", "coleman_m1"),
    )
    def test_equals_weight_times_jacobian(self, design):
        X, weight = self.rows(design)
        w, S, B, p = _table(design, X)
        assert np.max(np.abs(S[5])) > 40.0
        J = _jacobian(design, w, S, B)
        expected = np.matmul(weight[:, None, :], J)[:, 0]
        g = _pullback(design, w, S, B, weight)
        err = np.max(np.abs(g - expected), axis=1)
        for i in range(5):
            assert err[i] <= 1e-13 * np.max(np.abs(expected[i]))
        # Where logits saturate, both routes sum O(1) terms to a gradient that
        # can be orders of magnitude smaller (on Coleman both sit about 1e-8
        # relative from a long-double evaluation), so the bound is relative
        # to the size of the terms summed: each class's weighted pattern mass
        # times the largest loading.
        terms = np.max(w * np.matmul(B, np.abs(weight)[:, :, None])[..., 0], axis=1)
        loading = max(np.max(np.abs(design.Q)), np.max(np.abs(design.V)))
        assert err[5] <= 1e-13 * terms[5] * loading
        np.testing.assert_array_equal(g[6], 0.0)
        np.testing.assert_array_equal(expected[6], 0.0)

    @pytest.mark.parametrize(
        "design", (datasets.simulation_null_design(), datasets.coleman_design_m1()),
        ids=("sim_null", "coleman_m1"),
    )
    def test_rows_alone_equal_rows_in_a_batch(self, design):
        X, weight = self.rows(design)
        g = _pullback(design, *_table(design, X)[:3], weight)
        for i in range(len(X)):
            alone = _pullback(design, *_table(design, X[i : i + 1])[:3], weight[i : i + 1])
            np.testing.assert_array_equal(alone[0], g[i])


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


def _design(Q=(2, 3, 1), V=(2, 1), d=(2,)):
    """``ModelDesign`` with zero arrays of these shapes (C fits Q's first two)."""
    return ModelDesign(Q=np.zeros(Q), C=np.zeros(Q[:2]), V=np.zeros(V), d=np.zeros(d))


def _sample_coleman(N, seed):
    """``sample_counts`` of Coleman's M1 at the zero parameter vector."""
    return sample_counts(datasets.coleman_design_m1(), Theta(lam=np.zeros(8), eta=np.zeros(4)), N, seed)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: _design(Q=(2, 3)), "Q must have shape (m, k, t)", id="Q-2d"),
        pytest.param(lambda: _design(Q=(2, 3, 0)), "all design dimensions must be positive", id="Q-empty"),
        pytest.param(lambda: _design(V=(3, 3)), "V must have shape (m=2, u>=1), got (3, 3)", id="V-shape"),
        pytest.param(lambda: _design(d=(3,)), "d must have shape (2,), got (3,)", id="d-shape"),
        pytest.param(lambda: Theta(lam=[[1.0]], eta=[0.0]), "lam and eta must be vectors", id="theta-matrix"),
        pytest.param(lambda: Theta(lam=[math.nan], eta=[0.0]), "parameter values must be finite", id="theta-nan"),
        pytest.param(
            lambda: Theta.from_vector(datasets.coleman_design_m1(), np.zeros(3)),
            "expected parameter vector of length 12, got (3,)", id="theta-length",
        ),
        pytest.param(
            lambda: LatentParams(w=np.array([0.5, 0.5]), P=np.array([[0.5]])),
            "w must be length m and P shape (m, k)", id="latent-shapes",
        ),
        pytest.param(
            lambda: LatentParams(w=np.array([1.5, -0.5]), P=np.array([[0.5], [0.5]])),
            "class weights must be finite and nonnegative", id="latent-negative-weight",
        ),
        pytest.param(
            lambda: ManifestDistribution(p=[0.2, 0.3, 0.5]),
            "manifest vector length must be a power of two >= 2", id="manifest-length",
        ),
        pytest.param(lambda: pattern_index([]), "pattern must be a nonempty vector", id="pattern-empty"),
        pytest.param(lambda: all_patterns(0), "k must be positive", id="patterns-k"),
        pytest.param(
            lambda: sample_counts(datasets.coleman_design_m1(), Theta(lam=np.zeros(8), eta=np.zeros(4)), 0, 1),
            "N must be >= 1, got 0", id="sample-N",
        ),
        pytest.param(lambda: _sample_coleman(200.5, 1), "N must be an integer, got 200.5", id="sample-N-float"),
        pytest.param(lambda: _sample_coleman(True, 1), "N must be an integer, got True", id="sample-N-bool"),
        pytest.param(lambda: _sample_coleman(200, 1.5), "seed must be an integer, got 1.5", id="sample-seed-float"),
        pytest.param(lambda: _sample_coleman(200, -1), "seed must be >= 0, got -1", id="sample-seed-negative"),
        pytest.param(lambda: _sample_coleman(200, True), "seed must be an integer, got True", id="sample-seed-bool"),
        pytest.param(
            lambda: _sample_coleman(200, (1, 2)), "seed must be an integer, got (1, 2)", id="sample-seed-tuple"
        ),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
