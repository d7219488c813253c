import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import chdtrc

from lcmdiv import datasets
from lcmdiv.datasets import simulation_null_design, simulation_theta0
from lcmdiv.divergence import HSpec, _phi_divergence, identity_h, phi_divergence, power
from lcmdiv.errors import DomainError, NotConvergedError
from lcmdiv.estimation import FitOptions, fit, fit_chain
from lcmdiv.inference import (
    WARNINGS,
    chi2_quantile,
    gof_rows,
    gof_statistic,
    nested_S,
    nested_T,
    resolve_gof_dof,
    sequential_selection,
    _result,
    _rule,
)
from lcmdiv.model import (
    ManifestDistribution,
    ModelDesign,
    NestedChain,
    ObservedCounts,
    Theta,
    manifest_distribution,
    sample_counts,
)

from conftest import (
    COLEMAN_REF_A_GRID,
    COLEMAN_REF_T_ROW,
    assert_same_bits,
    make_design,
    random_theta,
    result_fields,
)


# ---------------------------------------------------------------------------
# Hand-coded regularized incomplete gamma (series + continued fraction), used
# purely as an independent oracle for the chi-square survival function.
# ---------------------------------------------------------------------------


def _gamma_upper_reg(a, x, iters=300, eps=1e-14):
    if x < a + 1.0:
        # lower series
        term = 1.0 / a
        total = term
        for n in range(1, iters):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * eps:
                break
        lower = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return 1.0 - lower
    # upper continued fraction (Lentz)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, iters):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


class TestChiSquare:
    def test_reference_quantiles(self):
        assert chi2_quantile(0.95, 4) == pytest.approx(9.49, abs=0.005)
        assert chi2_quantile(0.95, 2) == pytest.approx(5.99, abs=0.005)
        assert chi2_quantile(0.95, 1) == pytest.approx(3.84, abs=0.005)

    def test_rule_p_value_at_zero_is_one(self):
        # A negative statistic takes the p-value of zero; an undefined one has none.
        for dof in (1, 2, 7, 19):
            p_value = _rule([0.0, -1.0, math.nan], dof, 0.05, [True] * 3).p_value
            np.testing.assert_array_equal(p_value, [1.0, 1.0, math.nan])

    def test_rule_p_value_against_hand_coded_oracle(self):
        x = [0.1, 1.0, 3.84, 9.49, 25.0, 80.0]
        for dof in (1, 2, 4, 9, 19, 40):
            p_value = _rule(x, dof, 0.05, [True] * len(x)).p_value
            for xi, p in zip(x, p_value):
                assert abs(p - _gamma_upper_reg(dof / 2.0, xi / 2.0)) < 1e-10

    def test_quantile_sf_roundtrip(self):
        for dof in (1, 4, 19, 120, 400):
            for q in (0.5, 0.9, 0.95, 0.99, 0.999999):
                assert chdtrc(dof, chi2_quantile(q, dof)) == pytest.approx(1 - q, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi2_quantile(1.5, 3)


@pytest.fixture(scope="module")
def uniform_perfect_fit():
    """Design, exactly-proportional counts, and the converged fit (objective 0)."""
    design = ModelDesign(
        Q=np.ones((2, 3, 2)), C=np.zeros((2, 3)), V=np.ones((2, 2)), d=np.zeros(2)
    )
    counts = ObservedCounts(n=np.full(8, 25))
    result = fit(design, counts, power(2.0 / 3.0), FitOptions(starts=4, seed=0))
    assert result.converged and result.objective < 1e-12
    return design, counts, result


@pytest.fixture(scope="module")
def empty_cell_fit():
    """The design above fitted to counts with one empty cell, where ``D_{-1}`` is infinite."""
    design = ModelDesign(
        Q=np.ones((2, 3, 2)), C=np.zeros((2, 3)), V=np.ones((2, 2)), d=np.zeros(2)
    )
    counts = ObservedCounts(n=[25] * 7 + [0])
    result = fit(design, counts, power(2.0 / 3.0), FitOptions(starts=4, seed=0))
    assert result.converged and np.all(result.manifest.p > 0.0)
    return design, counts, result


class TestGofStatistic:
    def test_perfect_fit_gives_zero(self, uniform_perfect_fit):
        design, counts, result = uniform_perfect_fit
        test = gof_statistic(design, counts, power(1.0), result)
        assert test.statistic == pytest.approx(0.0, abs=1e-9)
        assert not test.reject

    def test_refuses_unconverged_fit(self):
        design = make_design(seed=71, k=3, m=2, t=2, u=1)
        counts = ObservedCounts(n=[50, 0, 3, 7, 9, 4, 2, 25])
        bad = fit(design, counts, power(-1.0), FitOptions(starts=2, seed=0))
        with pytest.raises(NotConvergedError):
            gof_statistic(design, counts, power(0.0), bad)

    def test_pearson_member_equals_direct_sum(self):
        design = make_design(seed=72, k=3, m=2, t=2, u=1)
        counts = sample_counts(design, random_theta(design, seed=73), 700, seed=74)
        result = fit(design, counts, power(2.0 / 3.0), FitOptions(starts=6, seed=1))
        test = gof_statistic(design, counts, power(1.0), result)
        n, N, p = counts.n, counts.N, result.manifest.p
        direct = float(np.sum((n - N * p) ** 2 / (N * p)))
        assert test.statistic == pytest.approx(direct, rel=1e-10)

    def test_likelihood_member_equals_divergence_form(self, coleman_design, coleman_counts, coleman_fit_23):
        test = gof_statistic(coleman_design, coleman_counts, power(0.0), coleman_fit_23)
        direct = 2.0 * coleman_counts.N * phi_divergence(
            coleman_counts.p_hat(), coleman_fit_23.manifest.p, power(0.0)
        )
        assert test.statistic == pytest.approx(direct, rel=1e-10)

    def test_coleman_central_members(self, coleman_design, coleman_counts, coleman_sweep_fits):
        # The published row is T^{phi_{2/3}}(theta_hat_{phi_a}); acceptance
        # criterion 1 checks all nine members, this the central estimator indices.
        for a, ref, estimate in zip(COLEMAN_REF_A_GRID, COLEMAN_REF_T_ROW, coleman_sweep_fits):
            if a not in (0.0, 2.0 / 3.0, 1.0):
                continue
            test = gof_statistic(coleman_design, coleman_counts, power(2.0 / 3.0), estimate)
            assert test.statistic == pytest.approx(ref, abs=0.02)
            assert test.dof == 4
            assert not test.reject

    def test_coleman_row_to_published_rounding(
        self, coleman_design, coleman_counts, coleman_sweep_fits
    ):
        # All nine members to the row's 3-decimal rounding.  The row varies by
        # only 0.004, so a sweep that reused one estimate for every estimator
        # index would miss its ends.
        values = [
            gof_statistic(coleman_design, coleman_counts, power(2.0 / 3.0), estimate).statistic
            for estimate in coleman_sweep_fits
        ]
        assert values == pytest.approx(COLEMAN_REF_T_ROW, abs=5e-4)

    def test_dof_policies(self, coleman_design, coleman_counts, coleman_fit_23):
        by_rank = gof_statistic(coleman_design, coleman_counts, power(0.0), coleman_fit_23)
        assert by_rank.dof == 16 - 11 - 1 and by_rank.dof_policy == "rank"
        nominal = gof_statistic(
            coleman_design, coleman_counts, power(0.0), coleman_fit_23, dof_policy="nominal"
        )
        assert nominal.dof == 16 - 12 - 1
        override = gof_statistic(
            coleman_design, coleman_counts, power(0.0), coleman_fit_23, dof_override=7
        )
        assert override.dof == 7 and override.dof_policy == "override:7"

    def test_dof_is_the_designs_not_the_estimates(
        self, coleman_design, coleman_counts, coleman_fit_23
    ):
        # The test's dof comes from the design's generic rank.
        assert resolve_gof_dof(coleman_design) == (16 - 11 - 1, "rank")
        test = gof_statistic(coleman_design, coleman_counts, power(0.0), coleman_fit_23)
        assert test.dof == 4 and test.dof_policy == "rank"

    def test_decision_route_consistency(self, coleman_design, coleman_counts, coleman_fit_23):
        for a in (-1.0, 0.0, 1.0, 3.0):
            for alpha in (0.01, 0.05, 0.5, 0.99):
                t = gof_statistic(coleman_design, coleman_counts, power(a), coleman_fit_23, alpha=alpha)
                assert t.reject == (t.statistic > t.critical) == (t.p_value < t.alpha)


class TestGofStatisticH:
    def test_identity_transform_matches_plain(self, coleman_design, coleman_counts, coleman_fit_23):
        plain = gof_statistic(coleman_design, coleman_counts, power(1.0), coleman_fit_23)
        transformed = gof_statistic(
            coleman_design, coleman_counts, power(1.0), coleman_fit_23, h=identity_h()
        )
        assert transformed == plain

    def test_perfect_fit_gives_zero(self, uniform_perfect_fit):
        design, counts, result = uniform_perfect_fit
        test = gof_statistic(design, counts, power(1.0), result, h=HSpec(tag="bhattacharyya"))
        assert test.statistic == pytest.approx(0.0, abs=1e-9)

    def test_small_divergence_agreement(self, coleman_design, coleman_counts, coleman_fit_23):
        # First-order: h(x) ~ h'(0) x, so the transformed statistic sits within
        # 1% of the untransformed one on a well-fitting model.
        plain = gof_statistic(coleman_design, coleman_counts, power(2.0 / 3.0), coleman_fit_23)
        for h in (HSpec(tag="bhattacharyya"), HSpec(tag="renyi", a=2.0),
                  HSpec(tag="sharma_mittal", a=2.0, b=3.0)):
            transformed = gof_statistic(
                coleman_design, coleman_counts, power(2.0 / 3.0), coleman_fit_23, h=h
            )
            assert transformed.statistic == pytest.approx(plain.statistic, rel=0.01)

    def test_infinite_divergence_takes_a_bounded_limit(self, empty_cell_fit):
        # h(inf) = 1 / (1 - b) and h'(0) = a, so the statistic is 2N / (a (1 - b)).
        design, counts, result = empty_cell_fit
        h = HSpec(tag="sharma_mittal", a=2.0, b=0.5)
        test = gof_statistic(design, counts, power(-1.0), result, h=h)
        assert test.statistic == pytest.approx(2 * counts.N / (2.0 * (1 - 0.5)))
        assert test.warnings == ("infinite_divergence",)

    @pytest.mark.parametrize("h", [HSpec(tag="renyi", a=0.5), HSpec(tag="bhattacharyya")])
    def test_infinite_divergence_outside_a_bounded_domain_is_refused(self, empty_cell_fit, h):
        design, counts, result = empty_cell_fit
        with pytest.raises(DomainError):
            gof_statistic(design, counts, power(-1.0), result, h=h)

    def test_infinite_divergence_under_the_identity_stays_infinite(self, empty_cell_fit):
        design, counts, result = empty_cell_fit
        test = gof_statistic(design, counts, power(-1.0), result)
        assert math.isinf(test.statistic) and test.reject
        assert test.warnings == ("infinite_statistic",)

    def test_bhattacharyya_domain_failure(self):
        # One exchangeable class cannot fit mass split between the two corner
        # patterns; the Pearson divergence exceeds 1, outside the domain.
        design = ModelDesign(
            Q=np.ones((1, 3, 1)), C=np.zeros((1, 3)), V=np.ones((1, 1)), d=np.zeros(1)
        )
        counts = ObservedCounts(n=[497, 1, 1, 1, 1, 1, 1, 497])
        result = fit(design, counts, power(2.0 / 3.0), FitOptions(starts=4, seed=2))
        assert result.converged
        D = phi_divergence(counts.p_hat(), result.manifest.p, power(1.0))
        assert D >= 1.0
        with pytest.raises(DomainError):
            gof_statistic(design, counts, power(1.0), result, h=HSpec(tag="bhattacharyya"))


class TestGofRows:
    """The stacked routine against :func:`gof_statistic`, row by row, bit for bit."""

    @pytest.fixture(scope="class")
    def rows(self, uniform_perfect_fit):
        # (counts, fit) pairs on the eight-cell design, each fit the converged
        # one with its manifest swapped for a synthetic row.
        design, _, result = uniform_perfect_fit
        n = np.array([25, 30, 20, 25, 26, 24, 25, 25])
        p_hat = n / n.sum()

        def row(counts, q):
            manifest = ManifestDistribution(p=np.asarray(q, dtype=np.float64))
            return ObservedCounts(n=counts), replace(result, manifest=manifest)

        tiny = p_hat.copy()  # p_hat ~= q: the raw divergence at 2/3 is a tiny negative
        tiny[6] += 2.0**-54
        tiny[5] -= 2.0**-54
        zero_q = np.append(p_hat[:-1] / p_hat[:-1].sum(), 0.0)  # q = 0 < p_hat in the last cell
        subnormal = p_hat.copy()  # p_hat / q overflows: the cell takes the q = 0 limit
        subnormal[0] += subnormal[7]
        subnormal[7] = 5e-324
        return design, {
            "regular": row(n, np.full(8, 0.125)),
            "tiny": row(n, tiny),
            "zero_q": row(n, zero_q),
            "empty": row(np.append(n[:-1], 0), np.full(8, 0.125)),
            "subnormal": row(n, subnormal),
        }

    def check(self, design, cases, phi1, h=identity_h()):
        counts = [c for c, _ in cases]
        fits = [f for _, f in cases]
        dof = resolve_gof_dof(design)[0]
        P_hat = np.array([c.p_hat() for c in counts])
        P = np.array([f.manifest.p for f in fits])
        stacked = gof_rows(phi1, P_hat, P, [c.N for c in counts], dof, 0.05, h)
        singles = [gof_statistic(design, c, phi1, f, 0.05, h=h) for c, f in cases]
        for i, one in enumerate(singles):
            for name in ("statistic", "p_value"):
                assert float(getattr(stacked, name)[i]).hex() == getattr(one, name).hex(), name
            assert stacked.critical.hex() == one.critical.hex()
            assert bool(stacked.reject[i]) is one.reject
            code = int(stacked.warnings[i])
            assert tuple(w for bit, w in enumerate(WARNINGS) if code >> bit & 1) == one.warnings
            D = phi_divergence(counts[i].p_hat(), fits[i].manifest.p, phi1)
            assert float(_phi_divergence(phi1, P_hat, P)[i]).hex() == D.hex()
        return singles

    def test_slope_limit_rows(self, rows):
        design, r = rows
        finite, infinite = (
            self.check(design, [r["regular"], r["zero_q"]], power(a))[1] for a in (-0.5, 2.0 / 3.0)
        )
        assert math.isfinite(finite.statistic) and finite.warnings == ()
        assert math.isinf(infinite.statistic) and infinite.warnings == ("infinite_statistic",)

    def test_clamped_tiny_negative(self, rows):
        from lcmdiv.divergence import _divergence

        design, r = rows
        counts, result = r["tiny"]
        assert -1e-15 < _divergence(2.0 / 3.0, counts.p_hat(), result.manifest.p)[0] < 0.0
        test = self.check(design, [r["regular"], r["tiny"], r["regular"]], power(2.0 / 3.0))[1]
        assert test.statistic == 0.0 and test.p_value == 1.0 and test.warnings == ()

    def test_empty_cell_at_index_minus_one(self, rows):
        design, r = rows
        test = self.check(design, [r["empty"], r["regular"]], power(-1.0))[0]
        assert test.reject and test.warnings == ("infinite_statistic",)

    def test_bounded_h_on_an_infinite_divergence(self, rows):
        design, r = rows
        h = HSpec(tag="sharma_mittal", a=2.0, b=0.5)
        test = self.check(design, [r["regular"], r["empty"]], power(-1.0), h)[1]
        assert test.statistic == 2 * r["empty"][0].N / (2.0 * (1 - 0.5))
        assert test.warnings == ("infinite_divergence",)

    def test_bhattacharyya_outside_its_domain(self, rows):
        design, r = rows
        h = HSpec(tag="bhattacharyya")
        (counts, result), regular = r["empty"], r["regular"]
        with pytest.raises(DomainError) as one:
            gof_statistic(design, counts, power(-1.0), result, h=h)
        with pytest.raises(DomainError) as stacked:
            gof_rows(
                power(-1.0), np.array([regular[0].p_hat(), counts.p_hat()]),
                np.array([regular[1].manifest.p, result.manifest.p]), [regular[0].N, counts.N], 6,
                0.05, h,
            )
        assert str(stacked.value) == str(one.value)

    def test_subnormal_row_takes_the_empty_cell_limit(self, rows):
        design, r = rows
        finite, infinite = (
            self.check(design, [r["subnormal"], r["regular"]], power(a))[0] for a in (-0.5, 2.0 / 3.0)
        )
        assert math.isfinite(finite.statistic) and finite.warnings == ()
        assert math.isinf(infinite.statistic) and infinite.reject
        assert infinite.warnings == ("infinite_statistic",)

    def test_degenerate_dof_row(self, rows):
        # At dof <= 0 the null is a point mass at zero: a positive statistic
        # rejects with p-value 0, a zero one is accepted with p-value 1.
        design, r = rows
        counts, regular = r["regular"]
        P_hat = np.array([counts.p_hat(), counts.p_hat()])
        P = np.array([regular.manifest.p, counts.p_hat()])
        for dof in (0, -1):
            stacked = gof_rows(power(2.0 / 3.0), P_hat, P, [counts.N] * 2, dof, 0.05)
            assert stacked.statistic[0] > 0.0 and stacked.statistic[1] == 0.0
            assert stacked.reject.tolist() == [True, False]
            assert stacked.p_value.tolist() == [0.0, 1.0]
            assert stacked.critical == 0.0
        assert resolve_gof_dof(design)[0] > 0

    def test_empty_stack(self):
        stacked = gof_rows(power(2.0 / 3.0), np.empty((0, 8)), np.empty((0, 8)), [], 6, 0.05)
        assert [len(field) for field in stacked if not isinstance(field, float)] == [0] * 4
        assert stacked.reject.dtype == bool and stacked.warnings.dtype == np.int64


class TestNestedPair:
    """A nested pair is the chain of one step."""

    def test_free_param_counts(self, coleman_chain):
        pair = NestedChain(coleman_chain.design, (coleman_chain.mask(2),))
        assert (pair.free_params(1), pair.free_params(2)) == (12, 10)

    def test_design_restriction_shapes(self):
        design = make_design(seed=81, k=3, m=2, t=4, u=2)
        pair = NestedChain(design, (((1, 3), ()),))
        sub = pair.model_design(2)
        assert sub.t == 2 and sub.u == 2
        assert pair.model_design(1) is design

    def test_restriction_matches_zeroed_full_model(self):
        design = make_design(seed=83, k=3, m=2, t=3, u=2)
        pair = NestedChain(design, (((2,), (1,)),))
        theta_b = random_theta(pair.model_design(2), seed=84)
        p_sub = manifest_distribution(pair.model_design(2), theta_b).p
        # theta_B in A's coordinates: lam (l1, l2, 0), eta (e1, 0).
        theta_a = Theta(lam=[*theta_b.lam, 0.0], eta=[*theta_b.eta, 0.0])
        p_full = manifest_distribution(design, theta_a).p
        np.testing.assert_allclose(p_sub, p_full, rtol=1e-13)
        assert pair.free_columns(2) == [0, 1, 3]

    def test_validation(self):
        design = make_design(seed=85, k=3, m=2, t=2, u=1)
        with pytest.raises(DomainError, match="out of range"):
            NestedChain(design, (((5,), ()),))
        with pytest.raises(DomainError, match="every lambda"):
            NestedChain(design, (((0, 1), ()),))  # would empty the lambda block
        with pytest.raises(DomainError, match="unique"):
            NestedChain(design, (((1, 1), ()),))


@pytest.fixture(scope="module")
def synthetic_pair():
    design = make_design(seed=91, k=3, m=2, t=3, u=1)
    pair = NestedChain(design, (((2,), ()),))
    truth = Theta(lam=np.array([0.6, -0.4, 0.5]), eta=np.array([0.3]))
    counts = sample_counts(design, truth, 1200, seed=92)
    return pair, counts


class TestNestedStatistics:
    def test_identical_models_give_zero(self, synthetic_pair):
        pair, counts = synthetic_pair
        # The one design fitted twice: a dof-0 test, which no chain step expresses.
        fit_A, fit_B = (fit(pair.design, counts, power(0.0), FitOptions(starts=5, seed=3)) for _ in "AB")
        s = nested_S(counts, power(0.0), fit_A, fit_B)
        t = nested_T(counts, power(0.0), fit_A, fit_B)
        assert s.statistic == pytest.approx(0.0, abs=1e-9)
        assert t.statistic == pytest.approx(0.0, abs=1e-9)
        assert s.dof == 0 and s.p_value == 1.0 and not s.reject

    def test_classical_likelihood_ratio_equality(self, synthetic_pair):
        pair, counts = synthetic_pair
        fit_A, fit_B = fit_chain(pair, counts, power(0.0), FitOptions(starts=8, seed=4))
        s = nested_S(counts, power(0.0), fit_A, fit_B)
        assert s.dof == pair.free_params(1) - pair.free_params(2) == 1
        pos = counts.n > 0
        direct = 2.0 * float(
            np.sum(counts.n[pos] * np.log(fit_A.manifest.p[pos] / fit_B.manifest.p[pos]))
        )
        assert s.statistic == pytest.approx(direct, rel=1e-9)
        assert s.statistic >= 0

    def test_pearson_nested_form(self, synthetic_pair):
        pair, counts = synthetic_pair
        fit_A, fit_B = fit_chain(pair, counts, power(0.0), FitOptions(starts=8, seed=5))
        t = nested_T(counts, power(1.0), fit_A, fit_B)
        pA, pB = fit_A.manifest.p, fit_B.manifest.p
        direct = counts.N * float(np.sum((pA - pB) ** 2 / pB))
        assert t.statistic == pytest.approx(direct, rel=1e-10)
        assert t.statistic >= 0

    def test_h_transforms_reduce_to_identity(self, synthetic_pair):
        pair, counts = synthetic_pair
        fits = fit_chain(pair, counts, power(2.0 / 3.0), FitOptions(starts=6, seed=6))
        for test in (nested_S, nested_T):
            assert test(counts, power(2.0 / 3.0), *fits) == test(
                counts, power(2.0 / 3.0), *fits, h=identity_h()
            )

    def test_h_transform_small_statistic_agreement(self, synthetic_pair):
        pair, counts = synthetic_pair
        fits = fit_chain(pair, counts, power(2.0 / 3.0), FitOptions(starts=6, seed=7))
        plain = nested_T(counts, power(2.0 / 3.0), *fits)
        renyi = nested_T(counts, power(2.0 / 3.0), *fits, h=HSpec(tag="renyi", a=2.0))
        assert renyi.statistic == pytest.approx(plain.statistic, rel=0.01)

    def test_h_transform_agreement_on_coleman_pair(self, coleman_counts, coleman_chain_fits):
        fa, fb = coleman_chain_fits[1], coleman_chain_fits[2]
        for test in (nested_S, nested_T):
            plain = test(coleman_counts, power(2.0 / 3.0), fa, fb)
            transformed = test(coleman_counts, power(2.0 / 3.0), fa, fb, h=HSpec(tag="bhattacharyya"))
            assert transformed.statistic == pytest.approx(plain.statistic, rel=0.01)

    def test_nonnegative_when_transforms_match(self, synthetic_pair):
        pair, counts = synthetic_pair
        for a in (-0.5, 0.0, 2.0 / 3.0, 1.0):
            fits = fit_chain(pair, counts, power(a), FitOptions(starts=8, seed=8))
            s = nested_S(counts, power(a), *fits)
            assert s.statistic >= -1e-12

    @staticmethod
    def decide(statistic, dof, phi1, kind, dof_policy, divergences):
        """One statistic through the decision rule, as the nested tests decide it."""
        rows = _rule([statistic], dof, 0.05, [all(map(math.isfinite, divergences))])
        return _result(rows, dof, 0.05, phi1, power(0.0), None, kind, dof_policy)

    def test_negative_statistic_flagged_not_clamped(self):
        result = self.decide(-0.37, 2, power(3.0), "nested_S", "nominal_difference", ())
        assert result.statistic == -0.37
        assert "negative_statistic" in result.warnings
        assert not result.reject

    def test_infinite_statistic_flagged_as_rejection(self):
        result = self.decide(math.inf, 4, power(-1.0), "gof", "rank", ())
        assert result.reject and result.p_value == 0.0
        assert "infinite_statistic" in result.warnings

    @pytest.mark.parametrize("dof", [2, 0])
    def test_undefined_statistic_flagged_never_rejects(self, dof):
        result = self.decide(math.nan, dof, power(-1.0), "nested_S", "nominal_difference", ())
        assert math.isnan(result.statistic) and math.isnan(result.p_value)
        assert not result.reject
        assert result.warnings == ("undefined_statistic",)

    def test_finite_statistic_on_an_infinite_divergence_is_flagged(self):
        # A bounded h maps an infinite divergence to a finite statistic.
        result = self.decide(350.0, 2, power(-1.0), "nested_S_h", "nominal_difference", (0.2, math.inf))
        assert result.reject and result.warnings == ("infinite_divergence",)
        for statistic, flag in ((math.inf, "infinite_statistic"), (math.nan, "undefined_statistic")):
            result = self.decide(statistic, 2, power(-1.0), "nested_S", "nominal_difference",
                                 (math.inf, math.inf))
            assert result.warnings == (flag,)

    @pytest.mark.parametrize("dof", [3, 0, -1])
    def test_stacked_rule_equals_the_one_row_rule(self, dof):
        # Every kind of row at once: each is decided as it is alone.
        statistic = [math.nan, 0.0, -0.0, math.inf, -0.37, 350.0, 7.9, 1e-13]
        finite = [True, True, True, False, True, False, True, True]
        stacked = _rule(statistic, dof, 0.05, finite)
        assert repr(stacked.statistic.tolist()) == repr(statistic)  # -0.0 kept
        for i, (s, f) in enumerate(zip(statistic, finite)):
            one = _rule([s], dof, 0.05, [f])
            assert one.critical.hex() == stacked.critical.hex()
            for name in ("statistic", "p_value", "reject", "warnings"):
                assert getattr(one, name).dtype == getattr(stacked, name).dtype
                assert getattr(one, name).tobytes() == getattr(stacked, name)[i : i + 1].tobytes(), name
        codes = stacked.warnings.tolist()
        assert codes[0] == 1 and codes[4] == 4 and codes[5] == 8
        assert codes[3] == (2 if dof > 0 else 0)

    def test_infinite_minus_infinite_is_flagged(self):
        # Three empty cells make both divergences infinite at index -1.
        design = simulation_null_design()
        counts = sample_counts(design, simulation_theta0(), 200, seed=3)
        assert np.count_nonzero(counts.n == 0) == 3
        fits = fit_chain(
            NestedChain(design, (((6,), ()),)), counts, power(0.0),
            FitOptions(starts=2, seed=1, grad_tol=1e-6),
        )
        result = nested_S(counts, power(-1.0), *fits)
        assert math.isnan(result.statistic) and math.isnan(result.p_value)
        assert not result.reject
        assert result.warnings == ("undefined_statistic",)


    def test_bounded_h_on_an_infinite_divergence_of_B(self, synthetic_pair):
        # B's manifest with a zero cell that A fills: D_B is infinite, D_A is not,
        # and a bounded h keeps the difference finite.
        pair, counts = synthetic_pair
        fit_A, fit_B = fit_chain(pair, counts, power(0.0), FitOptions(starts=3, seed=1))
        q = fit_B.manifest.p.copy()
        q[1] += q[0]
        q[0] = 0.0
        fit_B = replace(fit_B, manifest=ManifestDistribution(p=q))
        assert counts.n[0] > 0
        h = HSpec(tag="sharma_mittal", a=2.0, b=0.5)
        result = nested_S(counts, power(0.0), fit_A, fit_B, h=h)
        assert math.isfinite(result.statistic) and result.reject
        assert result.warnings == ("infinite_divergence",)
        assert nested_T(counts, power(0.0), fit_A, fit_B, h=h).warnings == ("infinite_divergence",)

    def test_subnormal_cell_of_B_takes_the_empty_cell_limit(self, synthetic_pair):
        # A's cell over B's subnormal one overflows; T takes the limit it has at q = 0.
        pair, counts = synthetic_pair
        fit_A, fit_B = fit_chain(pair, counts, power(0.0), FitOptions(starts=3, seed=1))
        results = []
        for cell in (5e-324, 0.0):
            q = fit_B.manifest.p.copy()
            q[1] += q[0] - cell
            q[0] = cell
            fit_q = replace(fit_B, manifest=ManifestDistribution(p=q))
            results.append(nested_T(counts, power(-0.5), fit_A, fit_q))
        assert math.isfinite(results[0].statistic) and results[0].warnings == ()
        assert results[0].statistic == results[1].statistic


class TestNestedBoundary:
    def test_more_parameters_in_B_is_refused(self, synthetic_pair):
        pair, counts = synthetic_pair
        fit_A, fit_B = fit_chain(pair, counts, power(0.0), FitOptions(starts=3, seed=1))
        for test in (nested_S, nested_T):
            with pytest.raises(DomainError, match="more parameters"):
                test(counts, power(0.0), fit_B, fit_A)

    def test_different_estimators_are_refused(self, synthetic_pair):
        pair, counts = synthetic_pair
        options = FitOptions(starts=3, seed=1)
        fit_A = fit(pair.model_design(1), counts, power(0.0), options)
        fit_B = fit(pair.model_design(2), counts, power(2.0 / 3.0), options)
        for test in (nested_S, nested_T):
            with pytest.raises(DomainError, match="same estimator"):
                test(counts, power(0.0), fit_A, fit_B)

    def test_unconverged_fit_is_refused(self, synthetic_pair):
        pair, counts = synthetic_pair
        fit_A, fit_B = fit_chain(pair, counts, power(0.0), FitOptions(starts=1, max_iters=1))
        assert not fit_B.converged
        with pytest.raises(NotConvergedError):
            nested_T(counts, power(0.0), fit_A, fit_B)


class TestColemanChain:
    def test_dof_column(self, coleman_chain):
        dofs = [
            coleman_chain.free_params(level) - coleman_chain.free_params(level + 1)
            for level in (1, 2, 3)
        ]
        assert dofs == [2, 1, 1]
        criticals = [chi2_quantile(0.95, d) for d in dofs]
        assert criticals[0] == pytest.approx(5.99, abs=0.005)
        assert criticals[1] == pytest.approx(3.84, abs=0.005)

    def test_chain_basis_reproduces_original_optimum(
        self, coleman_chain_fits, coleman_fit_23
    ):
        assert coleman_chain_fits[1].objective == pytest.approx(
            coleman_fit_23.objective, rel=1e-6
        )

    def test_selection_adopts_second_model(self, coleman_chain, coleman_counts):
        result = sequential_selection(
            coleman_chain,
            coleman_counts,
            power(2.0 / 3.0),
            power(2.0 / 3.0),
            alpha=0.05,
            statistic="S",
            options=FitOptions(starts=30, seed=5),
        )
        assert result.selected == 2
        assert not result.tests[0].reject and result.tests[1].reject

    def test_chain_validation(self):
        design = make_design(seed=95, k=3, m=2, t=3, u=1)
        with pytest.raises(DomainError, match="strictly grow"):
            NestedChain(design=design, steps=(((0,), ()), ((0,), ())))  # no growth
        with pytest.raises(DomainError, match="strictly grow"):
            NestedChain(design=design, steps=(((0, 1), ()), ((0,), ())))  # shrinks
        with pytest.raises(DomainError, match="unique"):
            NestedChain(design=design, steps=(((0,), ()), ((0, 0, 1), ())))  # repeats an index


class TestFitChain:
    """Every model of a chain is a row of one batch over the base design."""

    def test_model_1_is_the_fit_of_the_base_design(
        self, coleman_chain, coleman_counts, coleman_chain_fits
    ):
        alone = fit(coleman_chain.design, coleman_counts, power(2.0 / 3.0), FitOptions(starts=30, seed=5))
        assert_same_bits(result_fields(coleman_chain_fits[1]), result_fields(alone))

    def test_rows_do_not_depend_on_the_rest_of_the_chain(
        self, coleman_chain, coleman_counts, coleman_chain_fits
    ):
        # Model B of the pair is model 2 of the four-model chain, bit for bit.
        pair = NestedChain(coleman_chain.design, (coleman_chain.mask(2),))
        fit_A, fit_B = fit_chain(pair, coleman_counts, power(2.0 / 3.0), FitOptions(starts=30, seed=5))
        assert_same_bits(result_fields(fit_A), result_fields(coleman_chain_fits[1]))
        assert_same_bits(result_fields(fit_B), result_fields(coleman_chain_fits[2]))

    def test_reduced_models_reach_their_own_fits(self, coleman_chain, coleman_counts):
        # A reduced model moves only by rounding: the base design's kernel
        # also sums its zero coordinates.  Its point is a Theta of its own design.
        options, spec = FitOptions(seed=1), power(2.0 / 3.0)
        fits = fit_chain(coleman_chain, coleman_counts, spec, options)
        assert len(fits) == coleman_chain.n_models
        for level, chained in enumerate(fits, start=1):
            design = coleman_chain.model_design(level)
            alone = fit(design, coleman_counts, spec, options)
            assert chained.converged and alone.converged
            assert abs(chained.objective - alone.objective) <= 1e-12 * alone.objective
            assert (chained.theta_hat.lam.size, chained.theta_hat.eta.size) == (design.t, design.u)
            assert chained.theta_hat.vector().size == coleman_chain.free_params(level)


    def test_warm_start_is_a_point_of_the_base_design(
        self, coleman_chain, coleman_counts, coleman_chain_fits
    ):
        # Each model launches from the base point's restriction to its free
        # columns, then from its own draws.
        spec, base = power(2.0 / 3.0), coleman_chain.design
        options = FitOptions(starts=3, seed=2, init_theta=coleman_chain_fits[1].theta_hat)
        fits = fit_chain(coleman_chain, coleman_counts, spec, options)
        assert_same_bits(result_fields(fits[0]), result_fields(fit(base, coleman_counts, spec, options)))
        for level, chained in enumerate(fits[1:], start=2):
            design = coleman_chain.model_design(level)
            restricted = Theta.from_vector(design, options.init_theta.vector()[coleman_chain.free_columns(level)])
            alone = fit(design, coleman_counts, spec, replace(options, init_theta=restricted))
            assert chained.traces[0].converged and alone.traces[0].converged
            assert abs(chained.traces[0].objective - alone.traces[0].objective) <= 1e-12 * alone.traces[0].objective
        # The walk takes the same options, and adopts model 2 as the cold walk does.
        result = sequential_selection(coleman_chain, coleman_counts, spec, spec, options=options)
        assert result.selected == 2
        assert not result.tests[0].reject and result.tests[1].reject
        wrong = Theta(lam=np.zeros(base.t - 2), eta=np.zeros(base.u))  # a point of model 2
        with pytest.raises(DomainError, match="design expects"):
            fit_chain(coleman_chain, coleman_counts, spec, replace(options, init_theta=wrong))


class TestSequentialSelection:
    def test_nothing_rejected_selects_smallest(self):
        design = make_design(seed=96, k=3, m=2, t=3, u=1)
        truth = Theta(lam=np.array([0.8, 0.0, 0.0]), eta=np.array([0.2]))
        counts = sample_counts(design, truth, 800, seed=97)
        chain = NestedChain(design=design, steps=(((2,), ()), ((1, 2), ())))
        result = sequential_selection(
            chain, counts, power(0.0), power(0.0), options=FitOptions(starts=6, seed=9)
        )
        assert result.selected == 3
        assert len(result.tests) == 2 and not any(t.reject for t in result.tests)

    def test_calibration_selects_middle_model(self):
        # Data generated from the middle model of a three-model chain: the
        # walk should stop there in roughly a 1 - alpha share of replications.
        design = make_design(seed=98, k=3, m=2, t=3, u=1, logit_scale=1.0)
        chain = NestedChain(design=design, steps=(((2,), ()), ((1, 2), ())))
        truth = Theta(lam=np.array([0.7, 1.4, 0.0]), eta=np.array([0.4]))
        picks = []
        for rep in range(120):
            counts = sample_counts(design, truth, 1500, seed=10_000 + rep)
            result = sequential_selection(
                chain, counts, power(2.0 / 3.0), power(2.0 / 3.0),
                options=FitOptions(starts=3, seed=rep),
            )
            picks.append(result.selected)
        rate = np.mean([p == 2 for p in picks])
        assert rate >= 0.85


class TestNullCalibration:
    def test_rejection_rate_matches_nominal_level(self):
        # Correctly specified small model, N = 1000, 1000 seeded replications:
        # the exact binomial 99% interval around the observed rate must reach
        # a value inside the logit-band around the nominal 5% level.
        from scipy.stats import beta as beta_dist

        from lcmdiv.montecarlo import dale_band

        design = make_design(seed=201, k=3, m=2, t=2, u=1, logit_scale=1.0)
        theta0 = Theta(lam=np.array([0.6, -0.8]), eta=np.array([0.5]))
        alpha = 0.05
        rejections = 0
        effective = 0
        for rep in range(1000):
            counts = sample_counts(design, theta0, 1000, seed=40_000 + rep)
            result = fit(
                design, counts, power(2.0 / 3.0),
                FitOptions(starts=2, seed=rep, init_theta=theta0, grad_tol=1e-6),
            )
            if not result.converged:
                continue
            effective += 1
            test = gof_statistic(design, counts, power(2.0 / 3.0), result, alpha=alpha)
            rejections += test.reject
        assert effective >= 950
        lo99 = 0.0 if rejections == 0 else beta_dist.ppf(0.005, rejections, effective - rejections + 1)
        hi99 = beta_dist.ppf(0.995, rejections + 1, effective - rejections)
        band = dale_band(alpha)
        assert lo99 <= band[1] and hi99 >= band[0]


class TestStatisticSpread:
    def _relative_spread(self, design, theta0, N, seed):
        counts = sample_counts(design, theta0, N, seed=seed)
        result = fit(
            design, counts, power(2.0 / 3.0),
            FitOptions(starts=4, seed=seed, init_theta=theta0),
        )
        assert result.converged
        values = [
            gof_statistic(design, counts, power(a), result).statistic
            for a in COLEMAN_REF_A_GRID
        ]
        return (max(values) - min(values)) / np.mean(values)

    def test_family_members_coalesce_as_n_grows(self, coleman_design, coleman_fit_23):
        # Asymptotic equivalence: on data drawn from the model, the relative
        # spread of the sweep shrinks like 1/sqrt(N).  At the Coleman sample
        # size the spread is typically a few percent (measured 1-11% over
        # seeds), so the tight sub-percent regime only appears at larger N.
        theta0 = coleman_fit_23.theta_hat
        small = [self._relative_spread(coleman_design, theta0, 3_398, seed) for seed in range(3)]
        large = [self._relative_spread(coleman_design, theta0, 339_800, seed) for seed in range(3)]
        assert np.median(large) < np.median(small)
        assert np.median(large) < 0.01

    def test_near_equality_on_observed_coleman_data(
        self, coleman_design, coleman_counts, coleman_sweep_fits
    ):
        # The published row T^{phi_{2/3}}(theta_hat_{phi_a}) is nearly flat in
        # the estimator index a.
        values = [
            gof_statistic(coleman_design, coleman_counts, power(2.0 / 3.0), estimate).statistic
            for estimate in coleman_sweep_fits
        ]
        spread = max(values) - min(values)
        assert spread < 0.01 * np.mean(values)


def test_benchmark_traced_names_resolve():
    # perfbench/tracing.py wraps these functions by name; a fold or rename in
    # the package would otherwise only surface as a crash of the traced run.
    import importlib
    import importlib.util
    from pathlib import Path

    import lcmdiv

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TARGETS:
        module = importlib.import_module(f"lcmdiv.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"lcmdiv.{layer}.{name}"
    for name in lcmdiv.__all__:
        assert hasattr(lcmdiv, name), name


def test_bench_script_imports_resolve():
    # scripts/bench.py imports private names of the package (_fit_batch,
    # _evaluate, _replicate_chunk, ...); a rename would otherwise only surface
    # when the next performance record is written.
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
    saved_path, saved_modules = list(sys.path), dict(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("lcmdiv_bench_script", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path[:] = saved_path
        sys.modules.clear()
        sys.modules.update(saved_modules)
    assert callable(bench.layer_timings)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda fit23: chi2_quantile(0.5, 0), "dof must be >= 1", id="quantile-dof"),
        pytest.param(
            lambda fit23: resolve_gof_dof(simulation_null_design(), "rank", 0),
            "dof override must be >= 1, got 0", id="dof-override",
        ),
        pytest.param(
            lambda fit23: resolve_gof_dof(simulation_null_design(), "rank", 2.7),
            "dof override must be an integer, got 2.7", id="dof-override-float",
        ),
        pytest.param(
            lambda fit23: resolve_gof_dof(simulation_null_design(), "taped"),
            "unknown dof policy: 'taped'", id="dof-policy",
        ),
        pytest.param(
            lambda fit23: gof_statistic(
                datasets.coleman_design_m1(), ObservedCounts(n=np.ones(32, dtype=np.int64)),
                power(2.0 / 3.0), fit23,
            ),
            "counts and fitted distribution have different lengths", id="gof-cells",
        ),
        pytest.param(
            lambda fit23: datasets.coleman_chain().mask(5), "model level must be in [1, 4]", id="chain-level"
        ),
        pytest.param(
            lambda fit23: datasets.coleman_chain().free_params(2.0),
            "model level must be an integer, got 2.0", id="chain-level-float",
        ),
        pytest.param(
            # Was silently truncated: 6.7 zeroed lambda7, True zeroed lambda2.
            lambda fit23: NestedChain(datasets.coleman_design_chain_basis(), (((6.7, 7), ()),)),
            "zeroed lambda index must be an integer, got 6.7", id="chain-index-float",
        ),
        pytest.param(
            lambda fit23: NestedChain(datasets.coleman_design_chain_basis(), (((6,), (True,)),)),
            "zeroed eta index must be an integer, got True", id="chain-index-bool",
        ),
        # A malformed step is refused by name, not by Python's unpacking.
        pytest.param(
            lambda fit23: NestedChain(datasets.coleman_design_chain_basis(), (((1,),),)),
            "chain step 1 must be a pair (zero_lambda, zero_eta) of index sequences, got ((1,),)",
            id="chain-step-short",
        ),
        pytest.param(
            lambda fit23: NestedChain(datasets.coleman_design_chain_basis(), (((1,), (), ()),)),
            "chain step 1 must be a pair (zero_lambda, zero_eta) of index sequences, got ((1,), (), ())",
            id="chain-step-long",
        ),
        pytest.param(
            lambda fit23: NestedChain(datasets.coleman_design_chain_basis(), (((1,), ()), 5)),
            "chain step 2 must be a pair (zero_lambda, zero_eta) of index sequences, got 5",
            id="chain-step-not-a-pair",
        ),
        pytest.param(
            lambda fit23: NestedChain(datasets.coleman_design_chain_basis(), ((5, ()),)),
            "chain step 1 must be a pair (zero_lambda, zero_eta) of index sequences, got (5, ())",
            id="chain-step-bare-index",
        ),
        pytest.param(
            # Refused before any fit.
            lambda fit23: sequential_selection(
                datasets.coleman_chain(), datasets.coleman_counts(), power(0.0), power(0.0), statistic="U"
            ),
            "statistic must be 'S' or 'T'", id="selection-statistic",
        ),
    ],
)
def test_refusals_name_their_cause(coleman_fit_23, call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call(coleman_fit_23)
