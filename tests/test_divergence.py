import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmdiv.divergence import (
    HSpec, _divergence, _phi_divergence, _terms, identity_h, phi_divergence, power,
)
from lcmdiv.errors import DomainError

SHIPPED_A = (-1.0, -0.5, 0.0, 2.0 / 3.0, 1.0, 2.0)


def simplex(draw, n, positive=True):
    floor = 0.05 if positive else 0.0
    raw = np.array(draw(st.lists(st.floats(floor, 1.0), min_size=n, max_size=n)))
    raw = raw + 1e-9
    return raw / raw.sum()


class TestPowerFamily:
    @pytest.mark.parametrize("a", SHIPPED_A)
    def test_one_maps_to_zero(self, a):
        assert power(a).value(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_pearson_member_closed_form(self):
        spec = power(1.0)
        for x in (0.0, 0.5, 2.0, 7.5):
            assert spec.value(x) == pytest.approx((x - 1.0) ** 2 / 2.0, rel=1e-14)

    def test_likelihood_member_value(self):
        assert power(0.0).value(2.0) == pytest.approx(0.3862943611198906, abs=1e-12)

    @pytest.mark.parametrize("a", SHIPPED_A)
    def test_unit_curvature(self, a):
        # phi''(1) = 1 is what lets the statistics scale by 2N / h'(0) alone.
        spec, h = power(a), 1e-4
        second = (spec.value(1.0 + h) - 2.0 * spec.value(1.0) + spec.value(1.0 - h)) / h**2
        assert second == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a", SHIPPED_A)
    @given(x=st.floats(0.01, 20.0), y=st.floats(0.01, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_convexity(self, a, x, y):
        spec = power(a)
        mid = spec.value((x + y) / 2.0)
        assert mid <= (spec.value(x) + spec.value(y)) / 2.0 + 1e-12

    def test_boundary_limits(self):
        # phi(0+) and lim phi(x)/x against direct evaluation far into the tails;
        # log-rate divergences are checked for growth rather than magnitude.
        for a in SHIPPED_A:
            spec = power(a)
            at_zero = spec.value(0.0)
            if math.isfinite(at_zero):
                assert spec.value(1e-12) == pytest.approx(at_zero, rel=1e-5)
            else:
                assert spec.value(0.0) == math.inf
                assert spec.value(1e-12) > spec.value(1e-6) > spec.value(1e-3)
            slope = spec.slope_limit()
            if math.isfinite(slope):
                assert spec.value(1e12) / 1e12 == pytest.approx(slope, rel=1e-5)
            else:
                ratios = [spec.value(x) / x for x in (1e3, 1e6, 1e12)]
                assert ratios[2] > ratios[1] > ratios[0] > 1.0

    def test_gradient_weight_closed_form(self):
        for a in SHIPPED_A:
            spec = power(a)
            for x in (0.2, 0.7, 1.0, 2.5):
                h = 1e-5 * x
                slope = (spec.value(x + h) - spec.value(x - h)) / (2.0 * h)
                direct = spec.value(x) - x * slope
                weight = _terms(a, np.array([x]))[1][0]
                assert weight == pytest.approx(direct, rel=1e-7, abs=1e-9)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            power(1.0).value(-0.1)
        with pytest.raises(DomainError):
            power(1.0).value(np.array([0.5, -0.1]))


class TestPhiDivergence:
    @pytest.mark.parametrize("a", SHIPPED_A)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_self_divergence_zero(self, a, data):
        p = simplex(data.draw, 5)
        assert phi_divergence(p, p, power(a)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a", SHIPPED_A)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, a, data):
        p = simplex(data.draw, 4)
        q = simplex(data.draw, 4)
        assert phi_divergence(p, q, power(a)) >= 0.0

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            bump = np.zeros(5)
            bump[0], bump[1] = 1e-3, -1e-3
            q = p + bump
            assert phi_divergence(p, q, power(2.0 / 3.0)) > 1e-10
            assert phi_divergence(p, p, power(2.0 / 3.0)) < 1e-10

    def test_kullback_two_cell_value(self):
        value = phi_divergence([0.5, 0.5], [0.25, 0.75], power(0.0))
        assert value == pytest.approx(0.1438410362, abs=1e-9)

    def test_pearson_form(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        direct = 0.5 * np.sum((p - q) ** 2 / q)
        assert phi_divergence(p, q, power(1.0)) == pytest.approx(direct, rel=1e-12)

    def test_length_and_normalization_errors(self):
        with pytest.raises(DomainError):
            phi_divergence([0.5, 0.5], [0.3, 0.3, 0.4], power(0.0))
        with pytest.raises(DomainError):
            phi_divergence([0.6, 0.6], [0.5, 0.5], power(0.0))


class TestZeroCellConventions:
    def test_matching_zeros_contribute_nothing(self):
        p = [0.0, 0.4, 0.6]
        q = [0.0, 0.5, 0.5]
        value = phi_divergence(p, q, power(1.0))
        expected = 0.5 * ((0.4 - 0.5) ** 2 / 0.5 + (0.6 - 0.5) ** 2 / 0.5)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_cell_uses_slope_limit(self):
        # q_i = 0 with p_i > 0 contributes p_i * lim phi(x)/x; at a = -1 the
        # limit is exactly 1.
        p = [0.2, 0.3, 0.5]
        q = [0.0, 0.4, 0.6]
        spec = power(-1.0)
        finite_part = 0.4 * spec.value(0.3 / 0.4) + 0.6 * spec.value(0.5 / 0.6)
        assert spec.slope_limit() == pytest.approx(1.0, abs=1e-15)
        assert phi_divergence(p, q, spec) == pytest.approx(finite_part + 0.2 * 1.0, rel=1e-12)

    def test_empty_first_argument_cell_diverges_at_reverse_kl(self):
        # Reverse-KL member: an empty cell in the first argument gives +inf,
        # which downstream statistics report as a flagged rejection.
        assert phi_divergence([0.0, 1.0], [0.5, 0.5], power(-1.0)) == math.inf

    def test_empty_first_argument_cell_finite_above(self):
        for a in (-0.5, 0.0, 2.0 / 3.0, 1.0):
            value = phi_divergence([0.0, 1.0], [0.5, 0.5], power(a))
            assert math.isfinite(value)

    @pytest.mark.parametrize("a", [-2.0, -1.0, -0.5, 0.0, 2.0 / 3.0, 1.0])
    def test_model_cell_too_small_for_the_ratio_takes_the_empty_cell_limit(self, a):
        # 0.25 / 1e-320 overflows to inf; the cell takes the limit it has at exactly 0.
        p = [0.5, 0.25, 0.25, 0.0]
        value = phi_divergence(p, [0.5, 0.5, 1e-320, 0.0], power(a))
        assert value == phi_divergence(p, [0.5, 0.5, 0.0, 0.0], power(a))
        if a == -2.0:
            assert value == 0.25
        if a >= 0.0:
            assert value == math.inf

    def test_overflowing_ratio_changes_only_its_own_row(self):
        P = np.array([[0.5, 0.25, 0.25, 0.0], [0.4, 0.3, 0.2, 0.1]])
        Q = np.array([[0.5, 0.5, 1e-320, 0.0], [0.25, 0.25, 0.25, 0.25]])
        values = _phi_divergence(power(-0.5), P, Q)
        assert values[0] == _phi_divergence(power(-0.5), P[:1], np.array([[0.5, 0.5, 0.0, 0.0]]))[0]
        assert values[0] == phi_divergence(P[0], Q[0], power(-0.5))
        assert values[1] == _phi_divergence(power(-0.5), P[1:], Q[1:])[0]

    @pytest.mark.parametrize("a", [-1.0, -0.5, 0.0, 2.0 / 3.0])
    def test_divergence_finds_lost_cells_row_by_row(self, a):
        # An ordinary row, then a row with a 0 = 0 cell, data in an empty model
        # cell, and data in a subnormal model cell whose ratio overflows.
        P = np.array([[0.4, 0.3, 0.2, 0.1], [0.5, 0.0, 0.25, 0.25]])
        Q = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.0, 1e-320]])
        value, weight, lost = _divergence(a, P, Q)
        np.testing.assert_array_equal(lost, [[False] * 4, [False, False, True, True]])
        # The 0 = 0 and lost cells take the ratio 1: they add nothing and weigh 0.
        assert np.all(weight[1, 1:] == 0.0)
        assert value[1] == _divergence(a, P[1, :1], Q[1, :1])[0]
        for row in range(2):
            alone = _divergence(a, P[row], Q[row])
            assert alone[0] == value[row]
            np.testing.assert_array_equal(alone[1], weight[row])
            np.testing.assert_array_equal(alone[2], lost[row])

    def test_kl_with_empty_cells_matches_classical_form(self):
        # Termwise q*phi0(p/q) = p*log(p/q) - p + q, so summing over normalized
        # vectors reproduces the classical form with the 0*log(0) = 0 rule.
        p = np.array([0.0, 0.25, 0.75])
        q = np.array([0.1, 0.4, 0.5])
        expected = 0.25 * math.log(0.25 / 0.4) + 0.75 * math.log(0.75 / 0.5)
        assert phi_divergence(p, q, power(0.0)) == pytest.approx(expected, rel=1e-12)


class TestHTransforms:
    ALL = (
        identity_h(),
        HSpec(tag="renyi", a=2.0),
        HSpec(tag="renyi", a=0.5),
        HSpec(tag="sharma_mittal", a=2.0, b=3.0),
        HSpec(tag="bhattacharyya"),
    )

    @pytest.mark.parametrize("h", ALL, ids=lambda h: h.tag)
    def test_zero_maps_to_zero(self, h):
        assert h.value(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_bhattacharyya_value(self):
        assert HSpec(tag="bhattacharyya").value(0.5) == pytest.approx(
            0.6931471805599453, abs=1e-12
        )

    def test_renyi_value(self):
        assert HSpec(tag="renyi", a=2.0).value(0.1) == pytest.approx(
            0.0911607783969772, abs=1e-10
        )

    def test_sharma_mittal_value(self):
        h = HSpec(tag="sharma_mittal", a=2.0, b=3.0)
        x = 0.1
        expected = ((1 + 2 * x) ** 2 - 1) / 2.0
        assert h.value(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("h", ALL, ids=lambda h: h.tag)
    def test_slope_at_zero_matches_finite_difference(self, h):
        eps = 1e-8
        fd = h.value(eps) / eps
        assert h.slope_at_zero() == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("h", ALL, ids=lambda h: h.tag)
    def test_increasing(self, h):
        xs = np.linspace(0.0, 0.9, 15)
        values = [h.value(x) for x in xs]
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize(
        "h",
        (identity_h(), HSpec("renyi", a=2.0), HSpec("sharma_mittal", a=2.0, b=0.5), HSpec("bhattacharyya")),
        ids=lambda h: h.tag,
    )
    def test_nan_refused(self, h):
        with pytest.raises(DomainError, match=re.escape("h transforms are defined for x >= 0")):
            h.value(math.nan)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            HSpec(tag="bhattacharyya").value(1.0)
        with pytest.raises(DomainError):
            HSpec(tag="renyi", a=0.5).value(5.0)  # 1 + a(a-1)x goes negative
        with pytest.raises(DomainError):
            HSpec(tag="sharma_mittal", a=-1.0, b=2.0)  # slope at zero would be negative
        with pytest.raises(DomainError):
            HSpec(tag="renyi", a=1.0)
        with pytest.raises(DomainError):
            HSpec(tag="nope")
        # An index the transform does not take is refused, not dropped.
        for tag, indices in (("identity", {"a": 2.0}), ("bhattacharyya", {"b": 3.0}),
                             ("renyi", {"a": 2.0, "b": 7.0})):
            with pytest.raises(DomainError, match="takes no index"):
                HSpec(tag=tag, **indices)
        # A non-finite index is refused, not carried into a NaN or constant statistic.
        for tag, indices in (("renyi", {"a": math.nan}), ("renyi", {"a": -math.inf}),
                             ("sharma_mittal", {"a": math.inf, "b": 0.5}),
                             ("sharma_mittal", {"a": 2.0, "b": math.nan})):
            with pytest.raises(DomainError, match="finite index"):
                HSpec(tag=tag, **indices)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: phi_divergence([[0.5, 0.5]], [0.5, 0.5], power(0.0)), "p must be a vector", id="p-matrix"
        ),
        pytest.param(
            lambda: phi_divergence([1.5, -0.5], [0.5, 0.5], power(0.0)),
            "p must have finite nonnegative entries", id="p-negative",
        ),
        pytest.param(
            lambda: HSpec(tag="renyi", a=2.0).value(-1.0), "h transforms are defined for x >= 0", id="h-negative"
        ),
        *(
            pytest.param(
                lambda a=a, x=x: power(a).value(x), "phi is only defined for finite x >= 0", id=f"phi-{a:.3g}-at-{x}"
            )
            for a in (-2.0, -1.0, -0.5, 0.0, 2.0 / 3.0, 1.0)
            for x in (math.inf, math.nan)
        ),
        pytest.param(
            lambda: power(0.0).value(np.array([0.5, math.nan])), "phi is only defined for finite x >= 0",
            id="phi-nan-entry",
        ),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
