import math
import pickle
import warnings

import numpy as np
import pytest

from lcmdiv import estimation
from lcmdiv.datasets import simulation_plan
from lcmdiv.divergence import power
from lcmdiv.errors import DomainError
from lcmdiv.estimation import (
    FitOptions,
    canonical_class_order,
    canonicalize,
    fit,
    fit_many,
    fit_mle,
    objective_and_gradient,
)
from lcmdiv.model import (
    LatentParams,
    ModelDesign,
    ObservedCounts,
    Theta,
    all_patterns,
    log_likelihood,
    manifest_distribution,
    sample_counts,
)

from conftest import make_design, random_theta, reference_class_pattern_probs, scipy_bfgs_fit


def tv_distance(p, q):
    return 0.5 * float(np.sum(np.abs(p - q)))


class TestObjectiveAndGradient:
    def test_perfect_fit_is_zero(self):
        # Counts exactly proportional to the model at theta = 0 (uniform cells).
        design = ModelDesign(
            Q=np.ones((2, 3, 2)), C=np.zeros((2, 3)), V=np.ones((2, 2)), d=np.zeros(2)
        )
        counts = ObservedCounts(n=np.full(8, 5))
        value, grad = objective_and_gradient(design, counts, power(2.0 / 3.0), Theta.zeros(design))
        assert value == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)

    @pytest.mark.parametrize("a", (-0.5, 0.0, 2.0 / 3.0, 1.0, 2.0))
    def test_gradient_matches_finite_differences(self, a):
        design = make_design(seed=41, k=3, m=2, t=3, u=2)
        counts = sample_counts(design, random_theta(design, seed=42), 600, seed=43)
        theta = random_theta(design, seed=44, scale=0.6)
        value, grad = objective_and_gradient(design, counts, power(a), theta)
        x0 = theta.vector()
        for i in range(x0.size):
            e = np.zeros_like(x0)
            e[i] = 1e-6
            up, _ = objective_and_gradient(design, counts, power(a), Theta.from_vector(design, x0 + e))
            dn, _ = objective_and_gradient(design, counts, power(a), Theta.from_vector(design, x0 - e))
            fd = (up - dn) / 2e-6
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_infinite_objective_reported(self):
        design = make_design(seed=45, k=2, m=2, t=2, u=1)
        counts = ObservedCounts(n=[10, 0, 5, 5])  # empty cell
        value, grad = objective_and_gradient(design, counts, power(-1.0), random_theta(design, 46))
        assert value == math.inf
        assert np.all(np.isnan(grad))


class TestValidationBoundary:
    """Arguments are checked at the entry points; the fit loop runs on raw vectors."""

    @pytest.fixture
    def sim_null(self):
        plan = simulation_plan(sample_sizes=(200,), replications=1, seed=3)
        counts = sample_counts(plan.null_design, plan.theta0, 200, seed=4)
        return plan, counts

    @pytest.mark.parametrize("starts", (1, 3))
    def test_no_theta_per_evaluation(self, monkeypatch, sim_null, starts):
        plan, counts = sim_null
        built = []
        post_init = Theta.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(Theta, "__post_init__", counting)
        options = FitOptions(starts=starts, seed=1, init_theta=plan.theta0)
        result = fit(plan.null_design, counts, power(2.0 / 3.0), options)
        assert result.converged
        assert sum(t.evaluations for t in result.traces) > 30 * starts
        assert len(built) == 1  # theta_hat

    def test_traces_count_kernel_evaluations(self, monkeypatch, sim_null):
        plan, counts = sim_null
        rows = []
        kernel = estimation._evaluate

        def counting(design, x, *args, **kwargs):
            rows.append(len(np.atleast_2d(x)))
            return kernel(design, x, *args, **kwargs)

        monkeypatch.setattr(estimation, "_evaluate", counting)
        result = fit(plan.null_design, counts, power(2.0 / 3.0), FitOptions(starts=3, seed=1))
        assert result.converged
        assert all(t.evaluations > t.iterations for t in result.traces)
        # One kernel row per objective evaluation, plus one for the result;
        # the starts share kernel calls.
        assert sum(t.evaluations for t in result.traces) + 1 == sum(rows)
        assert len(rows) < sum(rows)

    def test_loop_refuses_non_finite_vector(self, sim_null):
        plan, counts = sim_null
        x = plan.theta0.vector()
        x[0] = np.inf
        with pytest.raises(DomainError, match="finite"):
            estimation._objective(plan.null_design, counts.p_hat(), 2.0 / 3.0, x)

    def test_entry_points_check_arguments(self, sim_null):
        plan, counts = sim_null
        wrong = Theta(lam=np.zeros(plan.null_design.t + 1), eta=np.zeros(plan.null_design.u))
        with pytest.raises(DomainError):
            objective_and_gradient(plan.null_design, counts, power(0.0), wrong)
        with pytest.raises(DomainError):
            fit(plan.null_design, counts, power(0.0), FitOptions(starts=1, init_theta=wrong))
        with pytest.raises(DomainError, match="number of items"):
            fit(plan.null_design, ObservedCounts(n=[1, 2, 3, 4]), power(0.0))


class TestFit:
    def test_recovers_truth_with_exact_data(self):
        # Counts proportional to the model distribution to float precision.
        design = make_design(seed=51, k=3, m=2, t=2, u=1)
        theta0 = random_theta(design, seed=52, scale=0.5)
        p = manifest_distribution(design, theta0).p
        counts = ObservedCounts(n=np.rint(p * 10_000_000).astype(np.int64))
        result = fit(design, counts, power(2.0 / 3.0), FitOptions(starts=8, seed=1))
        assert result.converged
        assert tv_distance(result.manifest.p, p) < 1e-3

    def test_estimator_family_agreement_on_model_data(self):
        design = make_design(seed=53, k=3, m=2, t=2, u=1)
        theta0 = random_theta(design, seed=54, scale=0.5)
        p = manifest_distribution(design, theta0).p
        counts = ObservedCounts(n=np.rint(p * 10_000_000).astype(np.int64))
        manifests = []
        for a in (-0.5, 0.0, 2.0 / 3.0, 1.0):
            result = fit(design, counts, power(a), FitOptions(starts=8, seed=2))
            assert result.converged
            manifests.append(result.manifest.p)
        for m in manifests[1:]:
            assert tv_distance(manifests[0], m) < 1e-6

    def test_seeded_determinism(self):
        design = make_design(seed=55, k=3, m=2, t=2, u=1)
        counts = sample_counts(design, random_theta(design, seed=56), 400, seed=57)
        opts = FitOptions(starts=5, seed=11)
        r1 = fit(design, counts, power(0.0), opts)
        r2 = fit(design, counts, power(0.0), opts)
        np.testing.assert_array_equal(r1.theta_hat.vector(), r2.theta_hat.vector())
        assert r1.objective == r2.objective
        assert [t.objective for t in r1.traces] == [t.objective for t in r2.traces]

    def test_best_converged_start_wins(self):
        design = make_design(seed=58, k=3, m=2, t=3, u=1)
        counts = sample_counts(design, random_theta(design, seed=59), 500, seed=60)
        result = fit(design, counts, power(2.0 / 3.0), FitOptions(starts=12, seed=3))
        assert result.converged
        converged_objectives = [t.objective for t in result.traces if t.converged]
        assert result.objective == min(converged_objectives)
        assert np.max(np.abs(_grad_at(design, counts, result))) <= 1e-8

    def test_reverse_kl_with_empty_cells_refuses(self):
        design = make_design(seed=61, k=3, m=2, t=2, u=1)
        counts = ObservedCounts(n=[50, 0, 3, 7, 9, 4, 2, 25])
        result = fit(design, counts, power(-1.0), FitOptions(starts=3, seed=4))
        assert not result.converged
        assert "infinite" in result.message
        assert result.empty_cells

    def test_empty_cells_flagged_but_fit_proceeds_above(self):
        design = make_design(seed=62, k=3, m=2, t=2, u=1)
        counts = ObservedCounts(n=[50, 0, 3, 7, 9, 4, 2, 25])
        result = fit(design, counts, power(0.0), FitOptions(starts=6, seed=5))
        assert result.converged and result.empty_cells

    def test_result_consistency_invariants(self, coleman_fit_23):
        r = coleman_fit_23
        assert r.converged and r.objective >= 0
        assert abs(float(r.manifest.p.sum()) - 1.0) <= 1e-12
        np.testing.assert_allclose(
            r.manifest.p,
            manifest_distribution_from(r),
            atol=1e-10,
        )

    def test_coleman_objective_value(self, coleman_fit_23, coleman_counts):
        # 2N * objective is the headline fit statistic, about 1.277.
        T = 2 * coleman_counts.N * coleman_fit_23.objective
        assert T == pytest.approx(1.277, abs=0.02)

    def test_coleman_objective_dominates_published_point(
        self, coleman_design, coleman_counts, coleman_fit_23
    ):
        from conftest import COLEMAN_REF_ETA, COLEMAN_REF_LAMBDA

        ref = Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA)
        at_ref, _ = objective_and_gradient(
            coleman_design, coleman_counts, power(2.0 / 3.0), ref
        )
        assert coleman_fit_23.objective <= at_ref


def _cell_fits(N, lambda8, replications, seed=1):
    """A cell's plan, its sampled data sets and the study's single-start options."""
    plan = simulation_plan(sample_sizes=(N,), lambda8_grid=(lambda8,), seed=seed)
    design, theta = plan.true_model(lambda8)
    counts = [sample_counts(design, theta, N, seed=seed * 1000 + rep) for rep in range(replications)]
    options = FitOptions(
        starts=1, grad_tol=plan.fit_grad_tol, max_iters=plan.fit_max_iters,
        init_theta=plan.theta0,
    )
    return plan, counts, options


class TestBatchedFit:
    """One batched BFGS fits every start of every data set."""

    @pytest.mark.parametrize("lambda8", (0.0, 2.0))
    def test_reaches_the_scipy_optimum(self, lambda8):
        # scipy's BFGS on the same objective is the reference.  The batched
        # fit may find a lower stationary point, never a higher one, and
        # fails no more often.
        plan, counts, options = _cell_fits(200, lambda8, 25)
        fits = fit_many(plan.null_design, counts, power(plan.estimator_a), [options] * len(counts))
        oracle = [
            scipy_bfgs_fit(
                plan.null_design, c, plan.estimator_a, plan.theta0.vector(),
                options.grad_tol, options.max_iters,
            )
            for c in counts
        ]
        assert sum(not r.converged for r in fits) <= sum(not ok for _, ok in oracle)
        for result, (value, ok) in zip(fits, oracle):
            if result.converged and ok:
                assert result.objective <= value + 1e-7

    def test_batch_composition_does_not_matter(self):
        plan, counts, _ = _cell_fits(200, 2.0, 9, seed=4)
        options = [
            FitOptions(starts=2, grad_tol=1e-6, max_iters=300, seed=i, init_theta=plan.theta0)
            for i in range(len(counts))
        ]
        spec = power(plan.estimator_a)
        whole = fit_many(plan.null_design, counts, spec, options)
        assert all(r.converged for r in whole)
        for size in (1, 3, 7):
            parts = []
            for lo in range(0, len(counts), size):
                parts += fit_many(
                    plan.null_design, counts[lo : lo + size], spec, options[lo : lo + size]
                )
            assert [pickle.dumps(r) for r in parts] == [pickle.dumps(r) for r in whole]
        alone = fit(plan.null_design, counts[5], spec, options[5])
        assert pickle.dumps(alone) == pickle.dumps(whole[5])

    def test_one_options_per_data_set(self):
        plan, counts, options = _cell_fits(200, 0.0, 2)
        with pytest.raises(DomainError, match="one FitOptions"):
            fit_many(plan.null_design, counts, power(0.0), [options])

    def test_failed_fit_counts_starts_by_status(self):
        plan, counts, _ = _cell_fits(200, 0.0, 1)
        options = FitOptions(starts=3, max_iters=1, seed=2, init_theta=plan.theta0)
        result = fit(plan.null_design, counts[0], power(2.0 / 3.0), options)
        assert not result.converged
        assert result.message == "no start converged: 3 max_iters"
        assert [t.status for t in result.traces] == ["max_iters"] * 3
        assert all(t.iterations == 1 and not t.converged for t in result.traces)

    def test_infinite_launch_point_is_flagged(self):
        # Logits of several hundred underflow every class at some pattern that
        # holds data, so the objective is infinite where the launch starts.
        design = make_design(seed=70, k=3, m=2, t=2, u=1)
        counts = ObservedCounts(n=[5, 6, 7, 8, 9, 10, 11, 12])
        far = Theta(lam=[900.0, -900.0], eta=[0.0])
        value, _ = objective_and_gradient(design, counts, power(0.0), far)
        assert value == math.inf
        lone = fit(design, counts, power(0.0), FitOptions(starts=1, init_theta=far))
        assert lone.message == "no start converged: 1 infinite_objective"
        assert lone.traces[0].iterations == 0 and lone.traces[0].evaluations == 1
        mixed = fit(design, counts, power(0.0), FitOptions(starts=4, seed=3, init_theta=far))
        assert mixed.converged
        assert [t.status for t in mixed.traces][0] == "infinite_objective"

    def test_coleman_wide_starts_warn_nothing(self, infinite_rows, coleman_design, coleman_counts):
        # Starts drawn with scale 5 meet underflowed cells and overflowing
        # ratios; the objective flags them as infinite without a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit(
                coleman_design, coleman_counts, power(2.0 / 3.0),
                FitOptions(starts=30, seed=1, init_scale=5.0),
            )
        assert sum(infinite_rows) > 0
        assert result.converged
        assert 2 * coleman_counts.N * result.objective == pytest.approx(1.277, abs=0.02)


def manifest_distribution_from(result):
    P = np.asarray(result.latent.P)
    return np.asarray(result.latent.w) @ reference_class_pattern_probs(P, all_patterns(P.shape[1]))


def _grad_at(design, counts, result):
    _, grad = objective_and_gradient(design, counts, result.spec, result.theta_hat)
    return grad


class TestFitMle:
    def test_alias_of_power_zero(self):
        design = make_design(seed=63, k=3, m=2, t=2, u=1)
        counts = sample_counts(design, random_theta(design, seed=64), 300, seed=65)
        opts = FitOptions(starts=4, seed=9)
        r1 = fit_mle(design, counts, opts)
        r2 = fit(design, counts, power(0.0), opts)
        np.testing.assert_array_equal(r1.theta_hat.vector(), r2.theta_hat.vector())
        assert r1.objective == r2.objective

    def test_likelihood_identity_holds(self):
        design = make_design(seed=66, k=3, m=2, t=2, u=1)
        counts = sample_counts(design, random_theta(design, seed=67), 500, seed=68)
        result = fit_mle(design, counts, FitOptions(starts=4, seed=10))
        assert result.converged  # identity check inside fit_mle did not raise

    def test_mle_dominates_other_members_in_likelihood(
        self, coleman_design, coleman_counts, coleman_fit_23, coleman_fit_mle
    ):
        ll_mle = log_likelihood(coleman_counts, coleman_fit_mle.manifest)
        ll_23 = log_likelihood(coleman_counts, coleman_fit_23.manifest)
        assert ll_mle >= ll_23


class TestCanonicalization:
    def test_orders_by_weight_then_first_item(self):
        latent = LatentParams(
            w=np.array([0.2, 0.5, 0.3]),
            P=np.array([[0.9, 0.1], [0.4, 0.5], [0.8, 0.2]]),
        )
        order = canonical_class_order(latent)
        np.testing.assert_array_equal(order, [1, 2, 0])
        canon = canonicalize(latent)
        np.testing.assert_allclose(canon.w, [0.5, 0.3, 0.2])

    def test_tie_broken_by_first_item_probability(self):
        latent = LatentParams(
            w=np.array([0.5, 0.5]), P=np.array([[0.2, 0.3], [0.7, 0.1]])
        )
        canon = canonicalize(latent)
        assert canon.P[0, 0] == 0.7


class TestFitOptionsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            FitOptions(starts=0)
        with pytest.raises(DomainError):
            FitOptions(grad_tol=0.0)
