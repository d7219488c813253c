import hashlib
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import multinomial

from lcmdiv import estimation, fit_chain, model
from lcmdiv.datasets import coleman_counts, coleman_design_m1, simulation_plan
from lcmdiv.divergence import _phi_divergence, phi_divergence, power
from lcmdiv.errors import DomainError
from lcmdiv.estimation import (
    FitOptions,
    canonical_class_order,
    canonicalize,
    fit,
    objective_and_gradient,
)
from lcmdiv.model import (
    LatentParams,
    ModelDesign,
    ObservedCounts,
    Theta,
    all_patterns,
    jacobian_rank,
    manifest_distribution,
    sample_counts,
)

from conftest import (
    assert_same_bits,
    make_design,
    random_theta,
    reference_class_pattern_probs,
    result_fields,
    scipy_bfgs_fit,
    table_latent,
)


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

    @pytest.mark.parametrize(
        "a, divergence", [(-0.5, 2.5314760186051695), (-1.0, 2.0040731181176925), (2.0 / 3.0, math.inf)]
    )
    def test_objective_is_infinite_where_a_cell_with_data_underflowed(self, a, divergence):
        # At lambda = 800 fifteen cells of the Coleman M1 model underflow to exactly 0, and all
        # hold data.  The objective is inf there at every index; for a < 0 the divergence takes
        # its finite limit p_hat_i * lim phi(x) / x at those cells instead.
        design, counts = coleman_design_m1(), coleman_counts()
        theta = Theta(lam=np.full(8, 800.0), eta=np.zeros(4))
        p = manifest_distribution(design, theta).p
        assert np.count_nonzero(p == 0.0) == 15 and np.all(counts.n[p == 0.0] > 0)
        assert objective_and_gradient(design, counts, power(a), theta)[0] == math.inf
        assert phi_divergence(counts.p_hat(), p, power(a)) == pytest.approx(divergence, rel=1e-12)

    @pytest.mark.parametrize("a", (-1.0, -0.5, 0.0, 2.0 / 3.0))
    @pytest.mark.parametrize("emptied", (False, True))
    def test_objective_is_infinite_exactly_on_rows_with_a_lost_cell(self, a, emptied):
        # Ordinary points stacked with points at lambda = 800, where fifteen cells
        # underflow; with the Coleman counts they hold data, emptied they do not.
        design, n = coleman_design_m1(), np.array(coleman_counts().n)
        thetas = [random_theta(design, seed=1), Theta(lam=np.full(8, 800.0), eta=np.zeros(4)),
                  random_theta(design, seed=2), Theta(lam=np.full(8, 800.0), eta=np.full(4, 0.5))]
        X = np.concatenate([model._vector(design, theta) for theta in thetas])
        p = model._table(design, X)[3]
        if emptied:
            n[(p == 0.0).any(axis=0)] = 0
        P_hat = np.tile(ObservedCounts(n=n).p_hat(), (len(thetas), 1))
        lost = ((p == 0.0) & (P_hat > 0.0)).any(axis=1)
        assert np.count_nonzero(p[1] == 0.0) == 15
        np.testing.assert_array_equal(lost, [False, not emptied, False, not emptied])
        value = estimation._objective(design, P_hat, a, X)[0]
        assert np.all(value[lost] == math.inf)
        np.testing.assert_array_equal(value[~lost], _phi_divergence(power(a), P_hat, p)[~lost])


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
        kernel = estimation._table

        def counting(design, x):
            rows.append(len(np.atleast_2d(x)))
            return kernel(design, x)

        monkeypatch.setattr(estimation, "_table", counting)
        result = fit(plan.null_design, counts, power(2.0 / 3.0), FitOptions(starts=3, seed=1))
        assert result.converged
        assert all(t.evaluations > t.iterations for t in result.traces)
        # One kernel row per objective evaluation, plus one for the result;
        # the starts share kernel calls.
        assert sum(t.evaluations for t in result.traces) + 1 == sum(rows)
        assert len(rows) < sum(rows)

    def test_loop_builds_no_jacobian(self, monkeypatch, sim_null):
        # The loop's gradient is the pull-back weight @ J and the results
        # come from the kernel table, so no fit builds a Jacobian, converged
        # or failed, one data set or many.
        plan, counts = sim_null
        calls = []
        jacobian = model._jacobian

        def counted_jacobian(*args):
            calls.append(args)
            return jacobian(*args)

        monkeypatch.setattr(model, "_jacobian", counted_jacobian)
        # The estimator holds no name of its own that would bypass the counter.
        assert not hasattr(estimation, "_jacobian") and not hasattr(estimation, "numerical_rank")
        result = fit(plan.null_design, counts, power(2.0 / 3.0), FitOptions(starts=3, seed=1))
        assert result.converged and sum(t.evaluations for t in result.traces) > 30
        for options, converged in (
            (FitOptions(starts=2), True), (FitOptions(starts=2, max_iters=1), False),
        ):
            out = _fit_rows(plan.null_design, [counts] * 2, 0.0, options, seeds=[1, 2])
            assert out[2].tolist() == [converged] * 2
        assert calls == []
        jacobian_rank(plan.null_design, plan.theta0)  # and the counter does count
        assert len(calls) == 1

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

    @pytest.mark.parametrize("a", [-1.0, -2.0])
    def test_identically_infinite_objective_ends_every_start(self, coleman_design, coleman_counts, a):
        # phi_a(0+) is infinite for a <= -1, so with an empty cell every launch
        # point has an infinite objective and each start ends after one evaluation.
        n = np.array(coleman_counts.n)
        n[3] = 0
        result = fit(coleman_design, ObservedCounts(n=n), power(a), FitOptions(starts=5, seed=1))
        assert not result.converged and result.empty_cells
        assert result.message == "no start converged: 5 infinite_objective"
        assert [t.status for t in result.traces] == ["infinite_objective"] * 5
        assert all(t.iterations == 0 and t.evaluations == 1 for t in result.traces)

    def test_identically_infinite_fit_reports_the_first_launch_point(
        self, coleman_design, coleman_counts
    ):
        n = np.array(coleman_counts.n)
        n[3] = 0
        launch = random_theta(coleman_design, seed=8)
        options = FitOptions(starts=3, seed=1, init_theta=launch)
        result = fit(coleman_design, ObservedCounts(n=n), power(-1.0), options)
        assert result.message == "no start converged: 3 infinite_objective"
        assert result.objective == math.inf
        np.testing.assert_array_equal(result.theta_hat.vector(), launch.vector())
        np.testing.assert_array_equal(
            result.manifest.p, manifest_distribution(coleman_design, launch).p
        )
        _assert_latent_is_reference(coleman_design, result)

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


def _fit_rows(design, counts, a, options, seeds=None, free=None):
    """``_fit_batch`` of the data sets ``counts`` from the launch points of ``options``,
    row ``i`` drawn with ``seeds[i]`` (by default every row with ``options.seed``) and
    moving the coordinates where ``free[i]`` is 1 (by default all), launched at 0 on the others."""
    P_hat = np.array([c.p_hat() for c in counts])
    X0 = np.array([estimation._initial_points(design, options, seed)
                   for seed in seeds or [options.seed] * len(counts)])
    free = np.ones_like(X0[:, 0]) if free is None else np.asarray(free, dtype=np.float64)
    return estimation._fit_batch(design, P_hat, a, X0 * free[:, None], free, options.grad_tol, options.max_iters)


def _columns(out):
    """Every array of a ``_fit_batch`` outcome, the per-start ones unpacked."""
    return (*out[:-1], *out[-1])


def _row_fields(out, i):
    """Row ``i`` of a ``_fit_batch`` outcome, as the fields a ``FitResult`` reports."""
    X, value, converged, w, S, p, starts = out
    return (X[i], value[i], converged[i], w[i], expit(S[i]), p[i], *(column[i] for column in starts))


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
        _, value, converged, *_ = _fit_rows(plan.null_design, counts, plan.estimator_a, options)
        oracle = [
            scipy_bfgs_fit(
                plan.null_design, c, plan.estimator_a, plan.theta0.vector(),
                options.grad_tol, options.max_iters,
            )
            for c in counts
        ]
        assert np.count_nonzero(~converged) <= sum(not ok for _, ok in oracle)
        for objective, done, (reference, ok) in zip(value, converged, oracle):
            if done and ok:
                assert objective <= reference + 1e-7

    def test_non_descent_direction_resets_the_row(self, coleman_design, coleman_counts):
        # At index 2, start 21 of a 30-start fit with seed 1 and init_scale 5
        # meets an inverse Hessian whose direction is not downhill once: the
        # row resets to the identity and still converges.  The counts are
        # those of the start within that fit.
        options = FitOptions(starts=30, seed=1, init_scale=5.0)
        X0 = estimation._initial_points(coleman_design, options, options.seed)[21:22]
        _, value, _, iterations, evaluations, restarts, status = estimation._minimize(
            coleman_design, coleman_counts.p_hat()[None], 2.0, X0, np.ones_like(X0), options.grad_tol,
            options.max_iters,
        )
        assert (iterations[0], evaluations[0], restarts[0]) == (400, 461, 1)
        assert status[0] == estimation._CONVERGED
        assert value[0] == pytest.approx(1.8983e-4, rel=1e-4)

    @pytest.mark.parametrize("a", (-0.5, 0.0, 2.0 / 3.0, 1.0, 2.0))
    def test_objective_is_the_tested_divergence(self, a):
        # The fit and the statistics share one divergence routine, so a fit's
        # objective is the divergence its tests measure, bit for bit, on data
        # with empty cells too.
        plan, counts, options = _cell_fits(200, 0.0, 40)
        assert sum(bool(np.any(c.n == 0)) for c in counts) >= 10
        _, value, converged, _, _, p, _ = _fit_rows(plan.null_design, counts, a, options)
        assert np.count_nonzero(converged) >= 35
        for c, objective, done, row in zip(counts, value, converged, p):
            if done:
                assert objective == phi_divergence(c.p_hat(), row, power(a))

    def test_batch_composition_does_not_matter(self, coleman_design, coleman_counts):
        # Rows that leave the batch at different passes, by every route: at
        # index -1 with 60 iterations the Coleman rows' starts converge or end
        # max_iters and the emptied counts have an infinite objective; at 2/3
        # with a tolerance no start reaches, every start restarts and ends
        # line_search.  Each row equals the fit of its data set alone.  The
        # last row is masked, the submodel with lambda 8 and eta 4 fixed: it
        # leaves by the same routes as its own batch, and every start ends
        # exactly at 0 on the fixed coordinates.
        n = np.array(coleman_counts.n)
        n[3] = 0
        emptied = ObservedCounts(n=n)
        mixed, seeds = [coleman_counts, coleman_counts, emptied, emptied, coleman_counts], [1, 2, 3, 4, 5]
        masked = np.ones(coleman_design.t + coleman_design.u)
        masked[[7, 11]] = 0.0
        free = [np.ones_like(masked)] * 4 + [masked]
        batches = (
            (FitOptions(starts=5, max_iters=60), -1.0),
            (FitOptions(starts=4, grad_tol=1e-14, max_iters=400), 2.0 / 3.0),
        )
        routes = []
        for options, a in batches:
            out = _fit_rows(coleman_design, mixed, a, options, seeds, free)
            status, restarts = out[-1][-1], out[-1][-2]
            routes.append([sorted({estimation._STATUSES[s] for s in row}) for row in status])
            assert (restarts[status == estimation._LINE_SEARCH] > 0).all()
            for i, (c, seed) in enumerate(zip(mixed[:4], seeds)):
                alone = fit(coleman_design, c, power(a), replace(options, seed=seed))
                assert_same_bits(_row_fields(out, i), result_fields(alone))
            alone = _fit_rows(coleman_design, mixed[4:], a, options, seeds[4:], free[4:])
            assert_same_bits(_row_fields(out, 4), _row_fields(alone, 0))
            X0 = estimation._initial_points(coleman_design, options, seeds[4]) * masked
            X, *per_start = estimation._minimize(
                coleman_design, np.tile(coleman_counts.p_hat(), (len(X0), 1)), a, X0,
                np.tile(masked, (len(X0), 1)), options.grad_tol, options.max_iters,
            )
            assert_same_bits(per_start, [column[4] for column in out[-1]])
            assert (X[:, masked == 0] == 0.0).all() and (out[0][4, masked == 0] == 0.0).all()
        assert routes == [
            [["converged", "max_iters"]] * 2 + [["infinite_objective"]] * 2 + [["converged", "max_iters"]],
            [["line_search"]] * 5,
        ]

        plan, counts, _ = _cell_fits(200, 2.0, 9, seed=4)
        options = FitOptions(starts=2, grad_tol=1e-6, max_iters=300, init_theta=plan.theta0)
        seeds = list(range(len(counts)))
        whole = _fit_rows(plan.null_design, counts, plan.estimator_a, options, seeds)
        assert whole[2].all()
        for size in (1, 3, 7):
            parts = [
                _columns(_fit_rows(plan.null_design, counts[lo : lo + size], plan.estimator_a,
                                   options, seeds[lo : lo + size]))
                for lo in range(0, len(counts), size)
            ]
            for part, field in zip(zip(*parts), _columns(whole)):
                assert np.concatenate(part).tobytes() == field.tobytes()
        alone = fit(plan.null_design, counts[5], power(plan.estimator_a), replace(options, seed=5))
        assert_same_bits(_row_fields(whole, 5), result_fields(alone))

    def test_converged_latent_is_the_kernel_table(self, coleman_design, coleman_fit_23):
        # The class weights and item probabilities come from the batch's
        # kernel table; they equal the table of the result point alone bit
        # for bit.
        plan, counts, options = _cell_fits(200, 2.0, 25)
        X, _, converged, w, S, _, _ = _fit_rows(plan.null_design, counts, plan.estimator_a, options)
        assert np.count_nonzero(converged) >= 20
        for i in np.flatnonzero(converged):
            reference = table_latent(plan.null_design, Theta.from_vector(plan.null_design, X[i]))
            np.testing.assert_array_equal(w[i], reference.w)
            np.testing.assert_array_equal(expit(S[i]), reference.P)
        _assert_latent_is_reference(coleman_design, coleman_fit_23)

    def test_failed_fit_reports_its_best_start(self):
        # No start converges; the result is the start with the smallest
        # objective where it stopped, evaluated like a converged one.
        plan, counts, _ = _cell_fits(200, 0.0, 1)
        design, spec = plan.null_design, power(2.0 / 3.0)
        result = fit(design, counts[0], spec, FitOptions(starts=4, max_iters=2, seed=1))
        assert not result.converged
        assert result.message == "no start converged: 4 max_iters"
        objectives = [t.objective for t in result.traces]
        assert result.objective == min(objectives) and objectives.index(min(objectives)) == 3
        assert result.objective == objective_and_gradient(design, counts[0], spec, result.theta_hat)[0]
        np.testing.assert_array_equal(
            result.manifest.p, manifest_distribution(design, result.theta_hat).p
        )
        _assert_latent_is_reference(design, result)

    def test_each_row_draws_its_starts_from_its_seed(self):
        # One data set in three rows: the rows seeded alike are equal bit for
        # bit, the row seeded apart launches from other random starts, and
        # each row is the fit of that data set alone with its row's seed.
        plan, counts, _ = _cell_fits(200, 0.0, 1)
        options = FitOptions(starts=3)
        seeds = [1, 2, 1]
        out = _fit_rows(plan.null_design, counts * 3, 0.0, options, seeds)
        assert_same_bits(_row_fields(out, 0), _row_fields(out, 2))
        evaluations = out[-1][3]
        assert evaluations[0].tolist() != evaluations[1].tolist()
        for i, seed in enumerate(seeds):
            alone = fit(plan.null_design, counts[0], power(0.0), replace(options, seed=seed))
            assert_same_bits(_row_fields(out, i), result_fields(alone))

    def test_launch_points_are_data(self, coleman_design, coleman_counts, coleman_fit_23):
        # Launch points no FitOptions can express: at index 1, the index-2/3
        # estimate and the origin, whose start stops at a stationary point of
        # higher objective.  Each start is the one-start batch of its point
        # bit for bit, the estimate's start is fit's, and the row keeps the
        # better start in either order.
        options = FitOptions(starts=1, init_theta=coleman_fit_23.theta_hat)
        P_hat, given = coleman_counts.p_hat()[None], coleman_fit_23.theta_hat.vector()
        points = np.array([given, np.zeros_like(given)])

        def batch(X0):
            free = np.ones_like(X0[:, 0])
            return estimation._fit_batch(coleman_design, P_hat, 1.0, X0, free, options.grad_tol, options.max_iters)

        out = batch(points[None])
        alone = [batch(x[None, None]) for x in points]
        for s, one in enumerate(alone):
            assert_same_bits([column[0, s] for column in out[-1]], [column[0, 0] for column in one[-1]])
        assert_same_bits(
            _row_fields(alone[0], 0), result_fields(fit(coleman_design, coleman_counts, power(1.0), options))
        )
        value = out[-1][0][0]
        assert out[2][0] and (out[-1][-1] == estimation._CONVERGED).all() and value[0] < value[1]
        for X0 in (points[None], points[None, ::-1]):
            X, objective, *_ = batch(X0)
            np.testing.assert_array_equal(X[0], alone[0][0][0])
            assert objective[0] == value[0]
        # Two points far out, each with an infinite objective, tie: the row
        # reports the first where it stands, in either order.
        far = np.random.default_rng(4).normal(0.0, 1000.0, size=(2, given.size))
        for X0 in (far[None], far[None, ::-1]):
            X, objective, converged, *_, starts = batch(X0)
            assert not converged[0] and objective[0] == math.inf
            assert (starts[-1] == estimation._INFINITE).all()
            np.testing.assert_array_equal(X[0], X0[0, 0])
        with pytest.raises(DomainError, match="finite"):
            batch(np.array([[given, np.full_like(given, np.nan)]]))

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


def _assert_latent_is_reference(design, result):
    reference = table_latent(design, result.theta_hat)
    np.testing.assert_array_equal(result.latent.w, reference.w)
    np.testing.assert_array_equal(result.latent.P, reference.P)


def _grad_at(design, counts, result):
    _, grad = objective_and_gradient(design, counts, result.spec, result.theta_hat)
    return grad


class TestMaximumLikelihood:
    """Maximum likelihood is the fit at power index 0."""

    def test_likelihood_identity_holds(self):
        # logL(theta_hat) + N * D_KL(p_hat, p(theta_hat)) = logL(p_hat), with the
        # multinomial log-likelihood from scipy and D_KL the index-0 divergence.
        design = make_design(seed=66, k=3, m=2, t=2, u=1)
        counts = sample_counts(design, random_theta(design, seed=67), 500, seed=68)
        result = fit(design, counts, power(0.0), FitOptions(starts=4, seed=10))
        assert result.converged
        p_hat, p = counts.p_hat(), result.manifest.p
        kl = phi_divergence(p_hat, p, power(0.0))
        assert kl == result.objective
        resid = (
            multinomial.logpmf(counts.n, counts.N, p)
            + counts.N * kl
            - multinomial.logpmf(counts.n, counts.N, p_hat)
        )
        assert abs(resid) <= 1e-6

    def test_mle_dominates_other_members_in_likelihood(
        self, coleman_counts, coleman_fit_23, coleman_fit_mle
    ):
        n = coleman_counts.n
        assert n @ np.log(coleman_fit_mle.manifest.p) >= n @ np.log(coleman_fit_23.manifest.p)


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


class TestInitialPoints:
    def test_a_given_start_alone_builds_no_generator(self, monkeypatch):
        design = make_design(seed=61, k=3, m=2, t=2, u=1)
        theta = random_theta(design, seed=62)
        counts = sample_counts(design, theta, 400, seed=63)

        def refuse(*args, **kwargs):
            raise AssertionError("a Philox generator was built")

        monkeypatch.setattr(np.random, "Philox", refuse)
        result = fit(design, counts, power(2.0 / 3.0), FitOptions(starts=1, init_theta=theta))
        assert result.converged and len(result.traces) == 1

    def test_draws_follow_the_given_start(self):
        design = make_design(seed=61, k=3, m=2, t=2, u=1)
        theta = random_theta(design, seed=62)
        X0 = estimation._initial_points(
            design, FitOptions(starts=3, init_scale=2.0, init_theta=theta), 7
        )
        rng = np.random.Generator(np.random.Philox(7))
        draws = [rng.normal(0.0, 2.0, size=design.t + design.u) for _ in range(2)]
        np.testing.assert_array_equal(X0, [theta.vector(), *draws])


class TestFitOptionsValidation:
    def test_rejects_bad_values(self):
        # Each refusal names its own field and value.
        for name, value, message in (
            ("starts", 0, "starts must be >= 1, got 0"),
            ("max_iters", 0, "max_iters must be >= 1, got 0"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("init_scale", 0.0, "init_scale must be positive and finite, got 0.0"),
            ("grad_tol", 0.0, "grad_tol must be positive and finite, got 0.0"),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                FitOptions(**{name: value})
        # Integer options refuse floats and booleans when the options are built.
        for name, value in (("starts", 2.5), ("max_iters", 2.5), ("seed", 1.5), ("starts", True)):
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                FitOptions(**{"starts": 2, name: value})
        assert FitOptions(starts=np.int64(2), max_iters=np.int32(5), seed=np.uint64(3)).starts == 2


class TestPinnedIntegers:
    """The integers of data-set fits against stored values, not against another run.

    Each start's ``(iterations, evaluations, restarts, status)`` is hashed,
    and the totals are kept readable.  The two fits are the CLI's: the
    Coleman panel at index 2/3, one model and the four-model chain.
    """

    @staticmethod
    def _pin(result):
        table = np.array(
            [[t.iterations, t.evaluations, t.restarts, estimation._STATUSES.index(t.status)]
             for t in result.traces],
            dtype=np.int64,
        )
        return hashlib.sha256(table.tobytes()).hexdigest(), *table[:, :3].sum(axis=0).tolist()

    def test_fit(self, coleman_design, coleman_counts):
        result = fit(coleman_design, coleman_counts, power(2.0 / 3.0), FitOptions(starts=30, seed=1))
        assert {t.status for t in result.traces} == {"converged"}
        assert self._pin(result) == (
            "ddf84acb914d9098a44630b611642685fac3c987a0c7b633d3282d9c549a2961", 2035, 2148, 0
        )

    def test_fit_chain(self, coleman_chain, coleman_counts):
        fits = fit_chain(coleman_chain, coleman_counts, power(2.0 / 3.0), FitOptions(seed=1))
        assert all({t.status for t in f.traces} == {"converged"} for f in fits)
        assert [self._pin(f) for f in fits] == [
            ("27ca4a4f5312ff69ee10b89dc825750c4d46aa2964d7faa0e718cd7a905522d6", 1842, 1886, 0),
            ("74fd05f21ee1239e1358db605cd33e43dc17574bf008d7e359f3c77a8d496c52", 1389, 1463, 0),
            ("dc02b8ec983423f12e53b280f75cdc3afaf634b2a17bf7f29aed2be500e7576b", 1071, 1107, 0),
            ("39bb4e42af58be631b1286c56421156ca302acdbc73e0fdcf98204ebf7e58cab", 892, 932, 0),
        ]
