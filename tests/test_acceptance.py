"""Acceptance suite: one test per shipped criterion, one summary line each.

Criteria 1, 2, 4 and the power half of 7 depend on the source publication's
worked example on the Coleman panel.

* Criterion 1 reproduces the published statistic row: it is
  T^{phi_{2/3}}(theta_hat_{phi_a}), the statistic index fixed at 2/3 and the
  estimator index a swept, and all nine values match to the 3-decimal rounding.
* Criterion 2 is pinned to the index-2/3 optimum behind those statistics,
  derived independently of lcmdiv (see ``COLEMAN_OPT_W``/``COLEMAN_OPT_P`` in
  conftest.py).  The published parameter table is kept in conftest.py as the
  record of the source, but at that point the index-2/3 statistic is 63.3 on
  4 degrees of freedom, which rejects the model and contradicts the published
  1.277.
* Criterion 4 rests on reconstructed reduced designs and is reported as an
  expected discrepancy under its own downgrade clause.
* Criterion 7's power half is recorded as a source-level discrepancy.

README ("Tests and the acceptance suite") has the details.
"""

import time

import numpy as np
import pytest
from scipy.special import logit
from scipy.stats import binom as binom_dist

from lcmdiv.asymptotics import build_bundle, build_nested_projections
from lcmdiv.divergence import phi_divergence, power
from lcmdiv.estimation import FitOptions, canonicalize, fit, fit_chain, objective_and_gradient
from lcmdiv.inference import chi2_quantile, gof_statistic
from lcmdiv.model import ModelDesign, NestedChain, Theta, sample_counts
from lcmdiv.montecarlo import dale_band

from conftest import (
    COLEMAN_OPT_P,
    COLEMAN_OPT_W,
    COLEMAN_REF_A_GRID,
    COLEMAN_REF_NESTED_S,
    COLEMAN_REF_NESTED_T,
    COLEMAN_REF_T_ROW,
    coleman_estimator_sweep,
    make_design,
    random_theta,
    table_latent,
)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def theta_from_latent(design, w, P):
    """Invert the design's linear-logistic loadings at weights ``w`` and probabilities ``P``."""
    Q = design.Q.reshape(-1, design.t)
    lam = np.linalg.lstsq(Q, (logit(P) - design.C).ravel(), rcond=None)[0]
    eta = np.linalg.lstsq(design.V, np.log(w) - design.d, rcond=None)[0]
    return Theta(lam=lam, eta=eta)


class TestCriterion1ColemanGof:
    def test_statistic_sweep(self, coleman_design, coleman_counts):
        # The published row is T^{phi_{2/3}}(theta_hat_{phi_a}): one statistic
        # index (2/3) evaluated at the minimum phi_a-divergence estimate for
        # each estimator index a.
        t0 = time.perf_counter()
        estimate_23 = fit(
            coleman_design, coleman_counts, power(2.0 / 3.0), FitOptions(starts=30, seed=1)
        )
        estimates = coleman_estimator_sweep(coleman_design, coleman_counts, estimate_23)
        assert all(e.converged for e in estimates)
        tests = [
            gof_statistic(coleman_design, coleman_counts, power(2.0 / 3.0), e)
            for e in estimates
        ]
        elapsed = time.perf_counter() - t0
        values = [t.statistic for t in tests]
        misses = [
            (a, v, ref)
            for a, v, ref in zip(COLEMAN_REF_A_GRID, values, COLEMAN_REF_T_ROW)
            if abs(v - ref) > 0.02
        ]
        dof_ok = all(t.dof == 4 for t in tests)
        no_reject = not any(t.reject for t in tests)
        ok = not misses and dof_ok and no_reject and elapsed < 30
        report(
            1,
            ok,
            f"T^(2/3) over estimator indices {['%.3f' % v for v in values]} vs reference "
            f"{list(COLEMAN_REF_T_ROW)} (tol 0.02); dof=4: {dof_ok}; "
            f"no rejection: {no_reject}; {elapsed:.1f}s",
        )
        assert dof_ok and no_reject and elapsed < 30
        assert not misses, (
            f"statistic values outside +-0.02 of the published row: {misses}. "
            "The row is T^{phi_{2/3}}(theta_hat_{phi_a}) (statistic index 2/3, "
            "estimator index a); the index-2/3 estimate and the estimator-swept "
            "fits reproduce it to its 3-decimal rounding, so a miss is a "
            "regression in the fit or the statistic; see README."
        )


class TestCriterion2ReferenceEstimates:
    def test_latent_parameters_match_reference(self, coleman_fit_23):
        fitted = canonicalize(coleman_fit_23.latent)
        order = np.lexsort((-COLEMAN_OPT_P[:, 0], -COLEMAN_OPT_W))
        ref_w, ref_P = COLEMAN_OPT_W[order], COLEMAN_OPT_P[order]
        dev_w = float(np.max(np.abs(fitted.w - ref_w)))
        dev_P = float(np.max(np.abs(fitted.P - ref_P)))
        ok = dev_w <= 5e-3 and dev_P <= 5e-3
        report(
            2,
            ok,
            f"latent deviation from the verified optimum after relabeling: "
            f"w {dev_w:.2e}, P {dev_P:.2e} (tol 5e-3)",
        )
        assert ok, (
            f"fitted class weights/item probabilities deviate from the independently "
            f"derived index-2/3 optimum by {dev_w:.2e} (weights) and {dev_P:.2e} "
            "(item probabilities) after canonical relabeling; that optimum "
            "reproduces the published statistic row, so the fit has missed it; "
            "see README."
        )

    def test_reference_point_is_stationary(self, coleman_design, coleman_counts):
        theta_ref = theta_from_latent(coleman_design, COLEMAN_OPT_W, COLEMAN_OPT_P)
        # The inversion is exact up to the 8-digit rounding of the constants.
        latent = table_latent(coleman_design, theta_ref)
        assert np.allclose(latent.w, COLEMAN_OPT_W, rtol=0, atol=1e-7)
        assert np.allclose(latent.P, COLEMAN_OPT_P, rtol=0, atol=1e-12)
        _, grad = objective_and_gradient(
            coleman_design, coleman_counts, power(2.0 / 3.0), theta_ref
        )
        gnorm = float(np.max(np.abs(grad)))
        ok = gnorm < 1e-3
        report(2, ok, f"gradient at the verified optimum: {gnorm:.2e} (tol 1e-3)")
        assert ok, (
            f"the independently derived index-2/3 optimum is not a stationary point "
            f"of the package's index-2/3 objective (gradient {gnorm:.2e}); the "
            "objective or its gradient has changed; see README."
        )


class TestCriterion3NestedUnconditional:
    def test_classical_equality_and_chain_dof(self, coleman_chain, coleman_counts):
        from lcmdiv.inference import nested_S

        rel_errs = []
        for seed in (501, 502):
            design = make_design(seed=seed, k=3, m=2, t=3, u=1)
            pair = NestedChain(design, (((2,), ()),))
            truth = Theta(lam=np.array([0.5, -0.7, 0.4]), eta=np.array([0.2]))
            counts = sample_counts(design, truth, 900, seed=seed)
            opts = FitOptions(starts=8, seed=seed)
            fit_A, fit_B = fit_chain(pair, counts, power(0.0), opts)
            s = nested_S(counts, power(0.0), fit_A, fit_B)
            # Direct likelihood-ratio form from the same fits.
            pos = counts.n > 0
            direct = 2.0 * float(
                np.sum(counts.n[pos] * np.log(fit_A.manifest.p[pos] / fit_B.manifest.p[pos]))
            )
            rel_errs.append(abs(s.statistic - direct) / abs(direct))
        dofs = [
            coleman_chain.free_params(level) - coleman_chain.free_params(level + 1)
            for level in (1, 2, 3)
        ]
        criticals = [chi2_quantile(0.95, d) for d in dofs]
        dof_ok = dofs == [2, 1, 1]
        crit_ok = (
            abs(criticals[0] - 5.99) < 0.005
            and abs(criticals[1] - 3.84) < 0.005
            and abs(criticals[2] - 3.84) < 0.005
        )
        ok = max(rel_errs) <= 1e-9 and dof_ok and crit_ok
        report(
            3,
            ok,
            f"S vs direct likelihood-ratio rel err {max(rel_errs):.2e} (tol 1e-9); "
            f"chain dof {dofs} criticals {['%.2f' % c for c in criticals]}",
        )
        assert ok


class TestCriterion4NestedConditional:
    def test_reconstructed_chain_values(self, coleman_counts, coleman_chain_fits):
        from lcmdiv.inference import nested_S, nested_T

        S_vals, T_vals = [], []
        for level in (1, 2, 3):
            fa, fb = coleman_chain_fits[level], coleman_chain_fits[level + 1]
            S_vals.append(nested_S(coleman_counts, power(2.0 / 3.0), fa, fb).statistic)
            T_vals.append(nested_T(coleman_counts, power(2.0 / 3.0), fa, fb).statistic)
        dev_S = np.abs(np.array(S_vals) - COLEMAN_REF_NESTED_S)
        dev_T = np.abs(np.array(T_vals) - COLEMAN_REF_NESTED_T)
        ok = bool(np.all(dev_S <= 0.05) and np.all(dev_T <= 0.05))
        report(
            4,
            ok,
            f"S {['%.3f' % v for v in S_vals]} vs {list(COLEMAN_REF_NESTED_S)}; "
            f"T {['%.3f' % v for v in T_vals]} vs {list(COLEMAN_REF_NESTED_T)} (tol 0.05, conditional)",
        )
        if not ok:
            pytest.xfail(
                "documented discrepancy (criterion's own downgrade clause): the "
                "reduced designs are reconstructions of an external reference; "
                f"measured S={['%.3f' % v for v in S_vals]}, "
                f"T={['%.3f' % v for v in T_vals]} vs published "
                f"{list(COLEMAN_REF_NESTED_S)} / {list(COLEMAN_REF_NESTED_T)}. "
                "Two entries match the publication exactly (S one, T three). No "
                "orientation or argument order of the statistics reproduces the "
                "rest, so they rest on the reconstruction."
            )


class TestCriterion5AsymptoticIdentities:
    def test_identities_on_two_designs(self):
        t0 = time.perf_counter()
        worst = {"sym": 0.0, "idem": 0.0, "trace": 0.0, "proj": 0.0}
        for seed, zero_lam in ((601, (1,)), (602, (0, 2))):
            design = make_design(seed=seed, k=4, m=3, t=4, u=2)
            theta0 = random_theta(design, seed=seed + 10, scale=0.7)
            checks = build_bundle(design, theta0)
            worst["sym"] = max(worst["sym"], checks["q_symmetry"])
            worst["idem"] = max(worst["idem"], checks["q_idempotency"])
            worst["trace"] = max(worst["trace"], checks["q_trace_deviation"])
            assert checks["q_trace_target"] == design.n_patterns - design.n_params - 1

            pchecks = build_nested_projections(NestedChain(design, ((zero_lam, ()),)), theta0)
            worst["proj"] = max(
                worst["proj"],
                pchecks["rl_trace_deviation"],
                pchecks["rm_trace_deviation"],
                pchecks["difference_trace_deviation"],
                pchecks["product_rl_rm"],
                pchecks["product_rm_rl"],
                pchecks["difference_idempotency"],
            )
        elapsed = time.perf_counter() - t0
        ok = (
            worst["sym"] <= 1e-8
            and worst["idem"] <= 1e-8
            and worst["trace"] <= 1e-6
            and worst["proj"] <= 1e-6
            and elapsed < 10
        )
        report(
            5,
            ok,
            f"worst deviations: symmetry {worst['sym']:.1e}, idempotency "
            f"{worst['idem']:.1e}, trace {worst['trace']:.1e}, projections "
            f"{worst['proj']:.1e}; {elapsed:.1f}s",
        )
        assert ok


class TestCriterion6GradientCorrectness:
    def test_fifty_randomized_triples(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240601)
        a_pool = [-0.5, 0.0, 2.0 / 3.0, 1.0, 2.0]
        worst = 0.0
        for trial in range(50):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            t = int(rng.integers(1, 4))
            u = int(rng.integers(1, 3))
            design = make_design(seed=int(rng.integers(1 << 30)), k=k, m=m, t=t, u=u)
            truth = random_theta(design, seed=int(rng.integers(1 << 30)), scale=0.6)
            counts = sample_counts(design, truth, 800, seed=int(rng.integers(1 << 30)))
            a = a_pool[trial % len(a_pool)] if trial % 2 == 0 else float(rng.uniform(-0.9, 2.5))
            theta = random_theta(design, seed=int(rng.integers(1 << 30)), scale=0.5)
            value, grad = objective_and_gradient(design, counts, power(a), theta)
            x0 = theta.vector()
            for i in range(x0.size):
                e = np.zeros_like(x0)
                e[i] = 1e-6
                up, _ = objective_and_gradient(
                    design, counts, power(a), Theta.from_vector(design, x0 + e)
                )
                dn, _ = objective_and_gradient(
                    design, counts, power(a), Theta.from_vector(design, x0 - e)
                )
                fd = (up - dn) / 2e-6
                if abs(grad[i]) > 1e-8:
                    worst = max(worst, abs(fd - grad[i]) / abs(grad[i]))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-6 and elapsed < 60
        report(6, ok, f"worst relative gradient error {worst:.2e} over 50 triples; {elapsed:.1f}s")
        assert ok


@pytest.mark.extended
class TestCriterion7SimulationCalibration:
    def test_size_and_power(self):
        from lcmdiv.datasets import simulation_plan
        from lcmdiv.montecarlo import run_simulation

        size_plan = simulation_plan(
            sample_sizes=(1000,), a_values=(2.0 / 3.0,), lambda8_grid=(0.0,),
            replications=1000, seed=20140915,
        )
        size_cell = run_simulation(size_plan).cells[0]
        band = dale_band(0.05)
        size_interval = (
            float(binom_dist.ppf(0.005, 1000, 0.0510)) / 1000,
            float(binom_dist.ppf(0.995, 1000, 0.0510)) / 1000,
        )
        size_ok = (
            band[0] <= size_cell.rate <= band[1]
            and size_interval[0] <= size_cell.rate <= size_interval[1]
        )
        report(
            7,
            size_ok,
            f"size {size_cell.rate:.4f} in band ({band[0]:.4f}, {band[1]:.4f}) and in "
            f"99% interval ({size_interval[0]:.4f}, {size_interval[1]:.4f}) around 0.0510",
        )

        power_plan = simulation_plan(
            sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=(2.0,),
            replications=500, seed=20140915,
        )
        power_cell = run_simulation(power_plan).cells[0]
        power_interval = (
            float(binom_dist.ppf(0.005, 500, 0.9281)) / 500,
            float(binom_dist.ppf(0.995, 500, 0.9281)) / 500,
        )
        power_ok = power_interval[0] <= power_cell.rate <= power_interval[1]
        report(
            7,
            power_ok,
            f"power {power_cell.rate:.4f} vs 99% interval "
            f"({power_interval[0]:.4f}, {power_interval[1]:.4f}) around 0.9281",
        )
        assert size_ok
        assert power_ok, (
            f"simulated power {power_cell.rate:.4f} exceeds the interval around the "
            "published 0.9281. The alternative's construction is validated "
            "structurally (the distinctive published power-dip fingerprint at "
            "negative coefficients reproduces, and the swapped-rows reading is "
            "off by an order of magnitude), and deeper multi-start fits move the "
            "statistic by <5%. The published level sits below what the printed "
            "design yields; it is recorded as a source-level discrepancy in README."
        )


class TestCriterion8UnitOracles:
    def test_chi_square_divergence_and_band(self):
        q4 = chi2_quantile(0.95, 4)
        q2 = chi2_quantile(0.95, 2)
        q1 = chi2_quantile(0.95, 1)
        quantiles_ok = (
            abs(q4 - 9.49) <= 0.005 and abs(q2 - 5.99) <= 0.005 and abs(q1 - 3.84) <= 0.005
        )
        rng = np.random.default_rng(8)
        self_ok = True
        for a in (-1.0, -0.5, 0.0, 2.0 / 3.0, 1.0, 2.0):
            p = rng.dirichlet(np.ones(6))
            self_ok &= phi_divergence(p, p, power(a)) <= 1e-12
        kl_ok = abs(phi_divergence([0.5, 0.5], [0.25, 0.75], power(0.0)) - 0.1438410362) <= 1e-9
        lo, hi = dale_band(0.05)
        band_ok = abs(lo - 0.035746) <= 1e-4 and abs(hi - 0.069479) <= 1e-4
        ok = quantiles_ok and self_ok and kl_ok and band_ok
        report(
            8,
            ok,
            f"quantiles ({q4:.4f}, {q2:.4f}, {q1:.4f}); D(p,p)=0: {self_ok}; "
            f"two-cell KL ok: {kl_ok}; band ({lo:.6f}, {hi:.6f})",
        )
        assert ok


class TestCriterion9TinyModelGrid:
    def test_mle_matches_dense_grid_search(self):
        design = ModelDesign(
            Q=np.array([[[1.0], [0.6]], [[-0.8], [-1.2]]]),
            C=np.array([[0.2, -0.1], [0.1, 0.3]]),
            V=np.array([[1.0], [0.0]]),
            d=np.zeros(2),
        )
        truth = Theta(lam=[0.7], eta=[-0.4])
        counts = sample_counts(design, truth, 20_000, seed=99)

        # Dense grid over [-2, 2]^2 at step 1e-3, vectorized over lambda with
        # per-class pattern probabilities precomputed, scanning eta row by row.
        grid = np.round(np.arange(-2.0, 2.0 + 1e-9, 1e-3), 3)
        lam = grid[None, :]
        logits = np.array([[1.0, 0.6], [-0.8, -1.2]])  # class x item loadings
        offsets = np.array([[0.2, -0.1], [0.1, 0.3]])
        from scipy.special import expit

        P = expit(logits[:, :, None] * lam[0][None, None, :] + offsets[:, :, None])
        patterns = [(0, 0), (0, 1), (1, 0), (1, 1)]
        B = np.empty((2, 4, grid.size))
        for j in range(2):
            for nu, (y1, y2) in enumerate(patterns):
                c1 = P[j, 0] if y1 else 1.0 - P[j, 0]
                c2 = P[j, 1] if y2 else 1.0 - P[j, 1]
                B[j, nu] = c1 * c2
        n = counts.n.astype(np.float64)
        best = (-np.inf, None, None)
        for eta in grid:
            w0 = expit(eta)  # softmax over (eta, 0)
            p = w0 * B[0] + (1.0 - w0) * B[1]
            ll = n @ np.log(p)
            i = int(np.argmax(ll))
            if ll[i] > best[0]:
                best = (float(ll[i]), float(grid[i]), float(eta))
        grid_argmax = np.array([best[1], best[2]])
        assert np.all(np.abs(grid_argmax) < 1.99), "grid argmax must be interior"

        result = fit(design, counts, power(0.0), FitOptions(starts=10, seed=2))
        assert result.converged
        dev = float(np.max(np.abs(result.theta_hat.vector() - grid_argmax)))
        ok = dev <= 1e-3
        report(
            9,
            ok,
            f"fit ({result.theta_hat.lam[0]:.5f}, {result.theta_hat.eta[0]:.5f}) vs "
            f"grid ({grid_argmax[0]:.3f}, {grid_argmax[1]:.3f}); deviation {dev:.2e} (tol 1e-3)",
        )
        assert ok
