"""Reproduce the Coleman worked example end to end.

Fits the four-class model by minimum divergence at index 2/3, prints the
published goodness-of-fit row T^{phi_{2/3}}(theta_hat_{phi_a}) (statistic
index 2/3, estimator index a swept over nine values), and runs the
nested-model selection over the reconstructed chain.  Takes a few seconds.
"""

import argparse

import numpy as np

from lcmdiv import datasets
from lcmdiv.divergence import power
from lcmdiv.estimation import FitOptions, canonicalize, fit
from lcmdiv.inference import estimator_sweep, gof_statistic, sequential_selection
from lcmdiv.model import jacobian_rank

A_GRID = (-1.0, -0.5, 0.0, 2.0 / 3.0, 1.0, 1.5, 2.0, 2.5, 3.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--starts", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--alpha", type=float, default=0.05)
    args = parser.parse_args()

    design = datasets.coleman_design_m1()
    counts = datasets.coleman_counts()
    options = FitOptions(starts=args.starts, seed=args.seed)

    result = fit(design, counts, power(2.0 / 3.0), options)
    print(f"converged: {result.converged}   objective: {result.objective:.8e}")
    rank = jacobian_rank(design, result.theta_hat)
    print(f"jacobian rank: {rank} (nominal parameters: {design.n_params})")
    latent = canonicalize(result.latent)
    np.set_printoptions(precision=6, suppress=True)
    print("class weights (canonical order):", latent.w)
    print("item probabilities:")
    print(latent.P)

    print("\ngoodness of fit, statistic index 2/3, estimator index a:")
    estimates = estimator_sweep(design, counts, A_GRID, result, seed=args.seed)
    for a, estimate in zip(A_GRID, estimates):
        test = gof_statistic(design, counts, power(2.0 / 3.0), estimate, alpha=args.alpha)
        flag = "reject" if test.reject else "ok"
        print(
            f"  statistic 2/3, estimator a = {a:5.2f}: T = {test.statistic:7.3f}   "
            f"dof = {test.dof}   critical = {test.critical:.2f}   p = {test.p_value:.3f}   [{flag}]"
        )

    print("\nnested-model selection over the reconstructed chain:")
    chain = datasets.coleman_chain()
    for statistic in ("S", "T"):
        sel = sequential_selection(
            chain, counts, power(2.0 / 3.0), power(2.0 / 3.0),
            alpha=args.alpha, statistic=statistic, options=options,
        )
        trail = "  ".join(
            f"M{i + 1}-M{i + 2}: {t.statistic:.3f} (dof {t.dof}, crit {t.critical:.2f})"
            for i, t in enumerate(sel.tests)
        )
        print(f"  {statistic}: {trail}")
        print(f"  {statistic}: selected model M{sel.selected}")


if __name__ == "__main__":
    main()
