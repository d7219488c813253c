"""Command-line front end.

One executable, subcommand style::

    lcmdiv fit      --design D.json --counts C.csv --phi power:a=0.6667
    lcmdiv gof      --design D.json --counts C.csv --phi1 power:a=0.6667 --phi2 power:a=0.6667
    lcmdiv nested   --design D.json --counts C.csv --zero-lambda 7,8
    lcmdiv select   --chain chain.json --counts C.csv
    lcmdiv simulate --plan plan.json --out-dir results/
    lcmdiv verify   --design D.json

Transform grammar: ``--phi* power:a=<real>``; ``--h identity |
renyi:a=<real> | sharma-mittal:a=<real>,b=<real> | bhattacharyya``.
Coordinate indices on the command line and in chain files are 1-based.
Input paths may use the ``bundled:<name>`` scheme to reach the data sets
shipped with the package (``lcmdiv <cmd> --list-bundled`` prints them).

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 computation
failure.  Reports embed input digests, seeds and the conventions in force so
a run can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import __version__, datasets, fileio
from .divergence import HSpec, PhiSpec, identity_h, power
from .errors import DomainError, InputFormatError, LcmdivError, NotConvergedError, RankDeficiencyError
from .estimation import FitOptions, fit
from .inference import (
    NestedPair,
    TestResult,
    _nested_statistic,
    fit_pair,
    gof_statistic,
    sequential_selection,
)
from .model import ModelDesign, Theta
from .montecarlo import run_simulation
from .asymptotics import (
    build_bundle,
    build_nested_projections,
    bundle_identity_checks,
    projection_identity_checks,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_COMPUTE = 4

_CONVENTIONS = {
    "divergence_arguments": "second argument weights the sum",
    "nested_s_orientation": "reduced-model divergence minus full-model divergence",
    "pattern_order": "item 1 most significant bit, index = 1 + sum y_i 2^(k-i)",
    "indices": "1-based on the command line and in chain files",
}

# Input kind -> (bundled constructors, file loader, to-dict for a bundled object's digest).
# The order is the order of the report's ``inputs``.
_INPUTS = {
    "design": (
        {
            "coleman_m1": datasets.coleman_design_m1,
            "coleman_m1_chain_basis": datasets.coleman_design_chain_basis,
            "coleman_m2": datasets.coleman_design_m2,
            "coleman_m3": datasets.coleman_design_m3,
            "coleman_m4": datasets.coleman_design_m4,
            "sim_null": datasets.simulation_null_design,
            "sim_alt": datasets.simulation_alt_design,
        },
        fileio.read_design,
        fileio.design_to_dict,
    ),
    "counts": (
        {"coleman": datasets.coleman_counts},
        fileio.read_counts,
        lambda counts: {"n": np.asarray(counts.n).tolist()},
    ),
    "chain": ({"coleman_chain": datasets.coleman_chain}, fileio.read_chain, fileio.chain_to_dict),
    "plan": ({"sim": datasets.simulation_plan}, fileio.read_plan, fileio.plan_to_dict),
}


def _phi_spec(text: str) -> PhiSpec:
    try:
        name, _, rest = text.partition(":")
        if name.strip() != "power":
            raise ValueError("only power divergences are expressible here")
        key, _, value = rest.partition("=")
        if key.strip() != "a":
            raise ValueError("expected power:a=<real>")
        return power(float(value))
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(f"bad phi spec {text!r}: {exc}")


def _h_spec(text: str) -> HSpec:
    try:
        tag, _, rest = text.partition(":")
        tag = tag.strip().lower().replace("-", "_")
        params = {}
        if rest:
            for item in rest.split(","):
                key, _, value = item.partition("=")
                params[key.strip()] = float(value)
        if tag == "identity":
            return identity_h()
        if tag == "bhattacharyya":
            return HSpec(tag="bhattacharyya")
        if tag == "renyi":
            return HSpec(tag="renyi", a=params["a"])
        if tag == "sharma_mittal":
            return HSpec(tag="sharma_mittal", a=params["a"], b=params["b"])
        raise ValueError(f"unknown transform {tag!r}")
    except (ValueError, KeyError, DomainError) as exc:
        raise argparse.ArgumentTypeError(f"bad h spec {text!r}: {exc}")


def _comma_list(convert):
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(tok) for tok in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad comma list {text!r}")

    return parse


def _indices(text: str) -> tuple:
    values = _comma_list(int)(text) if text.strip() else ()
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("indices are 1-based and must be >= 1")
    return tuple(v - 1 for v in values)


def _phi_str(spec: Optional[PhiSpec]) -> Optional[str]:
    return None if spec is None else f"power:a={spec.a!r}"


def _h_str(h: Optional[HSpec]) -> Optional[str]:
    if h is None:
        return None
    if h.tag == "identity":
        return "identity"
    if h.tag == "bhattacharyya":
        return "bhattacharyya"
    if h.tag == "renyi":
        return f"renyi:a={h.a!r}"
    return f"sharma-mittal:a={h.a!r},b={h.b!r}"


def _add_output_opts(p) -> None:
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcmdiv",
        description="Minimum divergence estimation and testing for latent class models of binary data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_fit_opts(p):
        p.add_argument("--starts", type=int, default=20, help="multi-start launches")
        p.add_argument("--init-scale", type=float, default=1.0)
        p.add_argument("--grad-tol", type=float, default=1e-8)
        p.add_argument("--max-iters", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit", help="minimum divergence parameter estimate")
    p.add_argument("--design", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--phi", type=_phi_spec, default=power(0.0))
    add_fit_opts(p)
    _add_output_opts(p)

    p = sub.add_parser("gof", help="goodness-of-fit test")
    p.add_argument("--design", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--phi1", type=_phi_spec, default=power(0.0), help="testing transform")
    p.add_argument("--phi2", type=_phi_spec, default=power(0.0), help="estimation transform")
    p.add_argument("--h", type=_h_spec, default=identity_h())
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--dof-policy", choices=("rank", "nominal"), default="rank")
    p.add_argument("--dof-override", type=int)
    add_fit_opts(p)
    _add_output_opts(p)

    p = sub.add_parser("nested", help="test a zero-restricted submodel")
    p.add_argument("--design", required=True, help="the full model A")
    p.add_argument("--counts", required=True)
    p.add_argument("--zero-lambda", type=_indices, default=(), help="1-based lambda indices fixed to 0")
    p.add_argument("--zero-eta", type=_indices, default=(), help="1-based eta indices fixed to 0")
    p.add_argument("--phi1", type=_phi_spec, default=power(0.0))
    p.add_argument("--phi2", type=_phi_spec, default=power(0.0))
    p.add_argument("--h", type=_h_spec, default=identity_h())
    p.add_argument("--statistic", choices=("S", "T", "both"), default="both")
    p.add_argument("--alpha", type=float, default=0.05)
    add_fit_opts(p)
    _add_output_opts(p)

    p = sub.add_parser("select", help="sequential selection over a nested chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--phi1", type=_phi_spec, default=power(0.0))
    p.add_argument("--phi2", type=_phi_spec, default=power(0.0))
    p.add_argument("--h", type=_h_spec, default=identity_h())
    p.add_argument("--statistic", choices=("S", "T"), default="S")
    p.add_argument("--alpha", type=float, default=0.05)
    add_fit_opts(p)
    _add_output_opts(p)

    p = sub.add_parser("simulate", help="simulated exact size and power study")
    p.add_argument("--plan", required=True)
    p.add_argument("--sizes", dest="sample_sizes", metavar="SIZES", type=_comma_list(int),
                   help="comma list overriding the plan's sample sizes")
    p.add_argument("--lambda8", dest="lambda8_grid", metavar="LAMBDA8", type=_comma_list(float),
                   help="comma list overriding the coefficient grid")
    p.add_argument("--a-values", type=_comma_list(float),
                   help="comma list overriding the statistic indices")
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--jobs", type=int, default=None, help="parallel processes (default: LCMDIV_JOBS or 1)")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--out-dir", required=True)
    _add_output_opts(p)

    p = sub.add_parser("verify", help="check the projection-matrix identities on a design")
    p.add_argument("--design", required=True)
    p.add_argument("--theta-seed", type=int, default=0)
    p.add_argument("--theta-scale", type=float, default=0.5)
    p.add_argument("--pseudo-inverse", action="store_true")
    p.add_argument("--drop-eta", type=int, help="1-based eta coordinate to drop (identifiable reduction)")
    p.add_argument("--zero-lambda", type=_indices, default=(), help="also check nested projections for this restriction")
    p.add_argument("--zero-eta", type=_indices, default=())
    _add_output_opts(p)

    for sp in sub.choices.values():
        sp.add_argument("--list-bundled", action="store_true", help="list bundled input names and exit")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse ``argv`` and load its inputs in place, their provenance in ``ns.inputs``."""
    if "--list-bundled" in argv:
        # The subcommand's required inputs do not apply; only the output options do.
        p = argparse.ArgumentParser(prog="lcmdiv", add_help=False)
        _add_output_opts(p)
        ns = p.parse_known_args(argv)[0]
        ns.subcommand = "list-bundled"
        return ns
    ns = build_parser().parse_args(argv)
    if hasattr(ns, "starts"):
        ns.fit_options = FitOptions(
            starts=ns.starts,
            init_scale=ns.init_scale,
            grad_tol=ns.grad_tol,
            max_iters=ns.max_iters,
            seed=ns.seed,
        )
    ns.inputs = {}
    for kind, (bundled, loader, to_dict) in _INPUTS.items():
        path = getattr(ns, kind, None)
        if not path:
            continue
        if path.startswith("bundled:"):
            name = path[len("bundled:") :]
            if name not in bundled:
                raise InputFormatError(
                    f"unknown bundled {kind} {name!r}; available: {', '.join(sorted(bundled))}"
                )
            obj = bundled[name]()
            digest = hashlib.sha256(json.dumps(to_dict(obj), sort_keys=True).encode()).hexdigest()
        else:
            obj = loader(path)
            digest = fileio.file_digest(path)
        setattr(ns, kind, obj)
        ns.inputs[kind] = {"path": path, "sha256": digest}
    if hasattr(ns, "design") and hasattr(ns, "counts") and ns.counts.k != ns.design.k:
        raise InputFormatError(
            f"counts have k = {ns.counts.k} items but the design has k = {ns.design.k}"
        )
    if ns.subcommand == "select" and ns.counts.k != ns.chain.design.k:
        raise InputFormatError("chain design and counts disagree on the item count")
    if ns.subcommand == "simulate":
        overrides = {
            name: getattr(ns, name)
            for name in ("sample_sizes", "lambda8_grid", "a_values", "replications", "seed", "alpha")
            if getattr(ns, name) is not None
        }
        ns.plan = replace(ns.plan, **overrides)
    return ns


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=1, default=_json_default) + "\n"
    lines = []

    def walk(label, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{label}.{key}" if label else str(key), sub)
        elif isinstance(value, (list, tuple)) and any(
            isinstance(v, (dict, list, tuple)) for v in value
        ):
            for i, sub in enumerate(value):
                walk(f"{label}[{i}]", sub)
        elif isinstance(value, (list, tuple)):
            body = ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
            lines.append(f"{label}: [{body}]")
        else:
            lines.append(f"{label}: {value!r}" if isinstance(value, float) else f"{label}: {value}")

    walk("", doc)
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(doc: dict, ns: argparse.Namespace) -> None:
    text = _render(doc, ns.fmt)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_doc(ns: argparse.Namespace) -> dict:
    return {
        "command": ns.subcommand,
        "version": __version__,
        "inputs": ns.inputs,
        "conventions": dict(_CONVENTIONS),
    }


def _test_result_doc(result: TestResult) -> dict:
    return {
        "statistic": result.statistic,
        "dof": result.dof,
        "p_value": result.p_value,
        "alpha": result.alpha,
        "critical": result.critical,
        "reject": result.reject,
        "kind": result.kind,
        "dof_policy": result.dof_policy,
        "phi1": _phi_str(result.phi1),
        "phi2": _phi_str(result.phi2),
        "h": _h_str(result.h),
        "warnings": list(result.warnings),
    }


def _fit_doc(result) -> dict:
    return {
        "converged": result.converged,
        "objective": result.objective,
        "lambda": np.asarray(result.theta_hat.lam).tolist(),
        "eta": np.asarray(result.theta_hat.eta).tolist(),
        "class_weights": np.asarray(result.latent.w).tolist(),
        "item_probs": np.asarray(result.latent.P).tolist(),
        "jacobian_rank": result.rank,
        "empty_cells": result.empty_cells,
        "starts": [
            {
                "start": tr.start,
                "objective": tr.objective,
                "grad_norm": tr.grad_norm,
                "iterations": tr.iterations,
                "converged": tr.converged,
                "status": tr.status,
                "restarts": tr.restarts,
            }
            for tr in result.traces
        ],
    }


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _run_fit(ns: argparse.Namespace) -> int:
    result = fit(ns.design, ns.counts, ns.phi, ns.fit_options)
    doc = _base_doc(ns)
    doc["options"] = {"phi": _phi_str(ns.phi), "seed": ns.fit_options.seed,
                      "starts": ns.fit_options.starts, "grad_tol": ns.fit_options.grad_tol}
    doc["fit"] = _fit_doc(result)
    _emit(doc, ns)
    if not result.converged:
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def _run_gof(ns: argparse.Namespace) -> int:
    fit2 = fit(ns.design, ns.counts, ns.phi2, ns.fit_options)
    if not fit2.converged:
        print(f"estimation failed: {fit2.message}", file=sys.stderr)
        return EXIT_COMPUTE
    result = gof_statistic(
        ns.design, ns.counts, ns.phi1, fit2, ns.alpha, ns.dof_policy, ns.dof_override, ns.h
    )
    doc = _base_doc(ns)
    doc["options"] = {
        "phi1": _phi_str(ns.phi1), "phi2": _phi_str(ns.phi2), "h": _h_str(ns.h),
        "alpha": ns.alpha, "dof_policy": ns.dof_policy, "dof_override": ns.dof_override,
        "seed": ns.fit_options.seed, "starts": ns.fit_options.starts,
    }
    doc["fit"] = _fit_doc(fit2)
    doc["test"] = _test_result_doc(result)
    doc["decision"] = "reject" if result.reject else "no evidence against the model"
    _emit(doc, ns)
    return EXIT_OK


def _run_nested(ns: argparse.Namespace) -> int:
    pair = NestedPair(ns.design, ns.zero_lambda, ns.zero_eta)
    # Both statistics are built from the same two fits.
    fit_A, fit_B = fit_pair(pair, ns.counts, ns.phi2, ns.fit_options)
    tests = {
        kind: _nested_statistic(
            pair, ns.counts, ns.phi1, ns.h, fit_A, fit_B, kind, ns.alpha
        )
        for kind in ("S", "T")
        if ns.statistic in (kind, "both")
    }
    doc = _base_doc(ns)
    doc["options"] = {
        "zero_lambda": [i + 1 for i in pair.zero_lam],
        "zero_eta": [i + 1 for i in pair.zero_eta],
        "phi1": _phi_str(ns.phi1), "phi2": _phi_str(ns.phi2), "h": _h_str(ns.h),
        "alpha": ns.alpha, "seed": ns.fit_options.seed, "starts": ns.fit_options.starts,
        "h1": pair.h1, "h2": pair.h2,
    }
    doc["tests"] = {name: _test_result_doc(res) for name, res in tests.items()}
    _emit(doc, ns)
    return EXIT_OK


def _run_select(ns: argparse.Namespace) -> int:
    result = sequential_selection(
        ns.chain, ns.counts, ns.phi1, ns.phi2,
        alpha=ns.alpha, statistic=ns.statistic, h=ns.h, options=ns.fit_options,
    )
    doc = _base_doc(ns)
    doc["options"] = {
        "phi1": _phi_str(ns.phi1), "phi2": _phi_str(ns.phi2), "h": _h_str(ns.h),
        "alpha": ns.alpha, "statistic": ns.statistic,
        "seed": ns.fit_options.seed, "starts": ns.fit_options.starts,
    }
    doc["selected_model"] = result.selected
    doc["models"] = {
        f"M{lvl}": {"free_params": ns.chain.free_params(lvl)}
        for lvl in range(1, ns.chain.n_models + 1)
    }
    doc["trail"] = [
        dict(_test_result_doc(t), hypothesis=f"M{i + 2} within M{i + 1}")
        for i, t in enumerate(result.tests)
    ]
    _emit(doc, ns)
    return EXIT_OK


def _run_simulate(ns: argparse.Namespace) -> int:
    from .montecarlo import emit_power_curves

    # --progress shows the per-cell log records on stderr; stdout carries only the report.
    logger = logging.getLogger("lcmdiv.montecarlo")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    if ns.progress:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        table = run_simulation(ns.plan, n_jobs=ns.jobs)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    os.makedirs(ns.out_dir, exist_ok=True)
    table_path = os.path.join(ns.out_dir, "size_power.csv")
    table.write_csv(table_path)
    curve_paths = emit_power_curves(table, ns.out_dir)
    doc = _base_doc(ns)
    doc["options"] = {
        "sample_sizes": list(ns.plan.sample_sizes),
        "lambda8_grid": list(ns.plan.lambda8_grid),
        "a_values": list(ns.plan.a_values),
        "replications": ns.plan.replications,
        "alpha": ns.plan.alpha,
        "seed": ns.plan.seed,
        "estimator_a": ns.plan.estimator_a,
        "dof_policy": ns.plan.dof_policy,
        "jobs": ns.jobs,
    }
    doc["outputs"] = {"table": table_path, "curves": curve_paths}
    doc["cells"] = [
        {
            "N": c.N, "a": c.a, "lambda8": c.lambda8, "rate": c.rate,
            "n_effective": c.n_effective, "fit_failures": c.fit_failures,
            "infinite_statistics": c.infinite_statistics, "dof": c.dof,
            "ci95": list(c.binomial_ci), "dale_pass": c.dale_pass,
        }
        for c in table.cells
    ]
    _emit(doc, ns)
    return EXIT_OK


_BUNDLE_TOL = {"symmetry": 1e-8, "idempotency": 1e-8, "trace": 1e-6, "annihilation": 1e-8}


def _run_verify(ns: argparse.Namespace) -> int:
    design = ns.design
    if ns.drop_eta is not None:
        if not 1 <= ns.drop_eta <= design.u:
            raise DomainError(f"--drop-eta must be in [1, {design.u}], got {ns.drop_eta}")
        keep = [i for i in range(design.u) if i != ns.drop_eta - 1]
        if not keep:
            raise DomainError("cannot drop the only eta coordinate")
        design = ModelDesign(Q=design.Q, C=design.C, V=np.asarray(design.V)[:, keep], d=design.d)
    rng = np.random.Generator(np.random.Philox(ns.theta_seed))
    theta0 = Theta(
        lam=rng.normal(0.0, ns.theta_scale, design.t),
        eta=rng.normal(0.0, ns.theta_scale, design.u),
    )
    checks = []
    bundle = build_bundle(design, theta0, pseudo_inverse=ns.pseudo_inverse)
    measured = bundle_identity_checks(bundle, design)
    checks.extend([
        ("Q symmetry", measured["q_symmetry"], _BUNDLE_TOL["symmetry"]),
        ("Q idempotency", measured["q_idempotency"], _BUNDLE_TOL["idempotency"]),
        ("Q trace = cells - rank - 1", measured["q_trace_deviation"], _BUNDLE_TOL["trace"]),
        ("sqrt-p annihilation", measured["sqrtp_annihilation"], _BUNDLE_TOL["annihilation"]),
    ])
    projections_doc = None
    if ns.zero_lambda or ns.zero_eta:
        pair = NestedPair(design, ns.zero_lambda, ns.zero_eta)
        lam0 = np.array(theta0.lam)
        lam0[list(ns.zero_lambda)] = 0.0
        eta0 = np.array(theta0.eta)
        if ns.zero_eta:
            eta0[list(ns.zero_eta)] = 0.0
        proj = build_nested_projections(pair, Theta(lam=lam0, eta=eta0), ns.pseudo_inverse)
        pm = projection_identity_checks(proj)
        checks.extend([
            ("R_L trace = h1", pm["rl_trace_deviation"], _BUNDLE_TOL["trace"]),
            ("R_M trace = h2", pm["rm_trace_deviation"], _BUNDLE_TOL["trace"]),
            ("R_L R_M = R_M", pm["product_rl_rm"], _BUNDLE_TOL["idempotency"]),
            ("R_M R_L = R_M", pm["product_rm_rl"], _BUNDLE_TOL["idempotency"]),
            ("(R_L - R_M) idempotent", pm["difference_idempotency"], _BUNDLE_TOL["idempotency"]),
            ("(R_L - R_M) trace = h1 - h2", pm["difference_trace_deviation"], _BUNDLE_TOL["trace"]),
            ("projections annihilate sqrt-p", pm["sqrtp_annihilation"], _BUNDLE_TOL["annihilation"]),
        ])
        projections_doc = pm

    all_pass = all(dev <= tol for _, dev, tol in checks)
    doc = _base_doc(ns)
    doc["options"] = {
        "theta_seed": ns.theta_seed, "theta_scale": ns.theta_scale,
        "pseudo_inverse": ns.pseudo_inverse, "drop_eta": ns.drop_eta,
        "rank": bundle.rank, "gram_condition": bundle.gram_condition,
    }
    doc["identities"] = [
        {"name": name, "deviation": dev, "tolerance": tol, "pass": dev <= tol}
        for name, dev, tol in checks
    ]
    if projections_doc is not None:
        doc["projection_measurements"] = projections_doc
    doc["all_pass"] = all_pass
    _emit(doc, ns)
    return EXIT_OK if all_pass else EXIT_COMPUTE


def _run_list_bundled(ns: argparse.Namespace) -> int:
    doc = {kind.rstrip("s") + "s": sorted(bundled) for kind, (bundled, _, _) in _INPUTS.items()}
    _emit(doc, ns)
    return EXIT_OK


def run(ns: argparse.Namespace) -> int:
    handlers = {
        "fit": _run_fit,
        "gof": _run_gof,
        "nested": _run_nested,
        "select": _run_select,
        "simulate": _run_simulate,
        "verify": _run_verify,
        "list-bundled": _run_list_bundled,
    }
    return handlers[ns.subcommand](ns)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parse_args(argv)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:  # an option value the library refuses, e.g. --starts 0
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(ns)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotConvergedError, RankDeficiencyError, DomainError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except LcmdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
