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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__, datasets, fileio
from .divergence import HSpec, PhiSpec, identity_h, power
from .errors import DomainError, InputFormatError, LcmdivError, NotConvergedError, RankDeficiencyError
from .estimation import FitOptions, fit
from .inference import (
    NestedChain,
    NestedPair,
    TestResult,
    _nested_statistic,
    fit_pair,
    gof_statistic,
    sequential_selection,
)
from .model import ModelDesign, ObservedCounts, Theta
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

_BUNDLED_DESIGNS = {
    "coleman_m1": datasets.coleman_design_m1,
    "coleman_m1_chain_basis": datasets.coleman_design_chain_basis,
    "coleman_m2": datasets.coleman_design_m2,
    "coleman_m3": datasets.coleman_design_m3,
    "coleman_m4": datasets.coleman_design_m4,
    "sim_null": datasets.simulation_null_design,
    "sim_alt": datasets.simulation_alt_design,
}
_BUNDLED_COUNTS = {"coleman": datasets.coleman_counts}
_BUNDLED_CHAINS = {"coleman_chain": datasets.coleman_chain}
_BUNDLED_PLANS = {"sim": datasets.simulation_plan}


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


def _indices(text: str) -> tuple:
    if not text.strip():
        return ()
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")
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


@dataclass
class RunConfig:
    """Validated invocation: the subcommand plus everything it needs to run."""

    subcommand: str
    design: Optional[ModelDesign] = None
    counts: Optional[ObservedCounts] = None
    chain: Optional[NestedChain] = None
    plan: object = None
    phi: Optional[PhiSpec] = None
    phi1: Optional[PhiSpec] = None
    phi2: Optional[PhiSpec] = None
    h: Optional[HSpec] = None
    alpha: float = 0.05
    statistic: str = "both"
    zero_lam: tuple = ()
    zero_eta: tuple = ()
    dof_policy: str = "rank"
    dof_override: Optional[int] = None
    fit_options: FitOptions = field(default_factory=FitOptions)
    out: Optional[str] = None
    out_dir: Optional[str] = None
    fmt: str = "text"
    jobs: int = 1
    progress: bool = False
    theta_seed: int = 0
    theta_scale: float = 0.5
    pseudo_inverse: bool = False
    drop_eta: Optional[int] = None
    inputs: dict = field(default_factory=dict)


def _resolve(path: str, bundled: dict, loader, kind: str):
    """Load ``path``, honoring the bundled: scheme; returns (object, provenance)."""
    if path.startswith("bundled:"):
        name = path[len("bundled:") :]
        if name not in bundled:
            raise InputFormatError(
                f"unknown bundled {kind} {name!r}; available: {', '.join(sorted(bundled))}"
            )
        obj = bundled[name]()
        return obj, {"path": path, "sha256": _object_digest(obj)}
    obj = loader(path)
    return obj, {"path": str(path), "sha256": fileio.file_digest(path)}


def _object_digest(obj) -> str:
    if isinstance(obj, ModelDesign):
        doc = fileio.design_to_dict(obj)
    elif isinstance(obj, ObservedCounts):
        doc = {"n": np.asarray(obj.n).tolist()}
    elif isinstance(obj, NestedChain):
        doc = fileio.chain_to_dict(obj)
    else:
        doc = fileio.plan_to_dict(obj)
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


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

    def add_output_opts(p):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p = sub.add_parser("fit", help="minimum divergence parameter estimate")
    p.add_argument("--design", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--phi", type=_phi_spec, default=power(0.0))
    add_fit_opts(p)
    add_output_opts(p)

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
    add_output_opts(p)

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
    add_output_opts(p)

    p = sub.add_parser("select", help="sequential selection over a nested chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--phi1", type=_phi_spec, default=power(0.0))
    p.add_argument("--phi2", type=_phi_spec, default=power(0.0))
    p.add_argument("--h", type=_h_spec, default=identity_h())
    p.add_argument("--statistic", choices=("S", "T"), default="S")
    p.add_argument("--alpha", type=float, default=0.05)
    add_fit_opts(p)
    add_output_opts(p)

    p = sub.add_parser("simulate", help="simulated exact size and power study")
    p.add_argument("--plan", required=True)
    p.add_argument("--sizes", help="comma list overriding the plan's sample sizes")
    p.add_argument("--lambda8", help="comma list overriding the coefficient grid")
    p.add_argument("--a-values", help="comma list overriding the statistic indices")
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--jobs", type=int, default=None, help="parallel processes (default: LCMDIV_JOBS or 1)")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--out-dir", required=True)
    add_output_opts(p)

    p = sub.add_parser("verify", help="check the projection-matrix identities on a design")
    p.add_argument("--design", required=True)
    p.add_argument("--theta-seed", type=int, default=0)
    p.add_argument("--theta-scale", type=float, default=0.5)
    p.add_argument("--pseudo-inverse", action="store_true")
    p.add_argument("--drop-eta", type=int, help="1-based eta coordinate to drop (identifiable reduction)")
    p.add_argument("--zero-lambda", type=_indices, default=(), help="also check nested projections for this restriction")
    p.add_argument("--zero-eta", type=_indices, default=())
    add_output_opts(p)

    for sp in sub.choices.values():
        sp.add_argument("--list-bundled", action="store_true", help="list bundled input names and exit")
    return parser


def parse_args(argv) -> RunConfig:
    if "--list-bundled" in argv:
        return RunConfig(subcommand="list-bundled")
    parser = build_parser()
    ns = parser.parse_args(argv)

    cfg = RunConfig(subcommand=ns.subcommand)
    cfg.fmt = getattr(ns, "fmt", "text")
    cfg.out = getattr(ns, "out", None)

    if hasattr(ns, "starts"):
        cfg.fit_options = FitOptions(
            starts=ns.starts,
            init_scale=ns.init_scale,
            grad_tol=ns.grad_tol,
            max_iters=ns.max_iters,
            seed=ns.seed,
        )
    if getattr(ns, "design", None):
        cfg.design, cfg.inputs["design"] = _resolve(
            ns.design, _BUNDLED_DESIGNS, fileio.read_design, "design"
        )
    if getattr(ns, "counts", None):
        cfg.counts, cfg.inputs["counts"] = _resolve(
            ns.counts, _BUNDLED_COUNTS, fileio.read_counts, "counts"
        )
        if cfg.design is not None and cfg.counts.k != cfg.design.k:
            raise InputFormatError(
                f"counts have k = {cfg.counts.k} items but the design has k = {cfg.design.k}"
            )
    if getattr(ns, "chain", None):
        cfg.chain, cfg.inputs["chain"] = _resolve(
            ns.chain, _BUNDLED_CHAINS, fileio.read_chain, "chain"
        )
    if getattr(ns, "plan", None):
        cfg.plan, cfg.inputs["plan"] = _resolve(
            ns.plan, _BUNDLED_PLANS, fileio.read_plan, "plan"
        )

    for name in ("phi", "phi1", "phi2", "h", "alpha", "statistic", "dof_override",
                 "progress", "theta_seed", "theta_scale", "pseudo_inverse", "drop_eta",
                 "out_dir"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if hasattr(ns, "dof_policy"):
        cfg.dof_policy = ns.dof_policy
    if hasattr(ns, "zero_lambda"):
        cfg.zero_lam = ns.zero_lambda
    if hasattr(ns, "zero_eta"):
        cfg.zero_eta = ns.zero_eta
    if hasattr(ns, "jobs"):
        cfg.jobs = ns.jobs

    if cfg.subcommand == "simulate":
        cfg.plan = _override_plan(cfg.plan, ns)
    if cfg.subcommand == "select" and cfg.counts.k != cfg.chain.design.k:
        raise InputFormatError("chain design and counts disagree on the item count")
    return cfg


def _override_plan(plan, ns):
    from dataclasses import replace

    kwargs = {}
    if ns.sizes:
        kwargs["sample_sizes"] = tuple(int(x) for x in ns.sizes.split(","))
    if ns.lambda8:
        kwargs["lambda8_grid"] = tuple(float(x) for x in ns.lambda8.split(","))
    if ns.a_values:
        kwargs["a_values"] = tuple(float(x) for x in ns.a_values.split(","))
    if ns.replications is not None:
        kwargs["replications"] = ns.replications
    if ns.seed is not None:
        kwargs["seed"] = ns.seed
    if ns.alpha is not None:
        kwargs["alpha"] = ns.alpha
    return replace(plan, **kwargs) if kwargs else plan


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


def _emit(doc: dict, cfg: RunConfig) -> None:
    text = _render(doc, cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_doc(cfg: RunConfig) -> dict:
    return {
        "command": cfg.subcommand,
        "version": __version__,
        "inputs": cfg.inputs,
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
            }
            for tr in result.traces
        ],
    }


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _run_fit(cfg: RunConfig) -> int:
    result = fit(cfg.design, cfg.counts, cfg.phi, cfg.fit_options)
    doc = _base_doc(cfg)
    doc["options"] = {"phi": _phi_str(cfg.phi), "seed": cfg.fit_options.seed,
                      "starts": cfg.fit_options.starts, "grad_tol": cfg.fit_options.grad_tol}
    doc["fit"] = _fit_doc(result)
    _emit(doc, cfg)
    if not result.converged:
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def _run_gof(cfg: RunConfig) -> int:
    fit2 = fit(cfg.design, cfg.counts, cfg.phi2, cfg.fit_options)
    if not fit2.converged:
        print(f"estimation failed: {fit2.message}", file=sys.stderr)
        return EXIT_COMPUTE
    result = gof_statistic(
        cfg.design, cfg.counts, cfg.phi1, fit2, cfg.alpha, cfg.dof_policy, cfg.dof_override, cfg.h
    )
    doc = _base_doc(cfg)
    doc["options"] = {
        "phi1": _phi_str(cfg.phi1), "phi2": _phi_str(cfg.phi2), "h": _h_str(cfg.h),
        "alpha": cfg.alpha, "dof_policy": cfg.dof_policy, "dof_override": cfg.dof_override,
        "seed": cfg.fit_options.seed, "starts": cfg.fit_options.starts,
    }
    doc["fit"] = _fit_doc(fit2)
    doc["test"] = _test_result_doc(result)
    doc["decision"] = "reject" if result.reject else "no evidence against the model"
    _emit(doc, cfg)
    return EXIT_OK


def _run_nested(cfg: RunConfig) -> int:
    pair = NestedPair(cfg.design, cfg.zero_lam, cfg.zero_eta)
    # Both statistics are built from the same two fits.
    fit_A, fit_B = fit_pair(pair, cfg.counts, cfg.phi2, cfg.fit_options)
    tests = {
        kind: _nested_statistic(
            pair, cfg.counts, cfg.phi1, cfg.h, fit_A, fit_B, kind, cfg.alpha
        )
        for kind in ("S", "T")
        if cfg.statistic in (kind, "both")
    }
    doc = _base_doc(cfg)
    doc["options"] = {
        "zero_lambda": [i + 1 for i in pair.zero_lam],
        "zero_eta": [i + 1 for i in pair.zero_eta],
        "phi1": _phi_str(cfg.phi1), "phi2": _phi_str(cfg.phi2), "h": _h_str(cfg.h),
        "alpha": cfg.alpha, "seed": cfg.fit_options.seed, "starts": cfg.fit_options.starts,
        "h1": pair.h1, "h2": pair.h2,
    }
    doc["tests"] = {name: _test_result_doc(res) for name, res in tests.items()}
    _emit(doc, cfg)
    return EXIT_OK


def _run_select(cfg: RunConfig) -> int:
    result = sequential_selection(
        cfg.chain, cfg.counts, cfg.phi1, cfg.phi2,
        alpha=cfg.alpha, statistic=cfg.statistic, h=cfg.h, options=cfg.fit_options,
    )
    doc = _base_doc(cfg)
    doc["options"] = {
        "phi1": _phi_str(cfg.phi1), "phi2": _phi_str(cfg.phi2), "h": _h_str(cfg.h),
        "alpha": cfg.alpha, "statistic": cfg.statistic,
        "seed": cfg.fit_options.seed, "starts": cfg.fit_options.starts,
    }
    doc["selected_model"] = result.selected
    doc["models"] = {
        f"M{lvl}": {"free_params": cfg.chain.free_params(lvl)}
        for lvl in range(1, cfg.chain.n_models + 1)
    }
    doc["trail"] = [
        dict(_test_result_doc(t), hypothesis=f"M{i + 2} within M{i + 1}")
        for i, t in enumerate(result.tests)
    ]
    _emit(doc, cfg)
    return EXIT_OK


def _run_simulate(cfg: RunConfig) -> int:
    from .montecarlo import emit_power_curves

    # --progress shows the per-cell log records on stderr; stdout carries only the report.
    logger = logging.getLogger("lcmdiv.montecarlo")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    if cfg.progress:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        table = run_simulation(cfg.plan, n_jobs=cfg.jobs)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    os.makedirs(cfg.out_dir, exist_ok=True)
    table_path = os.path.join(cfg.out_dir, "size_power.csv")
    table.write_csv(table_path)
    curve_paths = emit_power_curves(table, cfg.out_dir)
    doc = _base_doc(cfg)
    doc["options"] = {
        "sample_sizes": list(cfg.plan.sample_sizes),
        "lambda8_grid": list(cfg.plan.lambda8_grid),
        "a_values": list(cfg.plan.a_values),
        "replications": cfg.plan.replications,
        "alpha": cfg.plan.alpha,
        "seed": cfg.plan.seed,
        "estimator_a": cfg.plan.estimator_a,
        "dof_policy": cfg.plan.dof_policy,
        "jobs": cfg.jobs,
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
    _emit(doc, cfg)
    return EXIT_OK


_BUNDLE_TOL = {"symmetry": 1e-8, "idempotency": 1e-8, "trace": 1e-6, "annihilation": 1e-8}


def _run_verify(cfg: RunConfig) -> int:
    design = cfg.design
    if cfg.drop_eta is not None:
        if not 1 <= cfg.drop_eta <= design.u:
            raise DomainError(f"--drop-eta must be in [1, {design.u}], got {cfg.drop_eta}")
        keep = [i for i in range(design.u) if i != cfg.drop_eta - 1]
        if not keep:
            raise DomainError("cannot drop the only eta coordinate")
        design = ModelDesign(Q=design.Q, C=design.C, V=np.asarray(design.V)[:, keep], d=design.d)
    rng = np.random.Generator(np.random.Philox(cfg.theta_seed))
    theta0 = Theta(
        lam=rng.normal(0.0, cfg.theta_scale, design.t),
        eta=rng.normal(0.0, cfg.theta_scale, design.u),
    )
    checks = []
    bundle = build_bundle(design, theta0, pseudo_inverse=cfg.pseudo_inverse)
    measured = bundle_identity_checks(bundle, design)
    checks.extend([
        ("Q symmetry", measured["q_symmetry"], _BUNDLE_TOL["symmetry"]),
        ("Q idempotency", measured["q_idempotency"], _BUNDLE_TOL["idempotency"]),
        ("Q trace = cells - rank - 1", measured["q_trace_deviation"], _BUNDLE_TOL["trace"]),
        ("sqrt-p annihilation", measured["sqrtp_annihilation"], _BUNDLE_TOL["annihilation"]),
    ])
    projections_doc = None
    if cfg.zero_lam or cfg.zero_eta:
        pair = NestedPair(design, cfg.zero_lam, cfg.zero_eta)
        lam0 = np.array(theta0.lam)
        lam0[list(cfg.zero_lam)] = 0.0
        eta0 = np.array(theta0.eta)
        if cfg.zero_eta:
            eta0[list(cfg.zero_eta)] = 0.0
        proj = build_nested_projections(pair, Theta(lam=lam0, eta=eta0), cfg.pseudo_inverse)
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
    doc = _base_doc(cfg)
    doc["options"] = {
        "theta_seed": cfg.theta_seed, "theta_scale": cfg.theta_scale,
        "pseudo_inverse": cfg.pseudo_inverse, "drop_eta": cfg.drop_eta,
        "rank": bundle.rank, "gram_condition": bundle.gram_condition,
    }
    doc["identities"] = [
        {"name": name, "deviation": dev, "tolerance": tol, "pass": dev <= tol}
        for name, dev, tol in checks
    ]
    if projections_doc is not None:
        doc["projection_measurements"] = projections_doc
    doc["all_pass"] = all_pass
    _emit(doc, cfg)
    return EXIT_OK if all_pass else EXIT_COMPUTE


def _run_list_bundled(cfg: RunConfig) -> int:
    doc = {
        "designs": sorted(_BUNDLED_DESIGNS),
        "counts": sorted(_BUNDLED_COUNTS),
        "chains": sorted(_BUNDLED_CHAINS),
        "plans": sorted(_BUNDLED_PLANS),
    }
    _emit(doc, cfg)
    return EXIT_OK


def run(cfg: RunConfig) -> int:
    handlers = {
        "fit": _run_fit,
        "gof": _run_gof,
        "nested": _run_nested,
        "select": _run_select,
        "simulate": _run_simulate,
        "verify": _run_verify,
        "list-bundled": _run_list_bundled,
    }
    return handlers[cfg.subcommand](cfg)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_args(argv)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return run(cfg)
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
