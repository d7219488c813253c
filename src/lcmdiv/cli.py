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
failure.  Reports embed input digests, every option as parsed and the
conventions in force so a run can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import __version__, datasets, fileio
from .divergence import HSpec, PhiSpec, identity_h, power
from .errors import DomainError, InputFormatError, LcmdivError, require_integer
from .estimation import FitOptions, fit, fit_chain
from .inference import (
    DOF_POLICIES,
    TestResult,
    gof_statistic,
    nested_S,
    nested_T,
    sequential_selection,
)
from .model import NestedChain, Theta, jacobian_rank
from .montecarlo import emit_power_curves, run_simulation
from .asymptotics import build_bundle, build_nested_projections

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

# The FitOptions fields the fit commands set, in the order their options are declared.
_FIT_OPTIONS = ("seed", "starts", "grad_tol", "init_scale", "max_iters")

# Parsed values a report does not list under ``options``: the inputs (one per
# kind of ``datasets.BUNDLED``), which it records with their digests, and where
# and how the report itself and the progress log are written (the report reads
# the same with or without them).
_NOT_OPTIONS = ("subcommand", *datasets.BUNDLED, "out", "fmt", "list_bundled", "progress")


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
        params = {}
        for item in rest.split(",") if rest else ():
            key, _, value = item.partition("=")
            params[key.strip()] = float(value)
        # HSpec refuses unknown tags and indices (TypeError for a name it lacks).
        return HSpec(tag=tag.strip().lower().replace("-", "_"), **params)
    except (ValueError, TypeError, DomainError) as exc:
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
    return values


def _phi_str(spec: Optional[PhiSpec]) -> Optional[str]:
    return None if spec is None else f"power:a={spec.a!r}"


def _h_str(h: Optional[HSpec]) -> Optional[str]:
    """``h`` in the ``--h`` grammar, which :func:`_h_spec` reads back."""
    if h is None:
        return None
    pairs = (("a", h.a), ("b", h.b))
    indices = ",".join(f"{key}={value!r}" for key, value in pairs if value is not None)
    return h.tag.replace("_", "-") + (f":{indices}" if indices else "")


def _add_output_opts(p) -> None:
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcmdiv",
        description="Minimum divergence estimation and testing for latent class models of binary data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_fit_opts(p):  # in _FIT_OPTIONS order
        p.add_argument("--seed", type=int, default=FitOptions.seed)
        p.add_argument("--starts", type=int, default=FitOptions.starts, help="multi-start launches")
        p.add_argument("--grad-tol", type=float, default=FitOptions.grad_tol)
        p.add_argument("--init-scale", type=float, default=FitOptions.init_scale)
        p.add_argument("--max-iters", type=int, default=FitOptions.max_iters)

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
    p.add_argument("--dof-policy", choices=DOF_POLICIES, default="rank")
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
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--statistic", choices=("S", "T"), default="S")
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
    p.add_argument("--jobs", type=int, default=1, help="parallel processes (default: 1)")
    p.add_argument("--progress", action="store_true",
                   help="log each cell on stderr, with its share of the wall time of its chunks")
    p.add_argument("--out-dir", required=True)
    _add_output_opts(p)

    p = sub.add_parser("verify", help="check the projection-matrix identities on a design")
    p.add_argument("--design", required=True)
    p.add_argument("--theta-seed", type=int, default=0)
    p.add_argument("--theta-scale", type=float, default=0.5)
    p.add_argument("--pseudo-inverse", action="store_true")
    p.add_argument("--drop-eta", type=int, help="1-based eta coordinate to drop (identifiable reduction)")
    p.add_argument("--zero-lambda", type=_indices, default=(), help="also check nested projections for this restriction")
    p.add_argument("--zero-eta", type=_indices, default=(),
                   help="1-based eta coordinates of the loaded design to zero as well, "
                        "numbered as --drop-eta numbers them (not the dropped one)")
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
        _check_output_paths(ns)
        return ns
    ns = build_parser().parse_args(argv)
    # The report's options: every value as parsed, in the parser's order.
    ns.options = {
        name: _phi_str(value) if isinstance(value, PhiSpec)
        else _h_str(value) if isinstance(value, HSpec) else value
        for name, value in vars(ns).items()
        if name not in _NOT_OPTIONS
    }
    if hasattr(ns, "starts"):
        ns.fit_options = FitOptions(**{name: getattr(ns, name) for name in _FIT_OPTIONS})
    ns.inputs = {}
    for kind in datasets.BUNDLED:  # the report's order
        path = getattr(ns, kind, None)
        if path:
            obj, digest = fileio.load(kind, path)
            setattr(ns, kind, obj)
            ns.inputs[kind] = {"path": path, "sha256": digest}
    if hasattr(ns, "design") and hasattr(ns, "counts") and ns.counts.k != ns.design.k:
        raise InputFormatError(
            f"counts have k = {ns.counts.k} items but the design has k = {ns.design.k}"
        )
    if ns.subcommand == "select" and ns.counts.k != ns.chain.design.k:
        raise InputFormatError("chain design and counts disagree on the item count")
    # Option values the run would refuse only after fitting, or not at all.
    if ns.subcommand in ("gof", "nested", "select") and not 0.0 < 1.0 - ns.alpha < 1.0:
        raise DomainError("--alpha must be in (0, 1), with 1 - alpha below 1")
    if ns.subcommand == "gof" and ns.dof_override is not None:
        require_integer("--dof-override", ns.dof_override, 1)
    if ns.subcommand == "verify":
        if not 0.0 < ns.theta_scale < math.inf:
            raise DomainError("--theta-scale must be > 0 and finite")
        require_integer("--theta-seed", ns.theta_seed, 0)
        if ns.drop_eta is not None:
            if not 1 <= ns.drop_eta <= ns.design.u:
                raise DomainError(f"--drop-eta must be in [1, {ns.design.u}], got {ns.drop_eta}")
            if ns.drop_eta in ns.zero_eta:
                raise DomainError(f"--zero-eta {ns.drop_eta} is the coordinate --drop-eta removes")
            ns.design = NestedChain(ns.design, (((), (ns.drop_eta - 1,)),)).model_design(2)
    if ns.subcommand in ("nested", "verify"):
        # The one place the 1-based indices become 0-based.  verify's --zero-eta
        # counts the loaded design's coordinates, so those past a dropped one shift down.
        dropped = getattr(ns, "drop_eta", None) or math.inf
        mask = (tuple(i - 1 for i in ns.zero_lambda), tuple(i - 1 - (i > dropped) for i in ns.zero_eta))
        if ns.subcommand == "nested" and not any(mask):
            raise DomainError("nested needs --zero-lambda or --zero-eta: model B must fix a coordinate")
        ns.chain = NestedChain(ns.design, (mask,) if any(mask) else ())
    if ns.subcommand == "simulate":
        # Refused here: run_simulation's DomainError would exit as a failed run.
        require_integer("--jobs", ns.jobs, 1)
        overrides = {
            name: getattr(ns, name)
            for name in ("sample_sizes", "lambda8_grid", "a_values", "replications", "seed", "alpha")
            if getattr(ns, name) is not None
        }
        ns.plan = replace(ns.plan, **overrides)
    _check_output_paths(ns)
    return ns


def _check_output_paths(ns: argparse.Namespace) -> None:
    """Refuse an output path the run could not write, before any computation;
    ``--out-dir`` is created here."""
    if ns.out and (not os.path.isdir(os.path.dirname(ns.out) or ".") or os.path.isdir(ns.out)):
        raise DomainError(f"--out {ns.out}: not a file path in an existing directory")
    if getattr(ns, "out_dir", None) is not None:
        try:
            os.makedirs(ns.out_dir, exist_ok=True)
        except OSError as exc:
            raise DomainError(
                f"--out-dir {ns.out_dir}: cannot create the directory ({exc.strerror})"
            )


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=1) + "\n"
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


def _emit(doc: dict, ns: argparse.Namespace) -> None:
    text = _render(doc, ns.fmt)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_doc(ns: argparse.Namespace, **results) -> dict:
    """The report's header; ``results`` follow the parsed options under ``options``."""
    return {
        "command": ns.subcommand,
        "version": __version__,
        "inputs": ns.inputs,
        "conventions": dict(_CONVENTIONS),
        "options": {**ns.options, **results},
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


def _fit_doc(design, result) -> dict:
    return {
        "converged": result.converged,
        "objective": result.objective,
        "lambda": np.asarray(result.theta_hat.lam).tolist(),
        "eta": np.asarray(result.theta_hat.eta).tolist(),
        "class_weights": np.asarray(result.latent.w).tolist(),
        "item_probs": np.asarray(result.latent.P).tolist(),
        "jacobian_rank": jacobian_rank(design, result.theta_hat),
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
    doc["fit"] = _fit_doc(ns.design, result)
    _emit(doc, ns)
    if not result.converged:
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def _run_gof(ns: argparse.Namespace) -> int:
    fit2 = fit(ns.design, ns.counts, ns.phi2, ns.fit_options)
    result = gof_statistic(
        ns.design, ns.counts, ns.phi1, fit2, ns.alpha, ns.dof_policy, ns.dof_override, ns.h
    )
    doc = _base_doc(ns)
    doc["fit"] = _fit_doc(ns.design, fit2)
    doc["test"] = _test_result_doc(result)
    doc["decision"] = "reject" if result.reject else "no evidence against the model"
    _emit(doc, ns)
    return EXIT_OK


def _run_nested(ns: argparse.Namespace) -> int:
    # Both statistics test the same two fits.
    fit_A, fit_B = fit_chain(ns.chain, ns.counts, ns.phi2, ns.fit_options)
    tests = {
        kind: test(ns.counts, ns.phi1, fit_A, fit_B, ns.alpha, ns.h)
        for kind, test in (("S", nested_S), ("T", nested_T))
        if ns.statistic in (kind, "both")
    }
    doc = _base_doc(ns, h1=ns.chain.free_params(1), h2=ns.chain.free_params(2))
    doc["tests"] = {name: _test_result_doc(res) for name, res in tests.items()}
    _emit(doc, ns)
    return EXIT_OK


def _run_select(ns: argparse.Namespace) -> int:
    result = sequential_selection(
        ns.chain, ns.counts, ns.phi1, ns.phi2,
        alpha=ns.alpha, statistic=ns.statistic, h=ns.h, options=ns.fit_options,
    )
    doc = _base_doc(ns)
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
    table_path = os.path.join(ns.out_dir, "size_power.csv")
    table.write_csv(table_path)
    curve_paths = emit_power_curves(table, ns.out_dir)
    doc = _base_doc(ns)
    # The effective plan, after the overrides; the input digest covers the designs.
    doc["plan"] = {
        key: value for key, value in fileio.plan_to_dict(ns.plan).items()
        if key not in ("null_design", "alt_design")
    }
    doc["outputs"] = {"table": table_path, "curves": curve_paths}
    header, *rows = table.rows()
    doc["cells"] = [dict(zip(header, row)) for row in rows]
    _emit(doc, ns)
    return EXIT_OK


_BUNDLE_TOL = {"symmetry": 1e-8, "idempotency": 1e-8, "trace": 1e-6, "annihilation": 1e-8}


def _run_verify(ns: argparse.Namespace) -> int:
    design = ns.design  # already without the --drop-eta coordinate
    rng = np.random.Generator(np.random.Philox(ns.theta_seed))
    theta0 = Theta(
        lam=rng.normal(0.0, ns.theta_scale, design.t),
        eta=rng.normal(0.0, ns.theta_scale, design.u),
    )
    measured = build_bundle(design, theta0, pseudo_inverse=ns.pseudo_inverse)
    checks = [
        ("Q symmetry", measured["q_symmetry"], _BUNDLE_TOL["symmetry"]),
        ("Q idempotency", measured["q_idempotency"], _BUNDLE_TOL["idempotency"]),
        ("Q trace = cells - rank - 1", measured["q_trace_deviation"], _BUNDLE_TOL["trace"]),
        ("sqrt-p annihilation", measured["sqrtp_annihilation"], _BUNDLE_TOL["annihilation"]),
    ]
    pm = None
    if ns.chain.n_models == 2:
        pm = build_nested_projections(ns.chain, theta0, ns.pseudo_inverse)
        checks.extend([
            ("R_L trace = h1", pm["rl_trace_deviation"], _BUNDLE_TOL["trace"]),
            ("R_M trace = h2", pm["rm_trace_deviation"], _BUNDLE_TOL["trace"]),
            ("R_L R_M = R_M", pm["product_rl_rm"], _BUNDLE_TOL["idempotency"]),
            ("R_M R_L = R_M", pm["product_rm_rl"], _BUNDLE_TOL["idempotency"]),
            ("(R_L - R_M) idempotent", pm["difference_idempotency"], _BUNDLE_TOL["idempotency"]),
            ("(R_L - R_M) trace = h1 - h2", pm["difference_trace_deviation"], _BUNDLE_TOL["trace"]),
            ("projections annihilate sqrt-p", pm["sqrtp_annihilation"], _BUNDLE_TOL["annihilation"]),
        ])

    all_pass = all(dev <= tol for _, dev, tol in checks)
    doc = _base_doc(ns, rank=measured["rank"], gram_condition=measured["gram_condition"])
    doc["identities"] = [
        {"name": name, "deviation": dev, "tolerance": tol, "pass": dev <= tol}
        for name, dev, tol in checks
    ]
    if pm is not None:
        doc["projection_measurements"] = pm
    doc["all_pass"] = all_pass
    _emit(doc, ns)
    return EXIT_OK if all_pass else EXIT_COMPUTE


def _run_list_bundled(ns: argparse.Namespace) -> int:
    doc = {kind.rstrip("s") + "s": sorted(bundled) for kind, bundled in datasets.BUNDLED.items()}
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
    except LcmdivError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
