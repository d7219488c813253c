"""Readers and writers for design, counts, chain and plan files.

The input kinds are ``datasets.BUNDLED``'s keys.  :func:`load` and :func:`write`
serve every kind, and look up its ``read_<kind>`` and ``<kind>_to_dict`` by name.

Formats
-------
Design (JSON): object with ``k, m, t, u`` and nested arrays ``Q`` (m x k x t),
``C`` (m x k), ``V`` (m x u), ``d`` (m).  An optional ``comment`` field is
written as the last key and ignored on read; any other key is refused.

Counts (delimited text): either per-pattern rows with a header line
``y_1,...,y_k,count`` (patterns may appear in any order; missing patterns
count zero), or a headerless dense vector of ``2**k`` integers, one per line
or comma-separated on one line, in pattern-index order.  Lines that start
with ``#`` are skipped; :func:`write` puts a comment there, one ``# `` line
per comment line.

Chain (JSON): object with an inline ``design`` plus ``steps`` (and an
optional ``comment``), ``steps`` a list of objects with cumulative
``zero_lambda`` / ``zero_eta`` lists of 1-based coordinate indices, each
named at most once, and no other key.

Plan (JSON): inline ``null_design`` and ``alt_design``, ``theta0`` with
``lambda`` and ``eta`` arrays, and the plain scalar fields of the plan, the
fit's in a ``fit`` object.  A key the format does not have, at the top level
(other than ``comment``), in ``fit`` or in ``theta0``, is refused.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import numpy as np

from . import datasets
from .errors import InputFormatError
from .model import _INT64, ModelDesign, NestedChain, ObservedCounts, Theta, all_patterns, pattern_index
from .montecarlo import SimulationPlan


class InputFile:
    """One read of an input file: its UTF-8 ``text`` and the ``sha256`` of the bytes read.

    Every reader below takes an ``InputFile`` in place of a path, so a caller
    that records the digest parses exactly the bytes it hashed.  A missing,
    unreadable or non-UTF-8 file is an input error.
    """

    def __init__(self, path):
        self.path = path
        try:
            data = Path(path).read_bytes()
            self.text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read {path}: {exc}")
        self.sha256 = hashlib.sha256(data).hexdigest()

    def __str__(self) -> str:
        return str(self.path)


def _read_text(source) -> str:
    """The text of ``source``, an :class:`InputFile` or a path read here."""
    return (source if isinstance(source, InputFile) else InputFile(source)).text


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: not valid JSON ({exc})")


def design_to_dict(design: ModelDesign) -> dict:
    return {
        "k": design.k,
        "m": design.m,
        "t": design.t,
        "u": design.u,
        "Q": np.asarray(design.Q).tolist(),
        "C": np.asarray(design.C).tolist(),
        "V": np.asarray(design.V).tolist(),
        "d": np.asarray(design.d).tolist(),
    }


def design_from_dict(doc: dict, where: str = "design") -> ModelDesign:
    _check_keys(doc, ("Q", "C", "V", "d", "k", "m", "t", "u", "comment"), where, "design")
    arrays = {name: _field(doc, name, _array, where, "design") for name in ("Q", "C", "V", "d")}
    try:
        design = ModelDesign(**arrays)
    except ValueError as exc:
        raise InputFormatError(f"{where}: bad design ({exc})")
    for name in ("k", "m", "t", "u"):
        if name in doc and _field(doc, name, _INT, where, "design") != getattr(design, name):
            raise InputFormatError(
                f"{where}: declared {name} = {doc[name]} does not match arrays "
                f"({name} = {getattr(design, name)})"
            )
    return design


def read_design(path) -> ModelDesign:
    return design_from_dict(_load_json(path), where=str(path))


def read_counts(path) -> ObservedCounts:
    lines = [ln.strip() for ln in _read_text(path).splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InputFormatError(f"{path}: empty counts file")

    first = [tok.strip() for tok in lines[0].replace("\t", ",").split(",")]
    has_header = any(not _is_number(tok) for tok in first)
    n = (_read_pattern_rows if has_header else _read_dense)(lines, path)
    try:
        return ObservedCounts(n=n)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}")


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _read_pattern_rows(lines, path):
    header = [tok.strip().lower() for tok in lines[0].replace("\t", ",").split(",")]
    if header[-1] != "count" or not all(h.startswith("y") for h in header[:-1]):
        raise InputFormatError(f"{path}: expected header y_1,...,y_k,count")
    k_file = len(header) - 1
    n = np.zeros(2 ** k_file, dtype=np.int64)
    seen = set()
    for row_no, ln in enumerate(lines[1:], start=2):
        toks = [tok.strip() for tok in ln.replace("\t", ",").split(",")]
        if len(toks) != k_file + 1:
            raise InputFormatError(f"{path}:{row_no}: expected {k_file + 1} fields")
        try:
            y = [int(tok) for tok in toks[:-1]]
            count = int(toks[-1])
        except ValueError:
            raise InputFormatError(f"{path}:{row_no}: non-integer entry")
        if any(b not in (0, 1) for b in y):
            raise InputFormatError(f"{path}:{row_no}: responses must be 0 or 1")
        if count < 0:
            raise InputFormatError(f"{path}:{row_no}: negative count")
        if count > _INT64.max:
            raise InputFormatError(f"{path}:{row_no}: count {count} does not fit in a 64-bit integer")
        nu = pattern_index(y)
        if nu in seen:
            raise InputFormatError(f"{path}:{row_no}: duplicate pattern {y}")
        seen.add(nu)
        n[nu - 1] = count
    return n


def _read_dense(lines, path):
    toks = []
    for ln in lines:
        toks.extend(tok.strip() for tok in ln.replace("\t", ",").split(",") if tok.strip())
    try:
        values = [int(tok) for tok in toks]
    except ValueError:
        raise InputFormatError(f"{path}: dense counts must be integers")
    wide = [v for v in values if not _INT64.min <= v <= _INT64.max]
    if wide:
        raise InputFormatError(f"{path}: count {wide[0]} does not fit in a 64-bit integer")
    size = len(values)
    if size < 2 or size & (size - 1):
        raise InputFormatError(f"{path}: dense counts length must be a power of two, got {size}")
    return np.array(values, dtype=np.int64)


def counts_to_dict(counts: ObservedCounts) -> dict:
    return {"n": np.asarray(counts.n).tolist()}


def chain_to_dict(chain: NestedChain) -> dict:
    return {
        "design": design_to_dict(chain.design),
        "steps": [
            {
                "zero_lambda": [i + 1 for i in zl],
                "zero_eta": [i + 1 for i in ze],
            }
            for zl, ze in chain.steps
        ],
    }


def chain_from_dict(doc: dict, where: str = "chain") -> NestedChain:
    _check_keys(doc, ("design", "steps", "comment"), where, "chain")
    design_doc = _field(doc, "design", _OBJECT, where, "chain")
    design = design_from_dict(design_doc, where=f"{where}.design")
    keys = ("zero_lambda", "zero_eta")
    steps = tuple(
        tuple(
            tuple(i - 1 for i in _field({key: [], **step}, key, _list_of(_INT), where, "chain"))
            for key in keys
        )
        for step in _field(doc, "steps", _list_of(_object_of(keys)), where, "chain")
    )
    try:
        return NestedChain(design=design, steps=steps)
    except ValueError as exc:
        raise InputFormatError(f"{where}: bad chain ({exc})")


def read_chain(path) -> NestedChain:
    return chain_from_dict(_load_json(path), where=str(path))


def _typed(what: str, kind: type, *also: type):
    """Converter to ``kind`` of a JSON value of type ``kind`` or ``also``; a JSON
    boolean (a Python ``bool``, hence an ``int``) passes only as ``bool``."""

    def convert(value):
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, (kind, *also)):
            raise TypeError(f"expected {what}, got {json.dumps(value, default=repr)}")
        return kind(value)

    return convert


def _list_of(convert):
    """Converter of a JSON list to the tuple of ``convert`` of its items."""
    return lambda values: tuple(map(convert, _typed("a list", list)(values)))


_INT = _typed("an integer", int)
_FLOAT = _typed("a number", float, int)
_OBJECT = _typed("an object", dict)


def _object_of(keys):
    """Converter of a JSON object whose keys are all among ``keys``."""

    def convert(value):
        unknown = [key for key in _OBJECT(value) if key not in keys]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        return value

    return convert


def _check_keys(doc, keys, where: str, kind: str) -> None:
    """Refuse ``doc`` unless it is a JSON object whose keys are all among ``keys``."""
    try:
        _object_of(keys)(doc)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: bad {kind} ({exc})")


def _array(values) -> np.ndarray:
    """Nested JSON lists of numbers as a float64 array; any other leaf is refused."""

    def nested(values):
        items = _typed("a list", list)(values)
        return [nested(v) if isinstance(v, list) else _FLOAT(v) for v in items]

    return np.array(nested(values), dtype=np.float64)


def _field(doc: dict, key: str, convert, where: str, kind: str):
    """``convert(doc[key])``; a missing key or a value of the wrong JSON type is an
    input error that names the key."""
    try:
        return convert(doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: bad {kind} key {key!r} ({exc})")


def _theta_from_dict(doc: dict) -> Theta:
    doc = _object_of(("lambda", "eta"))(doc)
    return Theta(lam=_array(doc["lambda"]), eta=_array(doc["eta"]))


# The plan format, one row per key in file order: (JSON key, section, SimulationPlan
# field, converter from JSON, required).  The fit options sit in the "fit" section;
# an absent optional key takes the SimulationPlan default.
_PLAN_KEYS = (
    ("null_design", None, "null_design", partial(design_from_dict, where="null_design"), True),
    ("alt_design", None, "alt_design", partial(design_from_dict, where="alt_design"), True),
    ("theta0", None, "theta0", _theta_from_dict, True),
    ("lambda8_grid", None, "lambda8_grid", _list_of(_FLOAT), True),
    ("sample_sizes", None, "sample_sizes", _list_of(_INT), True),
    ("a_values", None, "a_values", _list_of(_FLOAT), True),
    ("replications", None, "replications", _INT, True),
    ("alpha", None, "alpha", _FLOAT, False),
    ("seed", None, "seed", _INT, False),
    ("estimator_a", None, "estimator_a", _FLOAT, False),
    ("dof_policy", None, "dof_policy", _typed("a string", str), False),
    ("starts", "fit", "fit_starts", _INT, False),
    ("start_at_truth", "fit", "start_at_truth", _typed("true or false", bool), False),
    ("grad_tol", "fit", "fit_grad_tol", _FLOAT, False),
    ("max_iters", "fit", "fit_max_iters", _INT, False),
)


def _plan_value(value):
    """A plan field as its key holds it."""
    if isinstance(value, ModelDesign):
        return design_to_dict(value)
    if isinstance(value, Theta):
        return {"lambda": np.asarray(value.lam).tolist(), "eta": np.asarray(value.eta).tolist()}
    return list(value) if isinstance(value, tuple) else value


def plan_to_dict(plan: SimulationPlan) -> dict:
    doc = {}
    for key, section, field, _, _ in _PLAN_KEYS:
        (doc.setdefault(section, {}) if section else doc)[key] = _plan_value(getattr(plan, field))
    return doc


def plan_from_dict(doc: dict, where: str = "plan") -> SimulationPlan:
    """The plan a JSON document holds; a value of the wrong JSON type, or a key the
    format does not have, is refused."""
    top_keys = [key for key, section, *_ in _PLAN_KEYS if not section] + ["fit", "comment"]
    _check_keys(doc, top_keys, where, "plan")
    fit_keys = [key for key, section, *_ in _PLAN_KEYS if section]
    fit = _field({"fit": {}, **doc}, "fit", _object_of(fit_keys), where, "plan")
    fields = {}
    for key, section, field, convert, required in _PLAN_KEYS:
        try:
            source = fit if section else doc
            if required or key in source:
                fields[field] = convert(source[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{where}: bad plan key {key!r} ({exc})")
    try:
        return SimulationPlan(**fields)
    except ValueError as exc:
        raise InputFormatError(f"{where}: bad plan ({exc})")


def read_plan(path) -> SimulationPlan:
    return plan_from_dict(_load_json(path), where=str(path))


def load(kind: str, path: str):
    """``(object, sha256)`` of the ``kind`` input at ``path``: a file's bytes from one
    read, or a ``bundled:<name>`` object's sorted ``<kind>_to_dict`` JSON."""
    bundled = datasets.BUNDLED[kind]
    if path.startswith("bundled:"):
        name = path[len("bundled:") :]
        if name not in bundled:
            raise InputFormatError(
                f"unknown bundled {kind} {name!r}; available: {', '.join(sorted(bundled))}"
            )
        obj = bundled[name][0]()
        doc = globals()[f"{kind}_to_dict"](obj)
        return obj, hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    source = InputFile(path)
    return globals()[f"read_{kind}"](source), source.sha256


def write(kind: str, obj, path, comment: str = None) -> None:
    """Write ``obj``, an input of ``kind``, to ``path``; ``comment`` is a JSON file's
    last key, or a counts file's leading ``# `` lines."""
    if kind == "counts":
        lines = [f"# {line}" for line in comment.splitlines()] if comment else []
        lines.append(",".join([f"y_{i + 1}" for i in range(obj.k)] + ["count"]))
        pats = all_patterns(obj.k)
        lines += [",".join(map(str, y)) + f",{int(n)}" for y, n in zip(pats, obj.n)]
        text = "\n".join(lines)
    else:
        doc = globals()[f"{kind}_to_dict"](obj)
        if comment:
            doc["comment"] = comment
        text = json.dumps(doc, indent=1)
    Path(path).write_text(text + "\n")
