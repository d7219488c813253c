"""In-memory span tracing around the public functions of each lcmdiv layer.

The benchmark wraps the functions listed in ``TARGETS`` from the outside; the
program itself is not changed.  lcmdiv modules import names directly
(``from .model import manifest_jacobian``), so a wrapper is installed on every
``lcmdiv`` module attribute that holds the original function, and removed
again by ``Tracer.uninstall``.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``request`` identifies one CLI
command or one simulation replication.  Spans stay in memory until
``Tracer.write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (layer, public functions timed on that layer); the layer is the module name.
TARGETS = (
    ("model", ("manifest_distribution", "manifest_jacobian", "sample_counts", "jacobian_rank")),
    ("estimation", ("fit", "objective_and_gradient")),
    ("divergence", ("phi_divergence",)),
    ("inference", ("gof_statistic", "nested_S", "nested_T", "sequential_selection")),
    ("asymptotics", ("build_bundle", "build_nested_projections")),
    ("montecarlo", ("run_simulation",)),
    ("fileio", ("read_design", "read_counts", "read_chain")),
    ("datasets", ("simulation_plan",)),
    ("cli", ("main",)),
)

# Two starts reached the same optimum when their objectives differ by less.
_BEST_ABS_TOL = 1e-9
_BEST_REL_TOL = 1e-6


class Tracer:
    """Records spans and fit outcomes while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.fits = []  # (starts, converged starts, starts at the best objective, iterations)
        self.request = 0
        self._stack = []
        self._installed = []
        self._origin = perf_counter()

    def install(self) -> None:
        for layer, names in TARGETS:
            module = importlib.import_module(f"lcmdiv.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "lcmdiv" or mod_name.startswith("lcmdiv.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            # Each simulation replication starts by sampling its data set.
            if (name == "model.sample_counts" and parent >= 0
                    and self.spans[parent][0] == "montecarlo.run_simulation"):
                self.request += 1
            span = [name, 0.0, 0.0, parent, self.request]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if name == "estimation.fit":
                self._record_fit(result)
            return result

        return traced

    def _record_fit(self, result) -> None:
        traces = result.traces
        best = result.objective
        at_best = 0
        if result.converged:
            tol = _BEST_ABS_TOL + _BEST_REL_TOL * abs(best)
            at_best = sum(1 for tr in traces if tr.converged and abs(tr.objective - best) <= tol)
        self.fits.append((
            len(traces),
            sum(1 for tr in traces if tr.converged),
            at_best,
            sum(tr.iterations for tr in traces),
        ))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "parent": parent,
                    "request": request,
                }) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times of everything traced so far, name -> (value, unit)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            durations[name].append(end - start)

        out = {}
        for name in ("model.manifest_distribution", "model.manifest_jacobian",
                     "model.sample_counts", "model.jacobian_rank", "estimation.fit",
                     "estimation.objective_and_gradient", "divergence.phi_divergence"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_time[name], "s")
        out["model.pattern_table_builds"] = (
            calls["model.manifest_distribution"] + calls["model.manifest_jacobian"], "count")
        fit_ms = sorted(d * 1e3 for d in durations["estimation.fit"])
        out["estimation.fit.p50_ms"] = (_quantile(fit_ms, 0.5), "ms")
        out["estimation.fit.p90_ms"] = (_quantile(fit_ms, 0.9), "ms")

        starts = sum(f[0] for f in self.fits)
        out["estimation.iterations"] = (sum(f[3] for f in self.fits), "count")
        out["estimation.evals_per_fit"] = (
            calls["estimation.objective_and_gradient"] / len(self.fits) if self.fits else 0.0, "count")
        out["estimation.starts_converged_ratio"] = (
            sum(f[1] for f in self.fits) / starts if starts else 0.0, "ratio")
        out["estimation.starts_at_best_ratio"] = (
            sum(f[2] for f in self.fits) / starts if starts else 0.0, "ratio")

        for name in ("inference.gof_statistic", "inference.nested_S", "inference.nested_T",
                     "inference.sequential_selection", "asymptotics.build_bundle",
                     "asymptotics.build_nested_projections", "fileio.read_design",
                     "fileio.read_counts", "fileio.read_chain", "datasets.simulation_plan"):
            out[f"{name}.s"] = (total[name], "s")
        out["montecarlo.self_s"] = (self_time["montecarlo.run_simulation"], "s")
        out["cli.self_s"] = (self_time["cli.main"], "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out


def _quantile(sorted_values, q: float) -> float:
    """Linear-interpolation quantile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
