"""Wall time scaled by the machine's current speed.

On a shared machine the same work can take twice as long from one minute to
the next, and process CPU time grows with it, so raw seconds from two runs
are not comparable.  Before each timed piece of work the benchmark runs a
fixed reference kernel that does not touch lcmdiv (small NumPy array
operations in a Python loop, the same kind of work as a fit).  Each piece's
wall time is scaled by ``REFERENCE_S / mean reading``, the mean of the
readings just before and just after it; the machine's speed holds for a few
seconds at a time, so these two readings track it best.  A scaled time is the
time the work would take on a machine where the kernel takes ``REFERENCE_S``
seconds; a change to lcmdiv moves it as it moves the raw time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.special import expit

# Nominal duration of the reference kernel; about its median on a 2-core
# Intel Xeon virtual machine.
REFERENCE_S = 0.1
_ITERATIONS = 2000


class Clock:
    """Measures the reference kernel on demand and keeps every reading."""

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(0))
        self._Q = rng.normal(size=(10, 5, 7))
        self._theta = rng.normal(size=7)
        self._patterns = ((np.arange(32)[:, None] >> np.arange(4, -1, -1)) & 1).astype(float)
        self.readings = []

    def reference(self) -> float:
        """Seconds the reference kernel takes right now."""
        start = perf_counter()
        acc = 0.0
        for i in range(_ITERATIONS):
            P = expit(self._Q @ self._theta + 1e-3 * i)
            B = np.ones((10, 32))
            for k in range(5):
                B *= np.where(self._patterns[:, k] == 1, P[:, k][:, None], 1.0 - P[:, k][:, None])
            acc += float(np.einsum("jv,jv->", B, B))
        elapsed = perf_counter() - start
        self.readings.append(elapsed)
        return elapsed

    def median_reference(self) -> float:
        return statistics.median(self.readings)


def scale_units(units, clock: Clock) -> None:
    """Scale every piece of consecutive units by the readings just before and after it."""
    readings = [r for unit in units for r in unit.readings] + [clock.reference()]
    i = 0
    for unit in units:
        for label in unit.parts:
            unit.part_scale[label] = REFERENCE_S / statistics.fmean(readings[i:i + 2])
            i += 1
