"""Bundled designs and data: the Coleman panel study and the size/power preset.

The Coleman data are the classic two-wave "leading crowd" interviews: 3398
schoolboys answered two questions (membership, attitude) at two occasions,
giving four binary items.  Item order is (question 1 wave 1, question 2 wave
1, question 1 wave 2, question 2 wave 2), and the pattern index walks the
published 4x4 table in row-major order, rows indexed by the wave-1 response
pair and columns by the wave-2 pair.

The four-class model ``M1`` ties each class to a (low, high) position pair on
the two underlying scales.  Wave-1 logits get one parameter per question and
position (lambda 1..4); wave-2 logits get their own parameter per question
and position (lambda 5..8).  Class weights use an identity loading matrix on
four free parameters, which carries one softmax redundancy (nominal 12
parameters, numerical rank 11).

``coleman_chain`` re-expresses the same model so that the classical reduced
models are nested by zeroing coordinates.  Wave-2 logits are written as
wave-1 logit + change, with the change decomposed as

    change = c0 + cH * [position is high] + f_q * [question == q deviation]

so zeroing ``(f1, f2)`` makes changes question-independent (M2, 6 item
parameters), additionally zeroing ``cH`` makes them position-independent
(M3, 5), and zeroing ``c0`` removes change altogether (M4, 4).  The original
publication of the reduced models only describes them in prose; this
reconstruction reproduces their parameter counts (6, 5, 4) and test degrees
of freedom (2, 1, 1) but is NOT authoritative for their exact loadings.

``simulation_*`` builds the five-item, ten-class study design used by the
size/power harness, together with its true parameter values and the
single-column extension whose coefficient indexes the alternatives.

``BUNDLED`` names every bundled input once: kind (in the CLI report's order)
-> name -> (constructor, one-line description).  The CLI's ``bundled:<name>``
inputs read it, and ``scripts/export_bundled_data.py`` writes one ``data/``
file per entry, with the description as its ``comment``.
"""

from __future__ import annotations

import numpy as np

from .model import ModelDesign, NestedChain, ObservedCounts, Theta
from .montecarlo import SimulationPlan

# ---------------------------------------------------------------------------
# Coleman two-wave panel data
# ---------------------------------------------------------------------------

# Row-major cells of the published 4x4 table (rows: wave-1 pair 00,01,10,11;
# columns: wave-2 pair 00,01,10,11).  Total 3398.
_COLEMAN_TABLE = [
    [554, 338, 97, 85],
    [281, 531, 75, 184],
    [87, 56, 182, 171],
    [49, 110, 140, 458],
]


def coleman_counts() -> ObservedCounts:
    """Observed pattern counts for the Coleman data (N = 3398)."""
    return ObservedCounts(n=np.array(_COLEMAN_TABLE, dtype=np.int64).reshape(-1))


# Class positions on the two scales: (question 1, question 2), 0 = low, 1 = high.
_CLASS_POSITIONS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def coleman_design_m1() -> ModelDesign:
    """Four-class, eight-parameter design in the original basis.

    lambda 1/2: question 1 wave 1, low/high class position;
    lambda 3/4: question 2 wave 1, low/high;
    lambda 5..8: the analogous wave-2 parameters.
    """
    m, k, t, u = 4, 4, 8, 4
    Q = np.zeros((m, k, t))
    for j, (pos1, pos2) in enumerate(_CLASS_POSITIONS):
        Q[j, 0, 0 + pos1] = 1.0  # question 1, wave 1
        Q[j, 1, 2 + pos2] = 1.0  # question 2, wave 1
        Q[j, 2, 4 + pos1] = 1.0  # question 1, wave 2
        Q[j, 3, 6 + pos2] = 1.0  # question 2, wave 2
    return ModelDesign(Q=Q, C=np.zeros((m, k)), V=np.eye(m), d=np.zeros(m))


def coleman_design_chain_basis() -> ModelDesign:
    """The M1 model reparametrized for nesting (same manifold as ``coleman_design_m1``).

    Coordinates: (lambda_1..lambda_4, c0, cH, f1, f2).  Wave-2 logits are
    wave-1 logit + c0 + cH * [high] + f_question, with f1 attached to the
    low-position wave-2 change of question 2 and f2 to the high-position one.
    """
    m, k, t, u = 4, 4, 8, 4
    Q = np.zeros((m, k, t))
    for j, (pos1, pos2) in enumerate(_CLASS_POSITIONS):
        Q[j, 0, 0 + pos1] = 1.0
        Q[j, 1, 2 + pos2] = 1.0
        # question 1, wave 2: base + c0 (+ cH when high)
        Q[j, 2, 0 + pos1] = 1.0
        Q[j, 2, 4] = 1.0
        if pos1 == 1:
            Q[j, 2, 5] = 1.0
        # question 2, wave 2: base + c0 (+ cH when high) + question deviation
        Q[j, 3, 2 + pos2] = 1.0
        Q[j, 3, 4] = 1.0
        if pos2 == 1:
            Q[j, 3, 5] = 1.0
            Q[j, 3, 7] = 1.0
        else:
            Q[j, 3, 6] = 1.0
    return ModelDesign(Q=Q, C=np.zeros((m, k)), V=np.eye(m), d=np.zeros(m))


def coleman_chain() -> NestedChain:
    """Nested sequence M1 > M2 > M3 > M4 over the chain-basis design.

    The reduced models are reconstructions (see module docstring); results
    that depend on them are conditional on this reconstruction.
    """
    return NestedChain(
        design=coleman_design_chain_basis(),
        steps=(
            ((6, 7), ()),  # M2: changes independent of the question
            ((5, 6, 7), ()),  # M3: changes independent of question and position
            ((4, 5, 6, 7), ()),  # M4: no changes
        ),
    )


# ---------------------------------------------------------------------------
# Size/power study design: 5 items, 10 classes, 7 + 6 parameters
# ---------------------------------------------------------------------------

_SIM_Q = [
    # Q for lambda_1
    [[1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1],
     [0, 0, 0, 1, 0],
     [0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0],
     [1, 0, 0, 0, 0],
     [0, 0, 0, 1, 0],
     [0, 0, 0, 0, 1]],
    # lambda_2
    [[0, 1, 0, 0, 0],
     [1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1],
     [0, 0, 0, 1, 0],
     [0, 0, 1, 0, 0],
     [0, 0, 0, 0, 1],
     [1, 0, 0, 0, 0],
     [0, 0, 1, 0, 0]],
    # lambda_3
    [[0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0],
     [1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1],
     [0, 0, 0, 1, 0],
     [0, 1, 0, 0, 0],
     [0, 0, 0, 0, 1],
     [1, 0, 0, 0, 0]],
    # lambda_4
    [[0, 0, 0, 1, 0],
     [0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0],
     [1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1],
     [0, 0, 0, 0, 0],
     [0, 1, 0, 0, 0],
     [0, 0, 0, 0, 0]],
    # lambda_5
    [[0, 0, 0, 0, 1],
     [0, 0, 0, 1, 0],
     [0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0],
     [1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 1, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 1, 0]],
    # lambda_6
    [[0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1],
     [0, 0, 0, 1, 0],
     [0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0],
     [1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0]],
    # lambda_7
    [[0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1],
     [0, 0, 0, 1, 0],
     [0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0],
     [1, 0, 0, 0, 0],
     [0, 0, 0, 1, 0],
     [0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0]],
]

_SIM_V = [
    [1, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 1],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1, 0],
]

# Extension column: loads the first five classes on every item.
_SIM_Q_EXTRA = [[1, 1, 1, 1, 1]] * 5 + [[0, 0, 0, 0, 0]] * 5

_SIM_LAMBDA0 = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
_SIM_ETA0 = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_SIM_LAMBDA8_GRID = (-3.0, -2.0, -1.5, -1.0, -0.8, 0.0, 0.7, 0.9, 1.0, 1.3, 1.5, 2.0)


def simulation_null_design() -> ModelDesign:
    """Ten-class, five-item null design (t = 7, u = 6)."""
    Q = np.stack([np.array(q, dtype=np.float64) for q in _SIM_Q], axis=-1)
    return ModelDesign(
        Q=Q, C=np.zeros((10, 5)), V=np.array(_SIM_V, dtype=np.float64), d=np.zeros(10)
    )


def simulation_alt_design() -> ModelDesign:
    """Null design extended with the extra loading column (t = 8)."""
    null = simulation_null_design()
    extra = np.array(_SIM_Q_EXTRA, dtype=np.float64)[:, :, None]
    return ModelDesign(
        Q=np.concatenate([np.asarray(null.Q), extra], axis=2),
        C=null.C,
        V=null.V,
        d=null.d,
    )


def simulation_theta0() -> Theta:
    """True parameter values of the null model."""
    return Theta(lam=np.array(_SIM_LAMBDA0), eta=np.array(_SIM_ETA0))


def simulation_plan(
    sample_sizes=(200, 300, 400, 500, 1000),
    a_values=(-0.5, 0.0, 2.0 / 3.0, 1.0),
    lambda8_grid=_SIM_LAMBDA8_GRID,
    replications: int = 10_000,
    alpha: float = 0.05,
    seed: int = 20140915,
) -> SimulationPlan:
    """The size/power study preset, rescalable for desk-size runs."""
    return SimulationPlan(
        null_design=simulation_null_design(),
        alt_design=simulation_alt_design(),
        theta0=simulation_theta0(),
        lambda8_grid=tuple(float(x) for x in lambda8_grid),
        sample_sizes=tuple(int(n) for n in sample_sizes),
        a_values=tuple(float(a) for a in a_values),
        replications=int(replications),
        alpha=float(alpha),
        seed=int(seed),
    )


_RECONSTRUCTION_NOTE = (
    "Reduced models reconstructed from the hypothesis descriptions; validated "
    "only by parameter counts (6, 5, 4) and test degrees of freedom (2, 1, 1). "
    "Not authoritative for the original loadings."
)


def _reduced(level: int) -> tuple:
    note = f"RECONSTRUCTION (model {level} of the chain). {_RECONSTRUCTION_NOTE}"
    return lambda: coleman_chain().model_design(level), note


BUNDLED = {
    "design": {
        "coleman_m1": (coleman_design_m1, "Coleman two-wave panel, four-class model, original basis"),
        "coleman_m1_chain_basis": (
            coleman_design_chain_basis,
            "Same manifold as coleman_m1, reparametrized so reduced models nest by zeroing",
        ),
        "coleman_m2": _reduced(2),
        "coleman_m3": _reduced(3),
        "coleman_m4": _reduced(4),
        "sim_null": (simulation_null_design, "Five-item, ten-class size/power study design (null)"),
        "sim_alt": (simulation_alt_design, "Null design extended with the alternative loading column"),
    },
    "counts": {"coleman": (coleman_counts, None)},
    "chain": {
        "coleman_chain": (
            coleman_chain, f"RECONSTRUCTION of the reduced-model sequence. {_RECONSTRUCTION_NOTE}"
        ),
    },
    "plan": {
        "sim": (
            simulation_plan, "Full-scale size/power preset (10000 replications); trim via CLI overrides"
        ),
    },
}
