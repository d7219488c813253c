"""Minimum divergence estimation and testing for latent class models of binary data."""

from .divergence import HSpec, PhiSpec, identity_h, phi_divergence, power
from .errors import (
    DomainError,
    InputFormatError,
    LcmdivError,
    NotConvergedError,
    RankDeficiencyError,
)
from .estimation import FitOptions, FitResult, fit, fit_chain, objective_and_gradient
from .inference import (
    TestResult,
    chi2_quantile,
    estimator_sweep,
    gof_statistic,
    nested_S,
    nested_T,
    sequential_selection,
)
from .montecarlo import SimulationPlan, SizePowerTable, dale_band, run_simulation
from .model import (
    LatentParams,
    ManifestDistribution,
    ModelDesign,
    NestedChain,
    ObservedCounts,
    Theta,
    manifest_distribution,
    manifest_jacobian,
    pattern_index,
    sample_counts,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FitOptions",
    "FitResult",
    "HSpec",
    "InputFormatError",
    "LatentParams",
    "LcmdivError",
    "ManifestDistribution",
    "ModelDesign",
    "NestedChain",
    "NotConvergedError",
    "ObservedCounts",
    "PhiSpec",
    "RankDeficiencyError",
    "SimulationPlan",
    "SizePowerTable",
    "TestResult",
    "Theta",
    "chi2_quantile",
    "dale_band",
    "estimator_sweep",
    "fit",
    "fit_chain",
    "gof_statistic",
    "identity_h",
    "manifest_distribution",
    "manifest_jacobian",
    "nested_S",
    "nested_T",
    "objective_and_gradient",
    "pattern_index",
    "phi_divergence",
    "power",
    "run_simulation",
    "sample_counts",
    "sequential_selection",
]
