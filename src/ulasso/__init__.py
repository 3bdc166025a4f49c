"""Unsupervised recovery of a sparse single-index direction from the extreme
tails of an always-observed surrogate, plus the matching theory oracles,
supervised baseline, and simulation harness."""

from .model import (
    Dataset,
    DegenerateTailsError,
    DesignSpec,
    Direction,
    ExtremeSubset,
    FitResult,
)
from .sampler import SimulationConfig, XiLaw
from .tuning import TuningTrace, fit_ulasso

__all__ = [
    "Dataset",
    "DegenerateTailsError",
    "DesignSpec",
    "Direction",
    "ExtremeSubset",
    "FitResult",
    "SimulationConfig",
    "XiLaw",
    "TuningTrace",
    "fit_ulasso",
]

__version__ = "0.1.0"
