"""Unsupervised recovery of a sparse single-index direction from the extreme
tails of an always-observed surrogate, plus the matching theory oracles,
supervised baseline, and simulation harness."""

import os

# One BLAS thread per process unless the caller set a count; this must run before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
