"""Penalty grids, BIC scoring and selection, and the end-to-end tail-regression fit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extremes import extract_extreme_subset
from .model import Dataset, ExtremeSubset, FitResult, _set_fields
from .solver import (
    CenteredDesign,
    SolverError,
    center,
    lasso_path,
    null_threshold,
)

__all__ = ["TuningTrace", "select_bic", "log_grid", "lambda_grid", "bic_score", "fit_ulasso"]

# The tail fit's penalty grid: glmnet's default of 100 log-spaced points
# down to 1e-4 * lam_max (Friedman, Hastie & Tibshirani 2010).
GRID_POINTS = 100
GRID_RATIO = 1e-4


def log_grid(lam_max: float, n_points: int, ratio: float) -> np.ndarray:
    """``n_points`` log-spaced penalties descending from lam_max to ratio * lam_max."""
    return lam_max * np.logspace(0.0, math.log10(ratio), num=n_points)


def select_bic(scores: np.ndarray, fits: list) -> int:
    """Index of the first minimum score among the converged fits; on a
    descending grid ties go to the largest penalty. Raises ``SolverError``
    when no fit converged."""
    scores = np.asarray(scores, dtype=float)
    eligible = np.flatnonzero([f.converged for f in fits])
    if eligible.size == 0:
        raise SolverError("no converged fit on the penalty grid")
    return int(eligible[np.argmin(scores[eligible])])


@dataclass(frozen=True)
class TuningTrace:
    """Grid, per-penalty scores and fits; ``selected_index`` is what
    ``select_bic`` picks among the converged fits (ties go to the sparser
    fit), derived at construction."""

    lambdas: np.ndarray
    bic_values: np.ndarray
    fits: list = field(repr=False)
    selected_index: int = field(init=False)

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        vals = np.asarray(self.bic_values, dtype=float)
        if lams.shape != vals.shape or lams.ndim != 1 or len(self.fits) != lams.size:
            raise ValueError("lambdas, bic_values and fits must have equal length")
        if np.any(np.diff(lams) >= 0.0):
            raise ValueError("lambdas must be strictly descending")
        _set_fields(self, selected_index=select_bic(vals, self.fits))


def lambda_grid(design: CenteredDesign) -> np.ndarray:
    """The tail fit's grid: ``GRID_POINTS`` log-spaced penalties from
    lam_max = 2*||(1/n) x_t' y_t||_inf down to ``GRID_RATIO * lam_max``.

    lam_max is the exact threshold at which the all-zero vector solves the
    penalized problem under the mean-squared-error normalization. Raises
    ``SolverError`` when it is zero, where no descending grid exists.
    """
    lam_max = null_threshold(design)
    if lam_max <= 0.0:
        raise SolverError("degenerate design: all covariate-response correlations are zero")
    return log_grid(lam_max, GRID_POINTS, GRID_RATIO)


def bic_score(fit: FitResult, n_q: int) -> float:
    """The fit's mean squared loss plus log(n_q)/n_q per selected coordinate."""
    return fit.loss + math.log(n_q) / n_q * len(fit.support)


def fit_ulasso(ds: Dataset, q: float) -> tuple[FitResult, TuningTrace, ExtremeSubset]:
    """Extract the extreme subset, fit the penalty path, and pick the BIC minimizer.

    ``select_bic`` picks among the converged fits, ties going to the sparser
    one; the trace keeps every raw score. Returns the chosen fit, the trace
    and the subset; raises ``SolverError`` when the tail design is degenerate
    or no path fit converged.
    """
    subset = extract_extreme_subset(ds, q)
    design = center(subset)
    lams = lambda_grid(design)
    fits = lasso_path(design, lams)
    scores = np.array([bic_score(fit, subset.n_q) for fit in fits])
    trace = TuningTrace(lambdas=lams, bic_values=scores, fits=fits)
    return fits[trace.selected_index], trace, subset
