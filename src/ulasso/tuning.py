"""Penalty-grid construction, BIC scoring, and the end-to-end tail-regression fit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extremes import extract_extreme_subset
from .model import Dataset, ExtremeSubset, FitResult
from .solver import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    CenteredDesign,
    center,
    lasso_path,
    null_threshold,
    objective_value,
)

__all__ = ["GridParams", "TuningTrace", "lambda_grid", "bic_score", "fit_ulasso"]


@dataclass(frozen=True)
class GridParams:
    """Penalty grid shape: log-spaced points from the null threshold downward."""

    n_points: int = 100
    ratio: float = 1e-4

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")


@dataclass(frozen=True)
class TuningTrace:
    """Grid, per-penalty scores, and the index selected (ties go to the sparser fit)."""

    lambdas: np.ndarray
    bic_values: np.ndarray
    selected_index: int
    fits: list = field(repr=False, default_factory=list)

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        vals = np.asarray(self.bic_values, dtype=float)
        if lams.shape != vals.shape or lams.ndim != 1:
            raise ValueError("lambdas and bic_values must be vectors of equal length")
        if np.any(np.diff(lams) >= 0.0):
            raise ValueError("lambdas must be strictly descending")
        if not (0 <= self.selected_index < lams.size):
            raise ValueError("selected_index out of range")
        if vals[self.selected_index] != vals.min():
            raise ValueError("selected_index must attain the minimum score")
        if int(np.argmin(vals)) != self.selected_index:
            raise ValueError("ties must resolve to the largest penalty")


def lambda_grid(design: CenteredDesign, n_points: int = 100, ratio: float = 1e-4) -> np.ndarray:
    """Log-spaced descending grid from lam_max = 2*||(1/n) x_t' y_t||_inf down to ratio*lam_max.

    lam_max is the exact threshold at which the all-zero vector solves the
    penalized problem under the mean-squared-error normalization.
    """
    GridParams(n_points=n_points, ratio=ratio)
    lam_max = null_threshold(design)
    if lam_max <= 0.0:
        raise ValueError("degenerate design: all covariate-response correlations are zero")
    return lam_max * np.logspace(0.0, math.log10(ratio), num=n_points)


def bic_score(design: CenteredDesign, fit: FitResult, n_q: int) -> float:
    """Mean squared loss at the fit plus log(n_q)/n_q per selected coordinate."""
    loss = objective_value(design, fit.beta_hat, 0.0)
    return loss + math.log(n_q) / n_q * len(fit.support)


def fit_ulasso(
    ds: Dataset,
    q: float,
    grid_params: GridParams = GridParams(),
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> tuple[FitResult, TuningTrace, ExtremeSubset]:
    """Extract the extreme subset, fit the penalty path, and pick the BIC minimizer.

    Ties in the score resolve to the largest penalty, preferring the sparser
    solution. Returns the chosen fit together with the full trace and the
    subset it was computed on.
    """
    subset = extract_extreme_subset(ds, q)
    design = center(subset)
    lams = lambda_grid(design, n_points=grid_params.n_points, ratio=grid_params.ratio)
    fits = lasso_path(design, lams, tol=tol, max_sweeps=max_sweeps)
    scores = np.array([bic_score(design, fit, subset.n_q) for fit in fits])
    selected = int(np.argmin(scores))
    trace = TuningTrace(
        lambdas=lams,
        bic_values=scores,
        selected_index=selected,
        fits=fits,
    )
    return fits[selected], trace, subset
