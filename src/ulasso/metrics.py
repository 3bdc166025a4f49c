"""Direction normalization, estimation/selection/classification metrics."""

from __future__ import annotations

import math

import numpy as np

from .model import Direction

__all__ = [
    "normalize_direction",
    "mse_direction",
    "relative_efficiency",
    "auc",
    "tpr_fpr",
    "combine_directions",
]


def normalize_direction(v: np.ndarray, sigma_mat: np.ndarray, beta_ref: np.ndarray) -> Direction:
    """Scale to unit length and fix the sign against the reference direction.

    The sign is flipped so that ``beta_ref' sigma_mat v >= 0``; an exact zero
    inner product keeps the first nonzero coordinate positive. The all-zero
    input maps to the degenerate Direction.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("v must be finite")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return Direction(v=np.zeros_like(v))
    unit = v / norm
    inner = float(np.asarray(beta_ref, dtype=float) @ np.asarray(sigma_mat, dtype=float) @ unit)
    if inner < 0.0:
        unit = -unit
    elif inner == 0.0:
        first = unit[np.nonzero(unit)[0][0]]
        if first < 0.0:
            unit = -unit
    return Direction(v=unit)


def mse_direction(est: Direction, truth: Direction) -> float:
    """Squared Euclidean distance between the two (unit or degenerate) vectors."""
    return float(np.sum((est.v - truth.v) ** 2))


def relative_efficiency(mse_num: float, mse_den: float) -> float:
    """Inverse MSE ratio: values above 1 favor the estimator in the denominator."""
    if mse_den == 0.0:
        return math.inf
    if mse_den < 0.0 or mse_num < 0.0:
        raise ValueError("mean squared errors must be nonnegative")
    return mse_num / mse_den


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based concordance P(score+ > score-) + 0.5 P(score+ = score-).

    Exact, as midranks give: the Mann-Whitney U counts, per positive, the
    negatives below it plus half those tied with it, so U is a half-integer
    and U / (n+ n-) is exact.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc requires both classes")
    neg, pos_sorted = np.sort(scores[~pos]), np.sort(scores[pos])
    lo = int(np.searchsorted(neg, pos_sorted, side="left").sum())
    hi = int(np.searchsorted(neg, pos_sorted, side="right").sum())
    return float((lo + hi) / 2.0 / (n_pos * n_neg))


def tpr_fpr(support_est: set, support_true: set, p: int) -> tuple[float, float]:
    """True/false positive rates of a selected support versus the true one.

    Supports are sets of 0-based coordinate indices in range(p); the true
    support must be neither empty nor full.
    """
    support_est = set(support_est)
    support_true = set(support_true)
    if not support_true or len(support_true) >= p:
        raise ValueError("support_true must be nonempty and strictly smaller than p")
    if not support_est <= set(range(p)) or not support_true <= set(range(p)):
        raise ValueError("supports must be subsets of range(p)")
    tpr = len(support_est & support_true) / len(support_true)
    fpr = len(support_est - support_true) / (p - len(support_true))
    return tpr, fpr


def combine_directions(dirs: list[Direction]) -> Direction:
    """Coordinate-wise mean of the non-degenerate directions, renormalized.

    Inputs must already be consistently oriented; no usable input or exact
    cancellation yields the degenerate Direction.
    """
    if not dirs:
        raise ValueError("combine_directions requires at least one direction")
    usable = [d for d in dirs if not d.degenerate]
    mean = np.mean([d.v for d in usable], axis=0) if usable else np.zeros_like(dirs[0].v)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        return Direction(v=np.zeros_like(mean))
    return Direction(v=mean / norm)
