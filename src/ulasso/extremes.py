"""Tail thresholding of the surrogate and extraction of the extreme subset."""

from __future__ import annotations

import math

import numpy as np

from .model import Dataset, DegenerateTailsError, ExtremeSubset

__all__ = ["tail_thresholds", "extract_extreme_subset", "estimate_pi_q"]


def tail_thresholds(s: np.ndarray, q: float) -> tuple[float, float, int]:
    """Empirical tail thresholds of the surrogate for tail fraction q.

    Returns (delta_lo, delta_hi, k) with k = ceil(N*q/2): delta_lo is the k-th
    smallest and delta_hi the k-th largest value of s. Order statistics are
    used rather than interpolated quantiles so each tail holds exactly k rows.
    """
    s = np.asarray(s, dtype=float)
    if not (0.0 < q <= 1.0):
        raise ValueError("q must lie in (0, 1]")
    n = s.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    k = math.ceil(n * q / 2.0)
    if 2 * k > n:
        raise ValueError(f"tail size 2*ceil(N*q/2) = {2 * k} exceeds N = {n}")
    part = np.partition(s, (k - 1, n - k))
    delta_lo = float(part[k - 1])
    delta_hi = float(part[n - k])
    if delta_lo >= delta_hi:
        raise DegenerateTailsError(
            f"tail thresholds collapsed at q={q}: delta_lo={delta_lo} >= delta_hi={delta_hi}"
        )
    return delta_lo, delta_hi, k


def _first_k(s: np.ndarray, idx: np.ndarray, delta: float, k: int) -> np.ndarray:
    """Tail rows ``idx`` (ascending), dropping the highest-index ties at ``delta`` beyond k."""
    if idx.size > k:
        tied = s[idx] == delta
        allowed = k - (idx.size - int(np.count_nonzero(tied)))
        idx = idx[~tied | (np.cumsum(tied) <= allowed)]
    return idx


def extract_extreme_subset(ds: Dataset, q: float) -> ExtremeSubset:
    """Select the k most extreme rows per tail; the subset labels them by tail membership.

    The subset lists the lower tail first, then the upper tail, each in
    ascending row order. The rows are read off the thresholds with masks, no
    sort; rows tied with a threshold beyond the k-th are excluded, smaller
    row indices winning.
    """
    delta_lo, delta_hi, k = tail_thresholds(ds.s, q)
    lo_idx = _first_k(ds.s, np.flatnonzero(ds.s <= delta_lo), delta_lo, k)
    hi_idx = _first_k(ds.s, np.flatnonzero(ds.s >= delta_hi), delta_hi, k)
    idx = np.concatenate([lo_idx, hi_idx])
    return ExtremeSubset(
        q=q,
        delta_lo=delta_lo,
        delta_hi=delta_hi,
        x_sub=ds.x[idx],
        s_sub=ds.s[idx],
        source_indices=idx,
        y_true=None if ds.y is None else ds.y[idx],
    )


def estimate_pi_q(subset: ExtremeSubset) -> float:
    """Fraction of tail rows whose synthetic label disagrees with the true one."""
    if subset.y_true is None:
        raise ValueError("estimate_pi_q requires y_true on the subset")
    return float(np.mean(subset.y_true != subset.y_star))
