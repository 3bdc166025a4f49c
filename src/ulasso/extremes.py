"""Tail thresholding of the surrogate and extraction of the extreme subset."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .model import Dataset, DegenerateTailsError, ExtremeSubset, _require_finite

__all__ = ["tail_size", "tail_thresholds", "extract_extreme_subset", "estimate_pi_q"]

# Strided sample size for the candidate bounds; below twice this many rows,
# every row is a candidate.
_SAMPLE = 1 << 14


def _candidates(s: np.ndarray, k: int) -> np.ndarray | None:
    """Rows, ascending, that hold the k smallest and the k largest values of s.

    A strided sample's order statistics bound each tail (Floyd & Rivest 1975,
    *CACM* 18(3)), leaving a small multiple of k rows beyond each bound. At
    least k rows at or below a bound include every row up to the k-th
    smallest value, so the k-th smallest among the candidates is exact, and
    likewise for the largest. Otherwise, and for a short s or a large k,
    every row is a candidate: None.
    """
    n = s.shape[0]
    if n >= 2 * _SAMPLE and 8 * k < n:
        sample = s[:: n // _SAMPLE]
        m = sample.shape[0]
        # Twice the k-th value's expected sample rank, plus 16: in random order
        # a bound leaves fewer than k rows only beyond 8 standard deviations.
        j = 2 * math.ceil(k * m / n) + 16
        part = np.partition(sample, (j, m - 1 - j))
        lo, hi = s <= part[j], s >= part[m - 1 - j]
        if np.count_nonzero(lo) >= k and np.count_nonzero(hi) >= k:
            return np.flatnonzero(lo | hi)
    return None


def tail_size(n: int, q: float) -> int:
    """Rows per tail, ceil(N*q/2) exact for q's shortest decimal; raises when 2k > N."""
    k = math.ceil(n * Fraction(repr(float(q))) / 2)
    if 2 * k > n:
        raise ValueError(f"tail size 2*ceil(N*q/2) = {2 * k} exceeds N = {n} at q={q}")
    return k


def _tails(s: np.ndarray, q: float) -> tuple[float, float, int, np.ndarray, np.ndarray]:
    """``tail_thresholds`` plus every row at or below delta_lo and at or above delta_hi."""
    if not (0.0 < q <= 1.0):
        raise ValueError("q must lie in (0, 1]")
    n = s.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    k = tail_size(n, q)
    rows = _candidates(s, k)
    vals = s if rows is None else s[rows]
    part = np.partition(vals, (k - 1, vals.size - k))
    # + 0.0 turns a -0.0 threshold into +0.0; every other value is unchanged.
    delta_lo = float(part[k - 1]) + 0.0
    delta_hi = float(part[vals.size - k]) + 0.0
    if delta_lo >= delta_hi:
        raise DegenerateTailsError(
            f"tail thresholds collapsed at q={q}: delta_lo={delta_lo} >= delta_hi={delta_hi}"
        )
    lo, hi = np.flatnonzero(vals <= delta_lo), np.flatnonzero(vals >= delta_hi)
    if rows is not None:
        lo, hi = rows[lo], rows[hi]
    return delta_lo, delta_hi, k, lo, hi


def tail_thresholds(s: np.ndarray, q: float) -> tuple[float, float, int]:
    """Empirical tail thresholds of the surrogate for tail fraction q.

    Returns (delta_lo, delta_hi, k) with k = ``tail_size(N, q)``: delta_lo
    is the k-th smallest and delta_hi the k-th largest value of s, a zero
    threshold reported as +0.0. Order statistics are used rather than
    interpolated quantiles so each tail holds exactly k rows. They are
    selected among candidate rows bounded by a strided sample (Floyd &
    Rivest 1975, *CACM* 18(3)), so for N >= 2**15 and k < N/8 no step sorts
    or partitions all N values; the result equals a full partition's.
    Raises ``ValueError`` when s holds a NaN or an infinity.
    """
    s = np.asarray(s, dtype=float)
    _require_finite("s", s)
    return _tails(s, q)[:3]


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
    ascending row order. The tail rows are read, without a sort, off the
    candidate rows that ``tail_thresholds`` selects among (Floyd & Rivest
    1975), so no further pass over all N rows is made; rows tied with a
    threshold beyond the k-th are excluded, smaller row indices winning.
    The subset gathers its rows from ``ds`` itself.
    """
    delta_lo, delta_hi, k, lo_idx, hi_idx = _tails(ds.s, q)
    lo_idx = _first_k(ds.s, lo_idx, delta_lo, k)
    hi_idx = _first_k(ds.s, hi_idx, delta_hi, k)
    idx = np.concatenate([lo_idx, hi_idx])
    return ExtremeSubset(q=q, delta_lo=delta_lo, delta_hi=delta_hi, source_indices=idx, ds=ds)


def estimate_pi_q(subset: ExtremeSubset) -> float:
    """Fraction of tail rows whose synthetic label disagrees with the true one."""
    if subset.y_true is None:
        raise ValueError("estimate_pi_q requires y_true on the subset")
    return float(np.mean(subset.y_true != subset.y_star))
