"""Tail thresholds, extreme-subset extraction, and misclassification estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulasso.extremes import (
    _SAMPLE,
    _candidates,
    estimate_pi_q,
    extract_extreme_subset,
    tail_thresholds,
)
from ulasso.model import Dataset, DegenerateTailsError
from ulasso.oracle import TheoryParams, pi_q_bound, std_normal


def _dataset_from_s(s):
    s = np.asarray(s, dtype=float)
    return Dataset(x=s[:, None], s=s)


def _argsort_reference(s, k):
    """Lower tail then upper tail, each in row order: the k first rows of a
    stable ascending, resp. descending, argsort."""
    lo = np.sort(np.argsort(s, kind="stable")[:k])
    hi = np.sort(np.argsort(-s, kind="stable")[:k])
    return np.concatenate([lo, hi])


def _sampled_s(kind, seed, n):
    """A surrogate long enough for the sampled candidate bounds."""
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return rng.standard_normal(n)
    if kind == "sorted":
        return np.sort(rng.standard_normal(n))
    if kind == "reverse":
        return np.sort(rng.standard_normal(n))[::-1].copy()
    if kind == "poisson":  # code counts, the paper's surrogate: heavy ties
        return rng.poisson(rng.uniform(2.0, 30.0), n).astype(float)
    # periodic, with a period that may divide the sample stride
    return np.sin(2.0 * np.pi * np.arange(n) / rng.integers(2, 64))


class TestTailThresholds:
    def test_permutation_of_1_to_100(self, rng):
        s = rng.permutation(np.arange(1.0, 101.0))
        delta_lo, delta_hi, k = tail_thresholds(s, 0.04)
        assert (delta_lo, delta_hi, k) == (2.0, 99.0, 2)

    def test_full_sample_split(self):
        s = np.arange(1.0, 101.0)
        delta_lo, delta_hi, k = tail_thresholds(s, 1.0)
        assert (delta_lo, delta_hi, k) == (50.0, 51.0, 50)

    def test_normal_quantile_oracle(self, rng):
        s = rng.standard_normal(100_000)
        _, delta_hi, _ = tail_thresholds(s, 0.02)
        assert abs(delta_hi - std_normal("quantile", 0.99)) <= 0.05

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            tail_thresholds(np.arange(10.0), 0.0)
        with pytest.raises(ValueError):
            tail_thresholds(np.arange(10.0), 1.1)

    def test_massive_ties_degenerate(self):
        with pytest.raises(DegenerateTailsError):
            tail_thresholds(np.zeros(10), 0.5)

    @pytest.mark.parametrize(
        "n, q, k",
        [(10_000, 0.07, 350), (10_000, 0.035, 175), (100, 0.04, 2), (100_000, 0.02, 1000),
         (1_000_000, 0.002, 1000), (9, 0.5, 3)],
    )
    def test_tail_size_is_exact_ceiling(self, n, q, k):
        # 10_000 * 0.07 is 700.0000000000001 in floating point; k is ceil(N*q/2)
        # for the decimal q, so it must not round up past the exact integer.
        assert tail_thresholds(np.arange(float(n)), q)[2] == k

    def test_zero_threshold_is_positive_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            zeros = rng.choice([-0.0, 0.0], 20)
            zeros[:2] = (-0.0, 0.0)
            # lower threshold: -1 (10 rows) then zeros, so the 12th smallest is a zero
            s = rng.permutation(np.concatenate([-np.ones(10), zeros, np.ones(30)]))
            delta_lo, delta_hi, k = tail_thresholds(s, 0.4)
            assert (delta_lo, delta_hi, k) == (0.0, 1.0, 12)
            assert math.copysign(1.0, delta_lo) == 1.0
            # upper threshold: the 12th largest is a zero
            delta_lo, delta_hi, _ = tail_thresholds(-s, 0.4)
            assert (delta_lo, delta_hi) == (-1.0, 0.0)
            assert math.copysign(1.0, delta_hi) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [10, 100_000])
    def test_nonfinite_surrogate_rejected(self, bad, n):
        # n = 10 takes every row as a candidate; at n = 100_000 row 3 lies
        # off the strided sample that bounds the candidates.
        s = np.arange(float(n))
        s[3] = bad
        with pytest.raises(ValueError, match="s must be finite"):
            tail_thresholds(s, 0.2)

    def test_oversized_tail_rejected(self):
        # odd N at q = 1 forces 2*ceil(N/2) > N
        with pytest.raises(ValueError, match="exceeds"):
            tail_thresholds(np.arange(9.0), 1.0)


class TestExtractExtremeSubset:
    def test_small_example(self):
        ds = _dataset_from_s(np.arange(1.0, 101.0))
        sub = extract_extreme_subset(ds, 0.04)
        assert sub.n_q == 4
        assert np.array_equal(sub.y_star, [0.0, 0.0, 1.0, 1.0])
        assert set(sub.s_sub) == {1.0, 2.0, 99.0, 100.0}

    def test_full_data(self):
        ds = _dataset_from_s(np.arange(1.0, 101.0))
        sub = extract_extreme_subset(ds, 1.0)
        assert sub.n_q == 100
        assert sub.y_star.mean() == 0.5

    def test_benchmark_tail_count(self, pop_100k):
        sub = extract_extreme_subset(pop_100k, 0.02)
        assert sub.n_q == 2000

    def test_labels_copied(self):
        s = np.arange(1.0, 11.0)
        y = (s > 5).astype(float)
        ds = Dataset(x=s[:, None], s=s, y=y)
        sub = extract_extreme_subset(ds, 0.4)
        assert sub.y_true is not None
        assert np.array_equal(sub.y_true, y[sub.source_indices])

    def test_threshold_ties_resolved_by_row_index(self):
        s = np.array([0.0, 5.0, 5.0, 5.0, 1.0, 9.0, 9.0, 9.0, 10.0, -1.0])
        ds = _dataset_from_s(s)
        sub = extract_extreme_subset(ds, 0.4)
        # lower tail: -1 (row 9) and 0 (row 0); upper: 10 (row 8) then first 9 (row 5)
        assert set(sub.source_indices[:2]) == {9, 0}
        assert set(sub.source_indices[2:]) == {5, 8}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=10, max_value=300))
    def test_partition_property(self, seed, n):
        s = np.random.default_rng(seed).standard_normal(n)
        if np.unique(s).size < n:  # pragma: no cover - near impossible for floats
            return
        ds = _dataset_from_s(s)
        sub = extract_extreme_subset(ds, 0.3)
        k = sub.n_q // 2
        assert len(set(sub.source_indices.tolist())) == sub.n_q
        assert int((sub.s_sub <= sub.delta_lo).sum()) == k
        assert int((sub.s_sub >= sub.delta_hi).sum()) == k
        inside = (ds.s > sub.delta_lo) & (ds.s < sub.delta_hi)
        assert not np.any(np.isin(np.nonzero(inside)[0], sub.source_indices))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=120),
        st.floats(min_value=0.001, max_value=1.0),
    )
    def test_heavy_ties_match_argsort_reference(self, values, q):
        s = np.array(values, dtype=float)
        try:
            sub = extract_extreme_subset(_dataset_from_s(s), q)
        except (DegenerateTailsError, ValueError):
            return
        assert np.array_equal(sub.source_indices, _argsort_reference(s, sub.n_q // 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_monotone_nesting_in_q(self, seed):
        s = np.random.default_rng(seed).standard_normal(200)
        ds = _dataset_from_s(s)
        small = set(extract_extreme_subset(ds, 0.1).source_indices.tolist())
        large = set(extract_extreme_subset(ds, 0.3).source_indices.tolist())
        assert small <= large

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["continuous", "sorted", "reverse", "poisson", "periodic"]),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2**15, max_value=2**17),
        st.sampled_from([0.0005, 0.001, 0.002, 0.004, 0.01, 0.02, 0.05]),
    )
    def test_sampled_path_matches_full_partition(self, kind, seed, n, q):
        s = _sampled_s(kind, seed, n)
        delta_lo, delta_hi, k = tail_thresholds(s, q)
        assert _candidates(s, k) is not None  # the sampled bounds were used
        part = np.partition(s, (k - 1, n - k))
        assert (delta_lo, delta_hi) == (part[k - 1], part[n - k])
        sub = extract_extreme_subset(_dataset_from_s(s), q)
        assert np.array_equal(sub.source_indices, _argsort_reference(s, k))

    @pytest.mark.parametrize("flip", [1.0, -1.0])
    def test_short_sample_bound_falls_back_to_all_rows(self, flip):
        # The strided sample holds the smallest values (largest with flip),
        # so its lower bound leaves fewer than k rows at or below it.
        n, q = 100_000, 0.02
        s = np.random.default_rng(3).standard_normal(n)
        s[:: n // _SAMPLE] = -10.0 - np.arange(s[:: n // _SAMPLE].size)
        s *= flip
        delta_lo, delta_hi, k = tail_thresholds(s, q)
        assert _candidates(s, k) is None
        part = np.partition(s, (k - 1, n - k))
        assert (delta_lo, delta_hi) == (part[k - 1], part[n - k])
        sub = extract_extreme_subset(_dataset_from_s(s), q)
        assert np.array_equal(sub.source_indices, _argsort_reference(s, k))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([40, 1000, 2**15 - 1, 2**15, 70_000]),
        st.sampled_from([0.002, 0.02, 0.3]),
        st.booleans(),
    )
    def test_rows_gathered_from_dataset(self, seed, n, q, labeled):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        y = (rng.random(n) < 0.5).astype(float) if labeled else None
        ds = Dataset(x=x, s=x @ [1.0, 0.5, 0.0] + rng.standard_normal(n), y=y)
        sub = extract_extreme_subset(ds, q)
        assert (sub.y_true is None) == (ds.y is None)
        pairs = [(sub.x_sub, ds.x), (sub.s_sub, ds.s)] + ([] if y is None else [(sub.y_true, ds.y)])
        for got, full in pairs:
            assert np.array_equal(got, full[sub.source_indices])
            assert not got.flags.writeable

    def test_label_symmetry_exact(self, pop_100k):
        for q in (0.02, 0.1, 1.0):
            sub = extract_extreme_subset(pop_100k, q)
            assert sub.y_star.mean() == 0.5


class TestEstimatePiQ:
    def _subset(self):
        ds = _dataset_from_s(np.arange(1.0, 11.0))
        return extract_extreme_subset(ds, 0.4)

    def test_agreement_is_zero(self):
        s = np.arange(1.0, 11.0)
        sub = extract_extreme_subset(Dataset(x=s[:, None], s=s, y=(s > 5).astype(float)), 0.4)
        assert np.array_equal(sub.y_true, sub.y_star)
        assert estimate_pi_q(sub) == 0.0

    def test_disagreement_is_one(self):
        s = np.arange(1.0, 11.0)
        sub = extract_extreme_subset(Dataset(x=s[:, None], s=s, y=(s <= 5).astype(float)), 0.4)
        assert np.array_equal(sub.y_true, 1.0 - sub.y_star)
        assert estimate_pi_q(sub) == 1.0

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError, match="y_true"):
            estimate_pi_q(self._subset())

    def test_benchmark_estimate_below_theory_bound(self, spec_i_p20, pop_100k):
        # In this design the bound is within 2% of the true rate, far inside
        # one MC standard error at n_q = 2000, so the empirical comparison
        # carries the sampling band.
        sub = extract_extreme_subset(pop_100k, 0.02)
        pi_hat = estimate_pi_q(sub)
        se = np.sqrt(pi_hat * (1.0 - pi_hat) / sub.n_q)
        bound1, _, _ = pi_q_bound(0.02, TheoryParams(spec_i_p20))
        assert pi_hat <= bound1 + 4.0 * se
