"""Direction and classification metrics, with brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from ulasso.metrics import (
    auc,
    combine_directions,
    mse_direction,
    normalize_direction,
    relative_efficiency,
    tpr_fpr,
)
from ulasso.model import Direction


_EDGE_SCORES = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300]


def _brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestNormalizeDirection:
    def test_basic(self):
        d = normalize_direction(np.array([3.0, 4.0]), np.eye(2), np.array([1.0, 0.0]))
        assert np.allclose(d.v, [0.6, 0.8])

    def test_sign_flip(self):
        d = normalize_direction(np.array([-3.0, -4.0]), np.eye(2), np.array([1.0, 0.0]))
        assert np.allclose(d.v, [0.6, 0.8])

    def test_orthogonal_tie_keeps_first_coordinate_positive(self):
        d = normalize_direction(np.array([0.0, -1.0]), np.eye(2), np.array([1.0, 0.0]))
        assert np.allclose(d.v, [0.0, 1.0])

    def test_zero_vector_degenerate(self):
        d = normalize_direction(np.zeros(3), np.eye(3), np.ones(3))
        assert d.degenerate

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance_and_idempotence(self, entries, c):
        v = np.asarray(entries)
        if np.linalg.norm(v) < 1e-6:
            return
        ref = np.ones(v.size)
        d1 = normalize_direction(v, np.eye(v.size), ref)
        d2 = normalize_direction(c * v, np.eye(v.size), ref)
        assert np.allclose(d1.v, d2.v, atol=1e-9)
        again = normalize_direction(d1.v, np.eye(v.size), ref)
        assert np.allclose(again.v, d1.v, atol=1e-12)


class TestMseDirection:
    def test_identical(self):
        d = Direction(v=np.array([1.0, 0.0]))
        assert mse_direction(d, d) == 0.0

    def test_antipodal(self):
        d = Direction(v=np.array([1.0, 0.0]))
        m = Direction(v=np.array([-1.0, 0.0]))
        assert mse_direction(d, m) == 4.0

    def test_orthogonal(self):
        d = Direction(v=np.array([1.0, 0.0]))
        m = Direction(v=np.array([0.0, 1.0]))
        assert mse_direction(d, m) == 2.0

    def test_degenerate_contributes_one(self):
        zero = Direction(v=np.zeros(2))
        truth = Direction(v=np.array([0.6, 0.8]))
        assert mse_direction(zero, truth) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        da = Direction(v=a / np.linalg.norm(a))
        db = Direction(v=b / np.linalg.norm(b))
        assert 0.0 <= mse_direction(da, db) <= 4.0


class TestRelativeEfficiency:
    def test_equal(self):
        assert relative_efficiency(0.3, 0.3) == 1.0

    def test_doubling(self):
        assert relative_efficiency(0.4, 0.2) == pytest.approx(2.0)
        assert relative_efficiency(0.2, 0.2) * 2 == relative_efficiency(0.4, 0.2)

    def test_zero_denominator_infinite(self):
        assert math.isinf(relative_efficiency(0.1, 0.0))


class TestAuc:
    def test_worked_example(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert _brute_force_auc(scores, labels) == 0.75
        assert auc(scores, labels) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auc(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1])) == 1.0

    def test_all_tied_scores(self):
        assert auc(np.zeros(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc(np.arange(4.0), np.zeros(4))

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="scores must not be NaN"):
            auc(np.array([0.1, np.nan, 0.3, 0.4]), np.array([0, 1, 0, 1]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(allow_nan=False) | st.sampled_from(_EDGE_SCORES), min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=2000),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_midrank_reference_exactly(self, pool, tie_share, n, pos_share, seed):
        # Scores come from a small pool (heavy ties, signed zeros, infinities)
        # or are continuous; the classes can be arbitrarily unbalanced.
        rng = np.random.default_rng(seed)
        tied = rng.random(n) < tie_share
        scores = np.where(tied, rng.choice(np.array(pool), size=n), rng.standard_normal(n))
        labels = (rng.random(n) < pos_share).astype(int)
        labels[0], labels[-1] = 1, 0
        n_pos = int(labels.sum())
        n_neg = n - n_pos
        u = rankdata(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
        assert auc(scores, labels) == u / (n_pos * n_neg)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=200))
    def test_matches_pair_counting(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 10, size=n).astype(float)  # heavy ties on purpose
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            return
        assert auc(scores, labels) == _brute_force_auc(scores, labels)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_scale_and_shift_invariance(self, seed, c, d):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(30)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            return
        assert auc(c * scores + d, labels) == auc(scores, labels)


class TestTprFpr:
    def test_exact_recovery(self):
        assert tpr_fpr({0, 1, 2}, {0, 1, 2}, 10) == (1.0, 0.0)

    def test_empty_estimate(self):
        assert tpr_fpr(set(), {0, 1, 2}, 10) == (0.0, 0.0)

    def test_partial(self):
        tpr, fpr = tpr_fpr({0, 1, 5, 6}, {0, 1, 2, 3}, 10)
        assert tpr == 0.5 and fpr == pytest.approx(2.0 / 6.0)

    def test_bad_true_support(self):
        with pytest.raises(ValueError):
            tpr_fpr({0}, set(), 5)
        with pytest.raises(ValueError):
            tpr_fpr({0}, set(range(5)), 5)


class TestCombineDirections:
    def test_two_identical(self):
        d = Direction(v=np.array([0.6, 0.8]))
        combined = combine_directions([d, d])
        assert np.allclose(combined.v, d.v)

    def test_orthogonal_pair(self):
        a = Direction(v=np.array([1.0, 0.0]))
        b = Direction(v=np.array([0.0, 1.0]))
        combined = combine_directions([a, b])
        assert np.allclose(combined.v, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_exact_cancellation_degenerate(self):
        a = Direction(v=np.array([1.0, 0.0]))
        b = Direction(v=np.array([-1.0, 0.0]))
        assert combine_directions([a, b]).degenerate

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_directions([])

    def test_degenerate_inputs_skipped(self):
        a = Direction(v=np.array([0.6, 0.8]))
        b = Direction(v=np.array([1.0, 0.0]))
        zero = Direction(v=np.zeros(2))
        mixed = combine_directions([zero, a, zero, b])
        alone = combine_directions([a, b])
        assert np.array_equal(mixed.v, alone.v)
        assert combine_directions([zero, zero]).degenerate
