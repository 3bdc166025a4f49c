"""Penalty grid, BIC scoring, and the end-to-end tail fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_solver import objective_value
from ulasso import solver, tuning
from ulasso.extremes import extract_extreme_subset
from ulasso.model import Dataset, DesignSpec, FitResult
from ulasso.sampler import gen_population, rng_stream
from ulasso.solver import (
    CenteredDesign,
    SolverError,
    center,
    lasso_fit,
    lasso_path,
    null_threshold,
)
from ulasso.tuning import (
    TuningTrace,
    bic_score,
    fit_ulasso,
    lambda_grid,
    log_grid,
    select_bic,
)


def _design(rng, n=200, p=6):
    x = rng.standard_normal((n, p))
    y = x[:, 0] - 0.5 * x[:, 1] + rng.standard_normal(n)
    return CenteredDesign(x, y)


class TestLambdaGrid:
    def test_two_point_grid(self, rng):
        d = _design(rng)
        lam_max = 2.0 * np.abs(d.x_tilde.T @ d.y_tilde / d.n).max()
        grid = log_grid(lam_max, 2, 0.5)
        assert np.allclose(grid, [lam_max, lam_max / 2.0])
        assert lambda_grid(d)[0] == pytest.approx(lam_max)

    def test_top_of_grid_yields_null_fit(self, rng):
        d = _design(rng)
        grid = lambda_grid(d)
        fit = lasso_fit(d, float(grid[0]))
        assert np.all(fit.beta_hat == 0.0)

    def test_default_grid_shape(self, rng):
        d = _design(rng)
        grid = lambda_grid(d)
        assert grid.size == 100
        assert np.all(np.diff(grid) < 0.0)
        assert grid[-1] == pytest.approx(grid[0] * 1e-4)

    def test_degenerate_design_rejected(self):
        x = np.outer(np.ones(10), [1.0, 2.0])
        y = np.arange(10.0)
        d = CenteredDesign(x, y)
        with pytest.raises(SolverError, match="degenerate"):
            lambda_grid(d)


class TestBicScore:
    def test_null_fit_on_balanced_labels(self, pop_100k):
        sub = extract_extreme_subset(pop_100k, 0.02)
        d = center(sub)
        null = lasso_fit(d, float(lambda_grid(d)[0]))
        assert bic_score(null, sub.n_q) == pytest.approx(0.25, abs=1e-15)

    def test_sparser_wins_at_equal_loss(self):
        # two fits with identical loss on this design; the support-0 one
        # scores lower by log(n)/n per coordinate
        x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        d = CenteredDesign(x, np.zeros(4))
        b0, b1 = np.zeros(2), np.array([1.0, -1.0])
        f0 = FitResult(beta_hat=b0, lam=1.0, kkt_residual=0.0,
                       loss=objective_value(d, b0, 0.0), n_iterations=1, converged=True)
        f1 = FitResult(beta_hat=b1, lam=0.0, kkt_residual=0.0,
                       loss=objective_value(d, b1, 0.0), n_iterations=1, converged=True)
        n_q = 4
        assert bic_score(f0, n_q) + 2 * math.log(n_q) / n_q == pytest.approx(
            bic_score(f1, n_q)
        )

    def test_minimizer_matches_exhaustive_grid_scoring(self, pop_100k, monkeypatch):
        monkeypatch.setattr(tuning, "GRID_POINTS", 40)
        monkeypatch.setattr(tuning, "GRID_RATIO", 1e-3)
        sub = extract_extreme_subset(pop_100k, 0.02)
        d = center(sub)
        lams = lambda_grid(d)
        assert lams.size == 40 and lams[-1] == pytest.approx(lams[0] * 1e-3)
        fits = lasso_path(d, lams)
        scores = [bic_score(f, sub.n_q) for f in fits]
        brute_best = min(range(len(scores)), key=lambda i: (scores[i], i))
        _, trace, _ = fit_ulasso(pop_100k, 0.02)
        assert trace.selected_index == brute_best


def _fit_result(converged):
    return FitResult(beta_hat=np.zeros(2), lam=1.0,
                     kkt_residual=0.0, loss=0.0, n_iterations=1, converged=converged)


class TestSelectBic:
    def test_unconverged_minimum_skipped(self):
        fits = [_fit_result(True), _fit_result(False), _fit_result(True)]
        assert select_bic([0.3, 0.1, 0.2], fits) == 2

    def test_tie_goes_to_lower_index(self):
        fits = [_fit_result(False), _fit_result(True), _fit_result(True)]
        assert select_bic([0.1, 0.2, 0.2], fits) == 1

    def test_no_converged_fit_raises(self):
        with pytest.raises(SolverError, match="no converged fit"):
            select_bic([0.1, 0.2], [_fit_result(False), _fit_result(False)])


class TestTuningTrace:
    def test_selected_index_is_first_converged_minimum(self):
        lams = np.array([1.0, 0.5, 0.25, 0.125])
        fits = [_fit_result(True), _fit_result(False), _fit_result(True), _fit_result(True)]
        # the unconverged minimum at index 1 is skipped; the tie between
        # indexes 2 and 3 goes to the larger penalty
        trace = TuningTrace(lambdas=lams, bic_values=np.array([0.3, 0.1, 0.2, 0.2]), fits=fits)
        assert trace.selected_index == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            TuningTrace(lambdas=np.array([1.0, 0.5]), bic_values=np.array([0.2, 0.1]),
                        fits=[_fit_result(True)])


class TestFitUlasso:
    def test_deterministic(self, pop_100k):
        fit1, trace1, _ = fit_ulasso(pop_100k, 0.02)
        fit2, trace2, _ = fit_ulasso(pop_100k, 0.02)
        assert np.array_equal(fit1.beta_hat, fit2.beta_hat)
        assert np.array_equal(trace1.bic_values, trace2.bic_values)
        assert trace1.selected_index == trace2.selected_index

    def test_bic_values_recomputable(self, pop_100k):
        _, trace, sub = fit_ulasso(pop_100k, 0.04)
        d = center(sub)
        recomputed = np.array([objective_value(d, f.beta_hat, 0.0)
                               + math.log(sub.n_q) / sub.n_q * len(f.support)
                               for f in trace.fits])
        assert np.array_equal(recomputed, trace.bic_values)

    def test_trace_holds_the_default_grid(self, pop_100k):
        _, trace, sub = fit_ulasso(pop_100k, 0.02)
        expected = log_grid(null_threshold(center(sub)), 100, 1e-4)
        assert np.array_equal(trace.lambdas, expected)

    def test_selected_fit_certificate(self, pop_100k):
        fit, _, sub = fit_ulasso(pop_100k, 0.02)
        assert fit.converged
        assert fit.kkt_residual <= 10.0 * 1e-7

    def test_unconverged_path_fits_never_selected(self, pop_100k, monkeypatch):
        monkeypatch.setattr(solver, "MAX_STEPS", 1)
        fit, trace, _ = fit_ulasso(pop_100k, 0.02)
        assert not all(f.converged for f in trace.fits)
        assert fit.converged
        assert fit is trace.fits[trace.selected_index]

    def test_full_sample_fit_tracks_surrogate_index_not_outcome(self):
        # alpha0 and beta0 deliberately far apart; with q = 1 the fit must
        # align with the surrogate index direction.
        p = 6
        beta0 = np.zeros(p)
        beta0[0] = 1.0
        alpha0 = np.zeros(p)
        alpha0[1] = 1.0
        alpha0[2] = 1.0
        spec = DesignSpec(p=p, sigma_mat=np.eye(p), beta0=beta0, alpha0=alpha0,
                          surrogate_noise_sd=0.5)
        ds = gen_population(spec, 50_000, rng_stream(5150, "population"))
        fit, _, _ = fit_ulasso(ds, 1.0)
        beta = fit.beta_hat
        cos_alpha = abs(beta @ alpha0) / (np.linalg.norm(beta) * np.linalg.norm(alpha0))
        cos_beta = abs(beta @ beta0) / (np.linalg.norm(beta) * np.linalg.norm(beta0))
        assert cos_alpha >= cos_beta

    def test_grid_permutation_invariance(self, pop_100k, monkeypatch):
        # the same grid, fitted twice, gives the same selection and fit
        monkeypatch.setattr(tuning, "GRID_POINTS", 25)
        monkeypatch.setattr(tuning, "GRID_RATIO", 1e-3)
        fit_a, trace_a, _ = fit_ulasso(pop_100k, 0.02)
        fit_b, trace_b, _ = fit_ulasso(pop_100k, 0.02)
        assert trace_a.lambdas.size == 25
        assert trace_a.selected_index == trace_b.selected_index
        assert np.array_equal(fit_a.beta_hat, fit_b.beta_hat)


_INVARIANCE = settings(max_examples=25, deadline=None, derandomize=True)
_DESIGNS = {"seed": st.integers(0, 2**32 - 1), "p": st.integers(6, 15),
            "q": st.sampled_from([0.02, 0.05, 0.1])}


def _population(seed, p, n=20_000):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    alpha = np.zeros(p)
    alpha[rng.permutation(p)[:3]] = (1.0, -0.7, 0.4)
    return x, x @ alpha + rng.standard_normal(n), rng


def _path(x, s, q):
    _, trace, subset = fit_ulasso(Dataset(x=x, s=s), q)
    return trace, subset


def _assert_path_maps(base, other, beta_map):
    """Same subset and pick; each fit of ``other`` is ``beta_map`` of the base fit."""
    (trace_a, sub_a), (trace_b, sub_b) = base, other
    assert np.array_equal(sub_a.source_indices, sub_b.source_indices)
    assert trace_a.selected_index == trace_b.selected_index
    assert np.abs(trace_a.lambdas - trace_b.lambdas).max() <= 1e-10
    for fa, fb in zip(trace_a.fits, trace_b.fits, strict=True):
        assert np.abs(beta_map(fa.beta_hat) - fb.beta_hat).max() <= 1e-10


class TestPipelineInvariance:
    @_INVARIANCE
    @given(**_DESIGNS)
    def test_column_permutation_permutes_every_fit(self, seed, p, q):
        x, s, rng = _population(seed, p)
        perm = rng.permutation(p)
        _assert_path_maps(_path(x, s, q), _path(x[:, perm], s, q), lambda b: b[perm])

    @_INVARIANCE
    @given(**_DESIGNS, j=st.integers(0, 14))
    def test_negated_column_negates_its_coefficient(self, seed, p, q, j):
        x, s, _ = _population(seed, p)
        sign = np.ones(p)
        sign[j % p] = -1.0
        _assert_path_maps(_path(x, s, q), _path(x * sign, s, q), lambda b: sign * b)

    @_INVARIANCE
    @given(**_DESIGNS, j=st.integers(0, 14), shift=st.floats(-50.0, 50.0))
    def test_column_shift_changes_nothing(self, seed, p, q, j, shift):
        x, s, _ = _population(seed, p)
        shifted = x.copy()
        shifted[:, j % p] += shift
        _assert_path_maps(_path(x, s, q), _path(shifted, s, q), lambda b: b)

    @_INVARIANCE
    @given(**_DESIGNS, transform=st.sampled_from(
        [lambda s: np.exp(s / 4.0), lambda s: s**3 + s, lambda s: 2.0 * s - 7.0]))
    def test_increasing_transform_of_s_keeps_subset_and_fits(self, seed, p, q, transform):
        x, s, _ = _population(seed, p)
        moved = transform(s)
        order = np.argsort(s)
        assert np.all(np.diff(s[order]) > 0.0) and np.all(np.diff(moved[order]) > 0.0)
        (trace_a, sub_a), (trace_b, sub_b) = _path(x, s, q), _path(x, moved, q)
        assert np.array_equal(sub_a.source_indices, sub_b.source_indices)
        assert trace_a.selected_index == trace_b.selected_index
        assert np.array_equal(trace_a.bic_values, trace_b.bic_values)
        for fa, fb in zip(trace_a.fits, trace_b.fits, strict=True):
            assert np.array_equal(fa.beta_hat, fb.beta_hat)
