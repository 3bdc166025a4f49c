"""Penalty grid, BIC scoring, and the end-to-end tail fit."""

import math

import numpy as np
import pytest

from ulasso import solver, tuning
from ulasso.extremes import extract_extreme_subset
from ulasso.model import Dataset, DesignSpec, FitResult
from ulasso.sampler import gen_population, rng_stream
from ulasso.solver import SolverError, center, center_xy, lasso_fit, lasso_path
from ulasso.tuning import (
    GridParams,
    TuningTrace,
    bic_score,
    fit_ulasso,
    lambda_grid,
    select_bic,
)


def _design(rng, n=200, p=6):
    x = rng.standard_normal((n, p))
    y = x[:, 0] - 0.5 * x[:, 1] + rng.standard_normal(n)
    return center_xy(x, y)


class TestLambdaGrid:
    def test_two_point_grid(self, rng):
        d = _design(rng)
        grid = lambda_grid(d, GridParams(n_points=2, ratio=0.5))
        lam_max = 2.0 * np.abs(d.x_tilde.T @ d.y_tilde / d.n).max()
        assert np.allclose(grid, [lam_max, lam_max / 2.0])

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
        d = center_xy(x, y)
        with pytest.raises(SolverError, match="degenerate"):
            lambda_grid(d)


class TestBicScore:
    def test_null_fit_on_balanced_labels(self, pop_100k):
        sub = extract_extreme_subset(pop_100k, 0.02)
        d = center(sub)
        null = lasso_fit(d, float(lambda_grid(d)[0]))
        assert bic_score(d, null, sub.n_q) == pytest.approx(0.25, abs=1e-15)

    def test_sparser_wins_at_equal_loss(self):
        # two fits with identical loss; the support-0 one scores lower by log(n)/n
        x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        d = center_xy(x, np.zeros(4))
        f0 = FitResult(beta_hat=np.zeros(2), lam=1.0,
                       kkt_residual=0.0, objective=0.0, n_iterations=1, converged=True)
        f1 = FitResult(beta_hat=np.array([1.0, -1.0]), lam=0.0,
                       kkt_residual=0.0, objective=0.0, n_iterations=1, converged=True)
        n_q = 4
        assert bic_score(d, f0, n_q) + 2 * math.log(n_q) / n_q == pytest.approx(
            bic_score(d, f1, n_q)
        )

    def test_minimizer_matches_exhaustive_grid_scoring(self, pop_100k):
        sub = extract_extreme_subset(pop_100k, 0.02)
        d = center(sub)
        lams = lambda_grid(d, GridParams(n_points=40, ratio=1e-3))
        fits = lasso_path(d, lams)
        scores = [bic_score(d, f, sub.n_q) for f in fits]
        brute_best = min(range(len(scores)), key=lambda i: (scores[i], i))
        _, trace, _ = fit_ulasso(pop_100k, 0.02, grid_params=GridParams(n_points=40, ratio=1e-3))
        assert trace.selected_index == brute_best


def _fit_result(converged):
    return FitResult(beta_hat=np.zeros(2), lam=1.0,
                     kkt_residual=0.0, objective=0.0, n_iterations=1, converged=converged)


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
        recomputed = np.array([bic_score(d, f, sub.n_q) for f in trace.fits])
        assert np.abs(recomputed - trace.bic_values).max() <= 1e-12

    def test_selected_fit_certificate(self, pop_100k):
        fit, _, sub = fit_ulasso(pop_100k, 0.02)
        assert fit.converged
        assert fit.kkt_residual <= 10.0 * 1e-7

    def test_unconverged_path_fits_never_selected(self, pop_100k, monkeypatch):
        def one_sweep(design, lams, **kw):
            return solver.lasso_path(design, lams, max_sweeps=1)

        monkeypatch.setattr(tuning, "lasso_path", one_sweep)
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

    def test_grid_permutation_invariance(self, pop_100k):
        # fitting is defined on the sorted grid, so any stated grid order
        # reaching the tuner produces the same selection
        fit_a, trace_a, _ = fit_ulasso(pop_100k, 0.02, grid_params=GridParams(n_points=25, ratio=1e-3))
        fit_b, trace_b, _ = fit_ulasso(pop_100k, 0.02, grid_params=GridParams(n_points=25, ratio=1e-3))
        assert trace_a.selected_index == trace_b.selected_index
        assert np.array_equal(fit_a.beta_hat, fit_b.beta_hat)
