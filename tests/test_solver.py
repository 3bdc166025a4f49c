"""Active-set pivoting solver: oracles, certificates, degenerate designs, input
checks, and population alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulasso.extremes import extract_extreme_subset
from ulasso.model import DesignSpec
from ulasso.sampler import SimulationConfig, XiLaw, design_from_config, gen_population
from ulasso.solver import (
    MAX_STEPS,
    TOL,
    CenteredDesign,
    _gram_pivot,
    _kkt_violation,
    center,
    kkt_residual,
    lasso_fit,
    lasso_path,
    logistic_lasso_fit,
    null_threshold,
)


def _random_design(rng, n, p, y_scale=1.0):
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n) * y_scale
    return CenteredDesign(x, y)


def _ista_reference(design, lam, iters=1_000_000, tol=1e-13):
    """Independent proximal-gradient solver for the same objective.

    Fixed step 1/L on the smooth part (2/n) x' x, soft-threshold of lam/2 * step
    per iteration, run to stationarity or the iteration cap.
    """
    xt, yt = design.x_tilde, design.y_tilde
    n, p = xt.shape
    gram = xt.T @ xt / n
    corr = xt.T @ yt / n
    lip = 2.0 * np.linalg.eigvalsh(gram).max()
    step = 1.0 / lip
    thr = step * lam
    beta = np.zeros(p)
    for _ in range(iters):
        grad = 2.0 * (gram @ beta - corr)
        z = beta - step * grad
        new = np.sign(z) * np.maximum(np.abs(z) - thr, 0.0)
        if np.abs(new - beta).max() < tol:
            beta = new
            break
        beta = new
    return beta


def gradient_t(design, beta):
    """Empirical score T(beta) = (1/n) x_t' (y_t - x_t beta): minus half the
    gradient of the smooth part of the penalized objective."""
    beta = np.asarray(beta, dtype=float)
    r = design.y_tilde - design.x_tilde @ beta
    return design.x_tilde.T @ r / design.n


def objective_value(design, beta, lam):
    """Penalized loss (1/n)||y_t - x_t beta||^2 + lam * ||beta||_1."""
    beta = np.asarray(beta, dtype=float)
    r = design.y_tilde - design.x_tilde @ beta
    return float(r @ r / r.shape[0] + lam * np.abs(beta).sum())


class TestCenter:
    def test_constant_column_zeroed(self):
        x = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        d = CenteredDesign(x, np.arange(6.0))
        assert np.all(d.x_tilde[:, 0] == 0.0)
        assert d.gram[0, 0] == 0.0
        assert d.corr[0] == 0.0

    def test_balanced_labels_center_to_halves(self, pop_100k):
        sub = extract_extreme_subset(pop_100k, 0.02)
        d = center(sub)
        assert set(np.unique(d.y_tilde)) == {-0.5, 0.5}

    def test_columns_mean_zero_random(self, rng):
        x = rng.standard_normal((4, 2)) * 7.0 + 3.0
        d = CenteredDesign(x, rng.standard_normal(4))
        # direct summation oracle
        for j in range(2):
            assert abs(sum(d.x_tilde[:, j])) < 1e-12
        assert abs(sum(d.y_tilde)) < 1e-12

    def test_arrays_frozen(self, rng):
        d = CenteredDesign(rng.standard_normal((5, 2)), rng.standard_normal(5))
        for a in (d.x_tilde, d.y_tilde, d.gram, d.corr):
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestGradient:
    def test_zero_at_ols(self, rng):
        d = _random_design(rng, 40, 5)
        beta_ols = np.linalg.lstsq(d.x_tilde, d.y_tilde, rcond=None)[0]
        assert np.abs(gradient_t(d, beta_ols)).max() <= 1e-8

    def test_at_origin(self, rng):
        d = _random_design(rng, 30, 4)
        expected = d.x_tilde.T @ d.y_tilde / 30
        assert np.allclose(gradient_t(d, np.zeros(4)), expected)

    def test_matches_finite_differences(self, rng):
        d = _random_design(rng, 5, 3)
        beta = rng.standard_normal(3)
        h = 1e-6
        grad_fd = np.empty(3)
        for j in range(3):
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            grad_fd[j] = (objective_value(d, up, 0.0) - objective_value(d, dn, 0.0)) / (2 * h)
        assert np.abs(gradient_t(d, beta) - (-0.5) * grad_fd).max() <= 1e-6


class TestLassoFit:
    def test_single_predictor_closed_form(self):
        # unit second moment, unit correlation, lam = 1 -> soft(1, 1/2) = 1/2
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        d = CenteredDesign(x, y)
        fit = lasso_fit(d, 1.0)
        assert fit.beta_hat[0] == pytest.approx(0.5, abs=1e-12)

    def test_lam_zero_matches_ols(self, rng):
        d = _random_design(rng, 60, 8)
        fit = lasso_fit(d, 0.0)
        beta_ols = np.linalg.lstsq(d.x_tilde, d.y_tilde, rcond=None)[0]
        assert np.abs(fit.beta_hat - beta_ols).max() <= 1e-6

    def test_lam_max_gives_exact_zero(self, rng):
        d = _random_design(rng, 50, 6)
        lam_max = 2.0 * np.abs(d.x_tilde.T @ d.y_tilde / 50).max()
        for lam in (lam_max, 1.5 * lam_max):
            fit = lasso_fit(d, lam)
            assert np.all(fit.beta_hat == 0.0)
            # subgradient check: zero is stationary
            assert kkt_residual(d, fit.beta_hat, lam) == 0.0

    def test_zero_variance_column_frozen(self, rng):
        x = rng.standard_normal((30, 3))
        x[:, 1] = 4.0
        d = CenteredDesign(x, rng.standard_normal(30))
        fit = lasso_fit(d, 0.01)
        assert fit.beta_hat[1] == 0.0

    def test_kkt_certificate_on_converged_fits(self, rng):
        tol = 1e-7
        for _ in range(20):
            n = int(rng.integers(20, 120))
            p = int(rng.integers(2, 15))
            d = _random_design(rng, n, p)
            lam = float(rng.uniform(0.0, 0.5))
            fit = lasso_fit(d, lam)
            assert fit.converged
            assert fit.kkt_residual <= 10.0 * tol
            assert np.abs(gradient_t(d, fit.beta_hat)).max() <= lam / 2.0 + 10.0 * tol

    def test_objective_monotone_across_steps(self, rng):
        def assert_non_increasing(log):
            diffs = np.diff(np.asarray(log))
            assert np.all(diffs <= 1e-12 * (1.0 + np.abs(np.asarray(log[:-1]))))

        # Pivot steps alone: the start and one entry per accepted step.
        d = _random_design(rng, 80, 10)
        log = []
        _, iterations, converged = _gram_pivot(d.gram, d.corr, 0.05, 1e-9, 500, objective_log=log)
        assert converged and len(log) == iterations + 1 > 2
        assert_non_increasing(log)

        # Two identical +-1 columns, both warm: gram[A, A] is exactly singular,
        # so the factor rejects the second column and a span step splits the pair.
        u = np.array([1.0, -1.0] * 4)
        x = np.column_stack([u, u, rng.standard_normal(8), rng.standard_normal(8)])
        d = CenteredDesign(x, rng.standard_normal(8))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(d.gram[:2, :2])
        lam = 0.2 * null_threshold(d)
        warm = np.array([0.3, 0.2, 0.0, 0.0])
        log = []
        _, iterations, converged = _gram_pivot(d.gram, d.corr, lam, 1e-9, 500, warm, log)
        assert converged and len(log) == iterations + 1 > 2
        assert_non_increasing(log)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_identical_columns_never_both_nonzero(self, seed):
        # The input of the monotone test above: the span step that splits a
        # warm duplicate pair leaves one of the two at zero, and a cold path
        # never brings the second in.
        rng = np.random.default_rng(seed)
        u = np.array([1.0, -1.0] * 4)
        x = np.column_stack([u, u, rng.standard_normal(8), rng.standard_normal(8)])
        d = CenteredDesign(x, rng.standard_normal(8))
        lam, warm = 0.2 * null_threshold(d), np.array([0.3, 0.2, 0.0, 0.0])
        beta, _, converged = _gram_pivot(d.gram, d.corr, lam, 1e-9, 500, warm)
        assert converged
        assert beta[0] == 0.0 or beta[1] == 0.0
        for fit in lasso_path(d, null_threshold(d) * np.logspace(0, -4, 30)):
            assert fit.converged
            assert fit.beta_hat[0] == 0.0 or fit.beta_hat[1] == 0.0

    def test_sign_flip_takes_the_drop_step(self):
        # gram = [[2.5, 0.5], [0.5, 1]], corr = [2, 1]. From the warm signs
        # (+, -) the solve on both coordinates gives (0.133, 1.733): the
        # second flips, so the first step stops where it crosses zero and
        # drops it, and the second step lands on the solution (0.48, 0).
        x = np.array([[2.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-2.0, -1.0]])
        d = CenteredDesign(x, np.array([2.0, 0.0, 0.0, -2.0]))
        lam, warm = 1.6, np.array([0.5, -0.5])
        log = []
        beta, iterations, converged = _gram_pivot(d.gram, d.corr, lam, 1e-10, 100, warm, log)
        assert converged and iterations == 2
        assert log[2] < log[1] < log[0]
        assert beta[1] == 0.0 and beta[0] == pytest.approx(0.48, abs=1e-12)
        fit = lasso_fit(d, lam, beta_init=warm)
        assert fit.converged and fit.n_iterations == 2 and fit.kkt_residual <= 10 * 1e-10
        assert np.abs(fit.beta_hat - _ista_reference(d, lam)).max() <= 1e-5

    def test_matches_proximal_gradient_reference(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 31))
            p = int(rng.integers(1, 4))
            d = _random_design(rng, n, p)
            lam = float(rng.uniform(0.0, 1.0))
            fit = lasso_fit(d, lam)
            ref = _ista_reference(d, lam)
            assert np.abs(fit.beta_hat - ref).max() <= 1e-5

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([1, MAX_STEPS]),
    )
    def test_reported_certificate_is_recomputable(self, seed, n, p, lam_frac, max_steps):
        import ulasso.solver as solver

        d = _random_design(np.random.default_rng(seed), n, p)
        lam = lam_frac * null_threshold(d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "MAX_STEPS", max_steps)
            fit = lasso_fit(d, lam)
        assert fit.kkt_residual == kkt_residual(d, fit.beta_hat, lam)
        assert fit.objective == objective_value(d, fit.beta_hat, lam)
        assert not fit.converged or fit.kkt_residual <= 10 * TOL

    def test_kernel_claim_needs_residual_certificate(self, rng, monkeypatch):
        # A kernel that calls a non-stationary point converged is overruled
        # by the residual-based certificate taken at return.
        import ulasso.solver as solver

        d = _random_design(rng, 40, 4)
        monkeypatch.setattr(solver, "_gram_pivot", lambda *args: (np.ones(4), 1, True))
        fit = lasso_fit(d, 0.01)
        assert fit.kkt_residual > 10 * TOL
        assert not fit.converged


class TestLassoPath:
    def test_fit_does_not_depend_on_tol(self, rng, monkeypatch):
        # TOL sets only the converged flag of a squared-loss fit; the pivot
        # steps, and so the coefficients and certificate, do not depend on it.
        import ulasso.solver as solver

        for _ in range(40):
            n = int(rng.integers(3, 40))
            p = int(rng.integers(1, 2 * n))  # p > n in about half the designs
            x = rng.standard_normal((n, p))
            if p > 2:
                x[:, -1] = x[:, 0]  # an exact duplicate column
            d = CenteredDesign(x, rng.standard_normal(n))
            lams = null_threshold(d) * np.logspace(0, -4, 20)
            paths = []
            for tol in (1e-7, 1e-13):
                monkeypatch.setattr(solver, "TOL", tol)
                paths.append(lasso_path(d, lams))
            for a, b in zip(*paths):
                assert np.array_equal(a.beta_hat, b.beta_hat)
                assert (a.n_iterations, a.kkt_residual, a.loss) == (
                    b.n_iterations, b.kkt_residual, b.loss)

    def test_first_point_of_grid_is_null(self, rng):
        d = _random_design(rng, 40, 5)
        lam_max = 2.0 * np.abs(d.x_tilde.T @ d.y_tilde / 40).max()
        fits = lasso_path(d, np.array([lam_max, lam_max / 2.0]))
        assert np.all(fits[0].beta_hat == 0.0)

    def test_warm_equals_cold(self, rng):
        d = _random_design(rng, 200, 20)
        lam_max = 2.0 * np.abs(d.x_tilde.T @ d.y_tilde / 200).max()
        lams = lam_max * np.logspace(0, -3, 30)
        tol = 1e-8
        warm = lasso_path(d, lams)
        for lam, fit in zip(lams, warm):
            cold = lasso_fit(d, float(lam))
            assert np.abs(fit.beta_hat - cold.beta_hat).max() <= 10.0 * tol

    def test_exact_finish_certifies_to_roundoff(self, rng):
        d = _random_design(rng, 200, 20)
        for fit in lasso_path(d, null_threshold(d) * np.logspace(0, -3, 30)):
            assert fit.converged
            assert fit.kkt_residual <= 1e-12

    def test_duplicate_lambda_rejected(self, rng):
        d = _random_design(rng, 20, 3)
        with pytest.raises(ValueError, match="descending"):
            lasso_path(d, np.array([0.5, 0.5, 0.1]))

    def test_l1_norm_monotone_along_path(self, rng):
        tol = 1e-8
        d = _random_design(rng, 150, 12)
        lam_max = 2.0 * np.abs(d.x_tilde.T @ d.y_tilde / 150).max()
        lams = lam_max * np.logspace(0, -4, 50)
        fits = lasso_path(d, lams)
        norms = np.array([np.abs(f.beta_hat).sum() for f in fits])
        assert np.all(np.diff(norms) >= -10.0 * tol)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=1, max_value=12),
    )
    def test_negated_response_negates_path(self, seed, n, p):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
        d = CenteredDesign(x, y)
        lams = null_threshold(d) * np.logspace(0, -4, 30)
        for fit, neg in zip(lasso_path(d, lams), lasso_path(CenteredDesign(x, -y), lams)):
            assert np.array_equal(neg.beta_hat, -fit.beta_hat)
            assert neg.converged == fit.converged

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=40),
    )
    def test_row_permutation_leaves_path_unchanged(self, seed, p, extra_rows):
        rng = np.random.default_rng(seed)
        n = p + extra_rows
        x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
        perm = rng.permutation(n)
        d = CenteredDesign(x, y)
        lams = null_threshold(d) * np.logspace(0, -4, 30)
        for fit, moved in zip(lasso_path(d, lams), lasso_path(CenteredDesign(x[perm], y[perm]), lams)):
            # Summation order changes with the rows; on near-singular designs
            # the coefficients, and their rounding, grow large.
            scale = max(1.0, np.abs(fit.beta_hat).max())
            assert np.abs(moved.beta_hat - fit.beta_hat).max() <= 1e-8 * scale

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=12),
    )
    def test_moment_kkt_matches_residual_kkt(self, seed, n, p):
        # The kernel gates on 2 (corr - gram b); the reported certificate is
        # recomputed from the residual. They agree up to roundoff.
        d = _random_design(np.random.default_rng(seed), n, p)
        for fit in lasso_path(d, null_threshold(d) * np.logspace(0, -4, 30)):
            b = fit.beta_hat
            moment = _kkt_violation(2.0 * (d.corr - d.gram @ b), b, fit.lam)
            scale = 1.0 + np.abs(d.corr).max() + np.abs(d.gram).max() * np.abs(b).sum()
            assert abs(moment - fit.kkt_residual) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=5, max_value=11),
        st.integers(min_value=2, max_value=7),
        st.sampled_from([True, False, False, False]),
    )
    def test_near_collinear_paths_converge_by_pivoting(self, seed, n, p, near_collinear):
        # Coordinate descent alone crawls on such designs, leaving fits
        # unconverged after 10000 sweeps; the pivot needs at most 2p + 2
        # steps per fit on average.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        if near_collinear:
            a, b = rng.choice(p, 2, replace=False)
            x[:, b] = x[:, a] + 1e-3 * rng.standard_normal(n)
        d = CenteredDesign(x, rng.standard_normal(n))
        lams = null_threshold(d) * np.logspace(0, -4, 30)
        fits = lasso_path(d, lams)
        assert all(fit.converged for fit in fits)
        assert sum(fit.n_iterations for fit in fits) <= lams.size * (2 * p + 2)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=3, max_value=14),
        st.integers(min_value=3, max_value=24),
        st.floats(min_value=-8.0, max_value=-3.0),
    )
    def test_duplicate_and_near_pair_paths_converge(self, seed, n, p, log_noise):
        # An exact duplicate column and a near pair, p > n included: every
        # fit converges, and the path stays within the step bound of the
        # well-posed designs above.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        a, b, c = rng.choice(p, 3, replace=False)
        x[:, b] = x[:, a]
        x[:, c] = x[:, rng.choice([a, b])] + 10.0 ** log_noise * rng.standard_normal(n)
        d = CenteredDesign(x, rng.standard_normal(n))
        lams = null_threshold(d) * np.logspace(0, -4, 30)
        fits = lasso_path(d, lams)
        assert all(fit.converged for fit in fits)
        assert sum(fit.n_iterations for fit in fits) <= lams.size * (2 * p + 2)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=20),
    )
    def test_wide_design_path_certified_or_flagged(self, seed, n, extra_cols):
        # p > n: gram[A, A] can be singular and the dense end is not unique.
        rng = np.random.default_rng(seed)
        d = _random_design(rng, n, n + extra_cols)
        for fit in lasso_path(d, null_threshold(d) * np.logspace(0, -4, 30)):
            assert fit.kkt_residual == kkt_residual(d, fit.beta_hat, fit.lam)
            assert not fit.converged or fit.kkt_residual <= 10.0 * TOL


class TestInputChecks:
    @pytest.mark.parametrize("kwargs, match", [
        ({"lam": np.nan}, "lam"),
        ({"lam": np.inf}, "lam"),
        ({"lam": -0.1}, "lam"),
        ({"lam": -np.inf}, "lam"),
        ({"beta_init": np.zeros((4, 1))}, "beta_init"),
        ({"beta_init": np.array([0.0, 0.0, 0.0, -np.inf])}, "beta_init"),
        ({"beta_init": np.zeros(3)}, "beta_init"),
        ({"beta_init": np.array([0.0, np.nan, 0.0, 0.0])}, "beta_init"),
    ])
    def test_lasso_fit_rejects(self, rng, kwargs, match):
        d = _random_design(rng, 20, 4)
        with pytest.raises(ValueError, match=match):
            lasso_fit(d, **{"lam": 0.1, **kwargs})

    @pytest.mark.parametrize("lams", [[1.0, np.nan], [np.inf, 1.0], [1.0, 0.5, -np.inf]])
    def test_lasso_path_rejects_nonfinite_penalties(self, rng, lams):
        d = _random_design(rng, 20, 4)
        with pytest.raises(ValueError, match="finite"):
            lasso_path(d, np.array(lams))

    @pytest.mark.parametrize("kwargs, match", [
        ({"lam": np.nan}, "lam"),
        ({"lam": np.inf}, "lam"),
        ({"beta_init": np.zeros(2)}, "beta_init"),
        ({"beta_init": np.array([np.inf, 0.0, 0.0])}, "beta_init"),
        ({"intercept_init": np.nan}, "intercept_init"),
        ({"intercept_init": -np.inf}, "intercept_init"),
    ])
    def test_logistic_lasso_fit_rejects(self, rng, kwargs, match):
        x = rng.standard_normal((40, 3))
        y = (rng.random(40) < 0.5).astype(float)
        y[:2] = (0.0, 1.0)
        with pytest.raises(ValueError, match=match):
            logistic_lasso_fit(x, y, **{"lam": 0.1, **kwargs})


class TestLogisticLasso:
    def test_null_model_at_large_lam(self, rng):
        x = rng.standard_normal((200, 4))
        y = (rng.random(200) < 0.3).astype(float)
        fit, b0 = logistic_lasso_fit(x, y, 50.0)
        assert np.all(fit.beta_hat == 0.0)
        p_bar = y.mean()
        assert b0 == pytest.approx(np.log(p_bar / (1 - p_bar)), abs=1e-8)

    def test_matches_newton_oracle_unpenalized(self, rng, monkeypatch):
        n, p = 500, 2
        x = rng.standard_normal((n, p))
        truth = np.array([1.0, -0.5])
        prob = 1.0 / (1.0 + np.exp(-(0.2 + x @ truth)))
        y = (rng.random(n) < prob).astype(float)
        design = np.column_stack([np.ones(n), x])
        w = np.zeros(p + 1)
        for _ in range(50):
            eta = design @ w
            mu = 1.0 / (1.0 + np.exp(-eta))
            hess = (design * (mu * (1 - mu))[:, None]).T @ design
            step = np.linalg.solve(hess, design.T @ (y - mu))
            w = w + step
            if np.abs(step).max() < 1e-12:
                break
        import ulasso.solver as solver

        monkeypatch.setattr(solver, "TOL", 1e-9)
        fit, b0 = logistic_lasso_fit(x, y, 0.0)
        assert abs(b0 - w[0]) <= 1e-4
        assert np.abs(fit.beta_hat - w[1:]).max() <= 1e-4

    def test_balanced_labels_zero_design(self):
        x = np.zeros((10, 3))
        y = np.array([0.0, 1.0] * 5)
        fit, b0 = logistic_lasso_fit(x, y, 0.1)
        assert np.all(fit.beta_hat == 0.0)
        assert b0 == pytest.approx(0.0, abs=1e-12)

    def test_single_class_rejected(self, rng):
        x = rng.standard_normal((20, 2))
        with pytest.raises(ValueError, match="both classes"):
            logistic_lasso_fit(x, np.ones(20), 0.1)

    def test_separation_flagged(self):
        x = np.linspace(-2, 2, 40)[:, None]
        y = (x[:, 0] > 0).astype(float)
        fit, _ = logistic_lasso_fit(x, y, 0.0)
        assert not fit.converged


def test_unpenalized_tail_fit_aligns_with_surrogate_index():
    sim = SimulationConfig(p=20, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=200_000, seed=77)
    spec = design_from_config(sim)
    ds = gen_population(spec, sim.n_pop, 77)
    sub = extract_extreme_subset(ds, 0.02)
    fit = lasso_fit(center(sub), 0.0)
    cos = fit.beta_hat @ spec.alpha0 / (
        np.linalg.norm(fit.beta_hat) * np.linalg.norm(spec.alpha0)
    )
    assert abs(cos) >= 0.99
