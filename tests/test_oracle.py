"""Closed-form theory calculators against Monte Carlo, algebraic, and grid oracles."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from mc_oracle import mc_mean, restricted_surrogate_draws
from theory_oracle import (
    b_q_sandwich,
    binary_subgaussian_param,
    deviation_bound,
    empirical_kappa,
    gamma_q_param,
    lambda_rate,
    linearity_coefficients,
    optimal_q,
)
from test_solver import gradient_t
from ulasso.extremes import extract_extreme_subset
from ulasso.model import DesignSpec
from ulasso.oracle import (
    TheoryParams,
    alpha_bar_population,
    pi_q_bound,
    restricted_log_mgf,
    restricted_mgf,
    sigma_q_inverse,
    std_normal,
    subgaussian_envelope,
    theory_report,
    trunc_tail_moments,
    xi_quantities,
    zq_bounds,
)
from ulasso.solver import CenteredDesign, center, lasso_fit


def _reference_spec():
    """Small fixed design used for population-level sweeps."""
    sigma = np.eye(5)
    beta0 = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    alpha0 = np.array([1.0, 0.5, 0.0, 0.25, 0.0])
    return DesignSpec(p=5, sigma_mat=sigma, beta0=beta0, alpha0=alpha0,
                      surrogate_noise_sd=1.0)


def _spec(sigma, alpha0, sigma_noise):
    """Design with the given surrogate index; the outcome index plays no part."""
    p = len(alpha0)
    return DesignSpec(p=p, sigma_mat=sigma, beta0=np.zeros(p), alpha0=alpha0,
                      surrogate_noise_sd=sigma_noise)


def _collinear_spec(eta0, rho_tilde):
    """Design with alpha0 parallel to beta0 hitting exact (eta0, rho_tilde)."""
    sigma_noise = eta0 * math.sqrt(1.0 / rho_tilde**2 - 1.0)
    vec = np.array([eta0, 0.0])
    return DesignSpec(p=2, sigma_mat=np.eye(2), beta0=vec, alpha0=vec,
                      surrogate_noise_sd=sigma_noise)


class TestStdNormal:
    def test_cdf_center(self):
        assert std_normal("cdf", 0.0) == 0.5

    def test_pdf_center(self):
        assert std_normal("pdf", 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_quantile_bisection_oracle(self):
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if ndtr(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        assert std_normal("quantile", 0.975) == pytest.approx((lo + hi) / 2.0, abs=1e-9)
        assert std_normal("quantile", 0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            std_normal("quantile", 0.0)
        with pytest.raises(ValueError):
            std_normal("quantile", 1.0)


class TestTruncTailMoments:
    def test_half_normal_at_q_one(self):
        sigma_s = 1.7
        mean_hi, mean_lo, var_s, scale = trunc_tail_moments(1.0, sigma_s)
        assert mean_hi == pytest.approx(sigma_s * math.sqrt(2.0 / math.pi), rel=1e-12)
        assert mean_lo == -mean_hi
        assert scale == mean_hi
        assert var_s == pytest.approx(sigma_s**2)

    def test_upper_mean_against_mc(self):
        rng = np.random.default_rng(515)
        q = 0.05
        draws = restricted_surrogate_draws(rng, q, 1.0, 10_000_000)
        upper = draws[draws > 0.0]
        est, se = mc_mean(upper)
        mean_hi, _, _, _ = trunc_tail_moments(q, 1.0)
        assert abs(mean_hi - est) <= 4.0 * se

    def test_variance_never_below_unrestricted(self):
        for q in np.linspace(0.01, 1.0, 25):
            _, _, var_s, _ = trunc_tail_moments(float(q), 2.0)
            assert var_s >= 4.0

    def test_stable_at_tiny_q(self):
        mean_hi, _, var_s, _ = trunc_tail_moments(1e-6, 1.0)
        assert np.isfinite(mean_hi) and np.isfinite(var_s)
        assert mean_hi > std_normal("quantile", 1.0 - 5e-7)


class TestRestrictedMgf:
    def test_unit_at_zero(self, spec_i_p20):
        params = TheoryParams(spec_i_p20)
        assert restricted_mgf("S", 0.0, 0.1, params) == 1.0
        assert restricted_mgf("X", np.zeros(spec_i_p20.p), 0.1, params) == 1.0

    def test_two_sided_symmetry(self, spec_i_p20):
        params = TheoryParams(spec_i_p20)
        for t in (0.05, 0.2, 0.4):
            assert restricted_mgf("S", t, 0.3, params) == pytest.approx(
                restricted_mgf("S", -t, 0.3, params), rel=1e-12
            )

    def test_against_mc_at_q_half(self):
        spec = _reference_spec()
        q = 0.5
        params = TheoryParams(spec)
        rng = np.random.default_rng(99)
        draws = restricted_surrogate_draws(rng, q, params.sigma_s, 10_000_000)
        t = 0.3 / params.sigma_s
        est, se = mc_mean(np.exp(t * draws))
        assert abs(restricted_mgf("S", t, q, params) - est) <= 4.0 * se


class TestSubgaussianEnvelope:
    def test_branch_boundary(self, spec_i_p20):
        # first branch still active at q = 1/2 with its tail-cut inflation
        params = TheoryParams(spec_i_p20)
        env, pre = subgaussian_envelope("S", 0.5, params)
        z_bar = -std_normal("quantile", 0.25)
        assert env == pytest.approx(params.sigma_s**2 * (1.0 + 2.0 * z_bar**2), rel=1e-12)
        assert pre == 1.0
        # second branch: the tail cut vanishes at q = 1 and the prefactor pays for it
        env_one, pre_one = subgaussian_envelope("S", 1.0, params)
        assert env_one == pytest.approx(params.sigma_s**2)
        assert pre_one == 4.0

    def test_algebraic_substitution(self):
        spec = DesignSpec(p=2, sigma_mat=np.eye(2), beta0=np.array([1.0, 0.0]),
                          alpha0=np.array([1.0, 0.0]), surrogate_noise_sd=1.0)
        q = 0.02
        params = TheoryParams(spec)
        env, pre = subgaussian_envelope("X", q, params)
        assert env == pytest.approx(1.0 + std_normal("quantile", q / 2.0) ** 2, rel=1e-12)
        assert pre == 1.0

    @pytest.mark.parametrize("q", [0.02, 0.1, 0.5, 0.9])
    def test_envelope_dominates_exact_mgf(self, q, spec_i_p20):
        params = TheoryParams(spec_i_p20)
        env_s, pre_s = subgaussian_envelope("S", q, params)
        for t in np.linspace(-3.0, 3.0, 25):
            log_mgf = restricted_log_mgf("S", float(t), q, params)
            assert log_mgf <= math.log(pre_s) + 0.5 * t**2 * env_s + 1e-9
        env_x, pre_x = subgaussian_envelope("X", q, params)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(spec_i_p20.p)
            u /= np.linalg.norm(u)
            for mag in np.linspace(-3.0, 3.0, 9):
                t_vec = mag * u
                log_mgf = restricted_log_mgf("X", t_vec, q, params)
                assert log_mgf <= math.log(pre_x) + 0.5 * mag**2 * env_x + 1e-9


class TestPiQBound:
    def test_bound_ordering_on_grid(self):
        for eta0 in (0.5, 1.0, 2.0):
            for rho_tilde in (0.2, 0.6, 0.9):
                spec = _collinear_spec(eta0, rho_tilde)
                params = TheoryParams(spec)
                assert params.eta0 == pytest.approx(eta0)
                assert params.rho_tilde == pytest.approx(rho_tilde)
                for q in (0.01, 0.05, 0.2, 0.5):
                    b1, b2, _ = pi_q_bound(q, params)
                    assert b1 <= b2 * (1.0 + 1e-12)

    def test_polynomial_decay_when_indexes_align(self):
        # eta0 tied to the tail cut (eta0 = 2 z_bar_q) with rho_tilde = 1:
        # the Mills-form bound then beats any fixed power of q up to cubic.
        qs = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4])
        bounds = []
        for q in qs:
            z_bar = -std_normal("quantile", q / 2.0)
            spec = DesignSpec(p=2, sigma_mat=np.eye(2),
                              beta0=np.array([2.0 * z_bar, 0.0]),
                              alpha0=np.array([2.0 * z_bar, 0.0]),
                              surrogate_noise_sd=0.0)
            _, b2, _ = pi_q_bound(float(q), TheoryParams(spec))
            bounds.append(b2)
        bounds = np.array(bounds)
        for nu in (1.0, 2.0, 3.0):
            ratios = bounds / qs**nu
            assert np.all(np.diff(ratios) < 0.0)

    def test_q_one_rejected(self, spec_i_p20):
        with pytest.raises(ValueError, match="q < 1"):
            pi_q_bound(1.0, TheoryParams(spec_i_p20))


class TestZqBounds:
    def test_sandwich_on_grid(self):
        sigma_s = 1.3
        for q in np.geomspace(0.0002, 0.99, 40):
            upper, lower = zq_bounds(float(q), sigma_s)
            z_bar = -std_normal("quantile", q / 2.0)
            threshold_sq = sigma_s**2 * z_bar**2
            assert lower is not None
            assert lower <= threshold_sq + 1e-9
            assert threshold_sq <= upper + 1e-9

    def test_q_one_degenerate(self):
        upper, _ = zq_bounds(1.0, 1.0)
        assert upper == 0.0
        assert -std_normal("quantile", 0.5) == 0.0

    def test_formula_value(self):
        upper, _ = zq_bounds(0.2, 1.0)
        assert upper == pytest.approx(2.0 * math.log(5.0), rel=1e-12)

    def test_lower_missing_below_cutoff(self):
        _, lower = zq_bounds(1e-5, 1.0)
        assert lower is None


class TestSigmaQInverse:
    def test_product_is_identity_random_pd(self, rng):
        for p in (3, 8, 20):
            a = rng.standard_normal((p, p))
            sigma = a @ a.T + 0.1 * np.eye(p)
            alpha0 = rng.standard_normal(p)
            q = 0.07
            inv, xi = sigma_q_inverse(TheoryParams(_spec(sigma, alpha0, 0.9)), q)
            sigma_s2 = float(alpha0 @ sigma @ alpha0) + 0.81
            gamma0 = sigma @ alpha0 / sigma_s2
            var_q = sigma + sigma_s2 * xi.xi_q * np.outer(gamma0, gamma0)
            assert np.abs(inv @ var_q - np.eye(p)).max() <= 1e-8

    def test_xi_bracketed_by_tail_cut(self):
        params = TheoryParams(_spec(np.eye(2), np.array([1.0, 0.0]), 1.0))
        for q in np.geomspace(0.0002, 1.0, 30):
            xi = xi_quantities(params, float(q))
            z_sq = std_normal("quantile", q / 2.0) ** 2
            assert z_sq - 1e-12 <= xi.xi_q <= 1.0 + z_sq + 1e-12

    def test_rank_one_structure(self):
        inv, _ = sigma_q_inverse(TheoryParams(_spec(np.eye(2), np.array([1.0, 0.0]), 1.0)), 0.04)
        delta = inv - np.eye(2)
        assert delta[0, 1] == 0.0 and delta[1, 0] == 0.0 and delta[1, 1] == 0.0
        assert delta[0, 0] < 0.0

    def test_trace_identity(self, rng):
        a = rng.standard_normal((6, 6))
        sigma = a @ a.T + np.eye(6)
        alpha0 = rng.standard_normal(6)
        inv, xi = sigma_q_inverse(TheoryParams(_spec(sigma, alpha0, 0.5)), 0.03)
        expected = np.trace(np.linalg.inv(sigma)) - xi.xi_tilde_q * (alpha0 @ alpha0)
        assert np.trace(inv) == pytest.approx(expected, rel=1e-10)

    def test_tail_covariance_min_eig_uniformly_positive(self):
        spec = _reference_spec()
        floor = np.linalg.eigvalsh(spec.sigma_mat).min()
        params = TheoryParams(spec)
        for q in np.geomspace(0.001, 0.5, 20):
            xi = xi_quantities(params, float(q))
            sigma_q = spec.sigma_mat + params.sigma_s**2 * xi.xi_q * np.outer(
                params.gamma0, params.gamma0
            )
            assert np.linalg.eigvalsh(sigma_q).min() >= floor - 1e-12


class TestAlphaBarPopulation:
    def test_direction_proportional(self):
        spec = _reference_spec()
        abar = alpha_bar_population(TheoryParams(spec), 0.05)
        cos = abar @ spec.alpha0 / (np.linalg.norm(abar) * np.linalg.norm(spec.alpha0))
        assert cos == pytest.approx(1.0, abs=1e-14)

    def test_log_scaled_magnitude_band(self):
        params = TheoryParams(_reference_spec())
        for q in np.geomspace(0.001, 0.3, 15):
            xi = xi_quantities(params, float(q))
            scaled = xi.xi_star_q * math.sqrt(math.log(1.0 / q))
            assert 0.1 <= scaled <= 10.0

    def test_matches_unpenalized_tail_fit(self, spec_i_p20_500k, pop_500k):
        q = 0.04
        sub = extract_extreme_subset(pop_500k, q)
        fit = lasso_fit(center(sub), 0.0)
        abar = alpha_bar_population(TheoryParams(spec_i_p20_500k), q)
        rel = np.abs(fit.beta_hat - abar).max() / np.abs(abar).max()
        assert rel <= 0.05


class TestLinearityCoefficients:
    def test_self_regression(self):
        spec = _reference_spec()
        dec = linearity_coefficients(spec.beta0, spec.beta0, spec.alpha0, spec.sigma_mat)
        assert dec.b_v == pytest.approx(1.0, abs=1e-12)
        assert dec.a_v == pytest.approx(0.0, abs=1e-12)

    def test_alpha_regression(self):
        spec = _reference_spec()
        dec = linearity_coefficients(spec.alpha0, spec.beta0, spec.alpha0, spec.sigma_mat)
        assert dec.b_v == pytest.approx(0.0, abs=1e-12)
        assert dec.a_v == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_design(self):
        beta0 = np.array([1.0, 0.0])
        alpha0 = np.array([0.0, 1.0])
        dec = linearity_coefficients(np.array([2.0, 3.0]), beta0, alpha0, np.eye(2))
        assert dec.b_v == pytest.approx(2.0)
        assert dec.a_v == pytest.approx(3.0)
        assert dec.rho == 0.0 and dec.c_v == 0.0

    def test_a_bar_slope(self):
        spec = _reference_spec()
        dec = linearity_coefficients(spec.beta0, spec.beta0, spec.alpha0, spec.sigma_mat)
        expected = (spec.beta0 @ spec.sigma_mat @ spec.alpha0) / (
            spec.alpha0 @ spec.sigma_mat @ spec.alpha0
        )
        assert dec.a_bar == pytest.approx(expected)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError, match="collinear"):
            linearity_coefficients(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                                   np.array([2.0, 0.0]), np.eye(2))


class TestDeviationBound:
    def test_zero_at_zero_penalty(self):
        beta0 = np.array([1.0, 0.0])
        alpha0 = np.array([1.0, 0.5])
        assert deviation_bound(0.0, 1.0, beta0, alpha0).bound == 0.0

    def test_single_offsupport_entry_collapse(self):
        beta0 = np.array([1.0, 1.0, 0.0])
        alpha0 = np.array([1.0, 1.0, 0.7])
        res = deviation_bound(0.2, 1.0, beta0, alpha0)
        m = 0.7
        s = 2
        assert res.c_min == m and res.c_max == m
        assert res.d_bar == pytest.approx(4.0 * m + 3.0 * math.sqrt(s) / m)

    def test_assumption_violated(self):
        beta0 = np.array([1.0, 0.5])
        alpha0 = np.array([0.3, 0.2])
        with pytest.raises(ValueError, match="sparser"):
            deviation_bound(0.1, 1.0, beta0, alpha0)

    def test_sparsity_predicate_holds_for_all_benchmark_designs(self):
        # every simulated configuration has a coordinate where the outcome
        # index vanishes but the surrogate index does not
        from ulasso.sampler import SimulationConfig, XiLaw, design_from_config

        for p in (20, 50):
            for rho in (0.0, 0.2):
                for law in (XiLaw.NORMAL_3_1, XiLaw.UNIFORM_2_5):
                    sim = SimulationConfig(p=p, rho=rho, xi_law=law,
                                           n_pop=100_000, seed=3)
                    spec = design_from_config(sim)
                    off = (spec.beta0 == 0.0) & (spec.alpha0 != 0.0)
                    assert np.any(off)
                    deviation_bound(0.1, 1.0, spec.beta0, spec.alpha0)

    def test_empirical_bound_holds_in_benchmark(self, spec_i_p20_500k, pop_500k):
        q = 0.02
        spec = spec_i_p20_500k
        sub = extract_extreme_subset(pop_500k, q)
        design_star = center(sub)
        # population target of the true-label regression, estimated at lam = 0
        design_true = CenteredDesign(sub.x_sub, sub.y_true)
        beta_bar = lasso_fit(design_true, 0.0).beta_hat
        b_q = linearity_coefficients(beta_bar, spec.beta0, spec.alpha0, spec.sigma_mat).b_v
        lam = 4.0 * float(np.abs(gradient_t(design_star, beta_bar)).max())
        fit = lasso_fit(design_star, lam)
        kappa = empirical_kappa(sub.x_sub)
        res = deviation_bound(lam, kappa, spec.beta0, spec.alpha0)
        assert np.isfinite(res.bound)
        off = set(np.nonzero((spec.beta0 == 0.0) & (spec.alpha0 != 0.0))[0])
        assert any(fit.beta_hat[j] == 0.0 for j in off)  # admissibility witness
        err = float(np.linalg.norm(fit.beta_hat - b_q * spec.beta0))
        assert err <= res.bound


class TestLambdaRate:
    CONSTANTS = np.array([2.0, 2.0, 1.0, 2.0, 2.0, 1.0])

    def test_zero_misclassification_reduction(self):
        c = self.CONSTANTS
        sigma_q, gamma_q, n_q, p = 1.5, 2.0, 2000, 20
        a_nq, floor = lambda_rate(c, sigma_q, gamma_q, 0.0, n_q, p)
        log_pn = c[0] * math.log(p) + c[1] * math.log(n_q)
        expected = sigma_q * math.sqrt(2 * log_pn) * math.sqrt(c[2] / n_q) + \
            2 * sigma_q * gamma_q * (
                math.sqrt(8 * c[3] * math.log(p) / n_q)
                + (c[3] + c[4] * c[5]) * math.log(p) / n_q
            )
        assert a_nq == pytest.approx(expected, rel=1e-12)
        expected_floor = 1.0 - 2.0 / (p * n_q) - 2.0 / p - 2.0 / p - 2.0 / p
        assert floor == pytest.approx(expected_floor, rel=1e-12)

    def test_monotone_in_pi(self):
        values = [
            lambda_rate(self.CONSTANTS, 1.5, 2.0, pi, 2000, 20)[0]
            for pi in np.linspace(0.0, 0.4, 15)
        ]
        assert np.all(np.diff(values) > 0.0)

    def test_quadrupling_sample_roughly_halves(self):
        n_q = 1_000_000
        small = lambda_rate(self.CONSTANTS, 1.5, 2.0, 0.0, n_q, 20)[0]
        large = lambda_rate(self.CONSTANTS, 1.5, 2.0, 0.0, 4 * n_q, 20)[0]
        assert 0.45 <= large / small <= 0.55

    def test_constant_constraints(self):
        bad = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="max"):
            lambda_rate(bad, 1.0, 1.0, 0.1, 100, 10)
        bad2 = np.array([2.0, 2.0, 1.0, 0.5, 2.0, 1.0])
        with pytest.raises(ValueError, match="c4"):
            lambda_rate(bad2, 1.0, 1.0, 0.1, 100, 10)
        with pytest.raises(ValueError, match="pi_q"):
            lambda_rate(self.CONSTANTS, 1.0, 1.0, 0.6, 100, 10)

    def test_gamma_param_helper(self):
        assert gamma_q_param(0.5, 2.0, 3.0) == pytest.approx(0.5 + 6.0)


class TestBinarySubgaussian:
    def test_endpoints(self):
        assert binary_subgaussian_param(0.0) == 0.0
        assert binary_subgaussian_param(1.0) == 0.0

    def test_half(self):
        assert binary_subgaussian_param(0.5) == 0.5

    def test_continuity_at_half(self):
        for a in (0.5 - 1e-6, 0.5 + 1e-6):
            assert abs(binary_subgaussian_param(a) - 0.5) <= 1e-6


class TestOptimalQ:
    def test_half_exponent(self):
        eta, _, rate = optimal_q(0.5, 10_000)
        assert eta == pytest.approx(0.5)
        assert rate == pytest.approx(10_000 ** (-0.25))

    def test_limit_large_nu(self):
        eta, _, rate = optimal_q(1e6, 100)
        assert eta == pytest.approx(0.0, abs=1e-6)
        assert rate == pytest.approx(100 ** (-0.5), rel=1e-4)

    def test_substitution(self):
        _, q_opt, _ = optimal_q(1.0, 10_000)
        assert q_opt == pytest.approx(10.0 ** (-4.0 / 3.0))


class TestBQSandwich:
    def test_slack_vanishes(self):
        slacks = [b_q_sandwich(q, 0.5, 1.0)[1] for q in np.geomspace(0.1, 1e-6, 12)]
        assert np.all(np.diff(slacks) < 0.0)
        assert slacks[-1] < 1e-2

    def test_center_is_log_scaled_constant(self):
        for q in (0.01, 0.05, 0.2):
            center_value, _ = b_q_sandwich(q, 0.5, 1.0, c_star=2.0)
            assert center_value * math.sqrt(math.log(1.0 / q)) == pytest.approx(2.0)

    def test_empirical_scale_multiplier_vanishes_with_q(self, spec_i_p20_500k):
        # The projection of the true-label tail regression onto the outcome
        # index shrinks as the tails narrow. The log-scaled multiplier is not
        # yet flat at these moderate q (it still varies severalfold), so the
        # checkable content here is the vanishing itself, averaged over
        # populations to tame projection noise.
        from ulasso.sampler import gen_population, rng_stream

        spec = spec_i_p20_500k
        qs = (0.01, 0.02, 0.05, 0.1)
        sums = {q: 0.0 for q in qs}
        reps = 6
        for rep in range(reps):
            ds = gen_population(spec, 500_000, rng_stream(424242, "bq", rep))
            for q in qs:
                sub = extract_extreme_subset(ds, q)
                design_true = CenteredDesign(sub.x_sub, sub.y_true)
                beta_bar = lasso_fit(design_true, 0.0).beta_hat
                b_hat = linearity_coefficients(
                    beta_bar, spec.beta0, spec.alpha0, spec.sigma_mat
                ).b_v
                sums[q] += abs(b_hat)
        means = [sums[q] / reps for q in qs]
        assert np.all(np.diff(means) > 0.0)


def test_theory_report_index_correlation_is_rho0_when_anti_collinear():
    beta0 = np.array([1.0, 0.5, 0.0])
    spec = DesignSpec(p=3, sigma_mat=np.eye(3), beta0=beta0, alpha0=-beta0,
                      surrogate_noise_sd=1.0)
    report = theory_report(spec, 0.1)
    assert report["index_correlation"] == report["rho0"]
    assert report["rho0"] == pytest.approx(-1.0, abs=1e-12)


def test_theory_report_is_json_ready(spec_i_p20):
    import json

    report = theory_report(spec_i_p20, 0.02)
    text = json.dumps(report, sort_keys=True)
    assert "xi_star_q" in text
    assert report["tail_covariance"]["lambda_min"] > 0.0
