"""Population generator: construction formulas, determinism, and moment checks."""

import math

import numpy as np
import pytest

from ulasso.model import DesignSpec
from ulasso.sampler import (
    SimulationConfig,
    XiLaw,
    ar1_covariance,
    build_alpha0,
    build_beta0,
    gen_population,
    rng_stream,
)


class TestAr1Covariance:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(ar1_covariance(3, 0.0), np.eye(3))

    def test_two_by_two(self):
        assert np.allclose(ar1_covariance(2, 0.2), [[1.0, 0.2], [0.2, 1.0]])

    def test_positive_definite_against_eigensolver(self):
        sigma = ar1_covariance(4, 0.5)
        eigvals = np.linalg.eigvalsh(sigma)
        assert eigvals.min() > 0.0
        assert np.linalg.det(sigma) > 0.0
        # determinant equals product of eigenvalues, eigen-decomposition oracle
        assert np.isclose(np.linalg.det(sigma), np.prod(eigvals))

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            ar1_covariance(3, 1.0)
        with pytest.raises(ValueError):
            ar1_covariance(3, -0.1)


class TestBuildBeta0:
    def test_p20(self):
        beta0 = build_beta0(20)
        assert np.array_equal(beta0[:4], np.ones(4))
        assert np.array_equal(beta0[4:8], np.full(4, 0.5))
        assert np.array_equal(beta0[8:], np.zeros(12))
        assert np.count_nonzero(beta0) == 8

    def test_p4(self):
        assert np.array_equal(build_beta0(4), [1.0, 1.0, 0.5, 0.5])

    def test_p50_nonzeros(self):
        assert np.count_nonzero(build_beta0(50)) == 14


class TestBuildAlpha0:
    def test_exact_log_scaling(self):
        n_pop = round(math.e**10)
        beta0 = np.array([1.0, 0.0])
        for law, draw in ((XiLaw.NORMAL_3_1, lambda g: g.normal(3.0, 1.0, size=2)),
                          (XiLaw.UNIFORM_2_5, lambda g: g.uniform(2.0, 5.0, size=2))):
            xi = draw(rng_stream(5, "xi", law.value))
            alpha0 = build_alpha0(beta0, law, n_pop, 5)
            assert np.array_equal(alpha0, beta0 + xi / math.log(n_pop))
            # log(n_pop) ~ 10 after rounding
            assert np.allclose(alpha0, beta0 + xi / 10.0, atol=1e-4)

    def test_uniform_support_interval(self):
        beta0 = build_beta0(20)
        alpha0 = build_alpha0(beta0, XiLaw.UNIFORM_2_5, 100_000, 123)
        gaps = alpha0 - beta0
        lo, hi = 2.0 / math.log(100_000), 5.0 / math.log(100_000)
        assert np.all(gaps >= lo) and np.all(gaps <= hi)
        assert lo == pytest.approx(0.1737, abs=1e-4)
        assert hi == pytest.approx(0.4343, abs=1e-4)

    def test_deterministic_in_seed(self):
        beta0 = build_beta0(10)
        a1 = build_alpha0(beta0, XiLaw.NORMAL_3_1, 1000, 7)
        a2 = build_alpha0(beta0, XiLaw.NORMAL_3_1, 1000, 7)
        a3 = build_alpha0(beta0, XiLaw.NORMAL_3_1, 1000, 8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)


def test_simulation_config_rejects_small_p():
    with pytest.raises(ValueError):
        SimulationConfig(p=1, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=100, seed=0)


class TestGenPopulation:
    def test_deterministic(self, spec_i_p20):
        a = gen_population(spec_i_p20, 500, 3)
        b = gen_population(spec_i_p20, 500, 3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.y, b.y)

    def test_arrays_read_only(self, spec_i_p20):
        ds = gen_population(spec_i_p20, 50, 3)
        for a in (ds.x, ds.s, ds.y):
            assert not a.flags.writeable and a.flags.c_contiguous

    def test_noiseless_surrogate_is_the_index(self):
        p = 4
        beta0 = build_beta0(p)
        spec = DesignSpec(p=p, sigma_mat=np.eye(p), beta0=beta0, alpha0=beta0,
                          surrogate_noise_sd=0.0)
        ds = gen_population(spec, 100_000, 5)
        index = ds.x @ beta0
        assert np.allclose(ds.s, index)
        assert np.corrcoef(ds.s, index)[0, 1] >= 0.999

    def test_surrogate_variance_matches_theory(self, spec_i_p20, pop_100k):
        sigma_s2 = spec_i_p20.alpha0 @ spec_i_p20.alpha0 + 1.0
        sample = pop_100k.s.var()
        # MC standard error of the variance of a normal: sigma^2 * sqrt(2/N)
        se = sigma_s2 * math.sqrt(2.0 / pop_100k.n_rows)
        assert abs(sample - sigma_s2) <= 3.0 * se

    def test_outcome_rate_matches_logistic_oracle(self, spec_i_p20, pop_100k):
        eta0 = math.sqrt(spec_i_p20.beta0 @ spec_i_p20.beta0)
        draws = np.random.default_rng(1234).standard_normal(1_000_000) * eta0
        oracle = 1.0 / (1.0 + np.exp(-draws))
        oracle_mean = oracle.mean()
        se = math.sqrt(
            oracle.var() / draws.size + 0.25 / pop_100k.n_rows
        )
        assert abs(pop_100k.y.mean() - oracle_mean) <= 3.0 * se

    def test_marginal_moments(self, spec_i_p20, pop_100k):
        n = pop_100k.n_rows
        for j in range(spec_i_p20.p):
            sd_j = math.sqrt(spec_i_p20.sigma_mat[j, j])
            assert abs(pop_100k.x[:, j].mean()) <= 4.0 / math.sqrt(n) * sd_j
            assert abs(pop_100k.x[:, j].var() / spec_i_p20.sigma_mat[j, j] - 1.0) <= 0.05

    def test_noise_independent_of_columns(self, spec_i_p20, pop_100k):
        eps_hat = pop_100k.s - pop_100k.x @ spec_i_p20.alpha0
        n = pop_100k.n_rows
        for j in range(spec_i_p20.p):
            corr = np.corrcoef(eps_hat, pop_100k.x[:, j])[0, 1]
            assert abs(corr) <= 4.0 / math.sqrt(n)

    def test_conditional_law_tracks_logistic_cdf(self, spec_i_p20, pop_100k):
        index = pop_100k.x @ spec_i_p20.beta0
        edges = np.quantile(index, np.linspace(0.0, 1.0, 11))
        which = np.clip(np.searchsorted(edges, index, side="right") - 1, 0, 9)
        for b in range(10):
            mask = which == b
            m = int(mask.sum())
            assert m > 0
            expected = float(np.mean(1.0 / (1.0 + np.exp(-index[mask]))))
            observed = float(pop_100k.y[mask].mean())
            se = math.sqrt(max(expected * (1.0 - expected), 1e-4) / m)
            assert abs(observed - expected) <= 4.0 * se

    def test_correlated_design_covariance(self):
        sim = SimulationConfig(p=6, rho=0.2, xi_law=XiLaw.NORMAL_3_1, n_pop=200_000, seed=2)
        from ulasso.sampler import design_from_config

        spec = design_from_config(sim)
        ds = gen_population(spec, sim.n_pop, 2)
        emp = np.cov(ds.x, rowvar=False)
        assert np.abs(emp - spec.sigma_mat).max() <= 0.02


def test_rng_stream_is_order_free():
    a = rng_stream(5, "rep", 3, "population").standard_normal(4)
    _ = rng_stream(5, "rep", 1, "population").standard_normal(4)
    b = rng_stream(5, "rep", 3, "population").standard_normal(4)
    assert np.array_equal(a, b)
    c = rng_stream(5, "rep", 4, "population").standard_normal(4)
    assert not np.array_equal(a, c)
