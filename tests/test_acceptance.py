"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Criteria 1-3 share one 50-replication benchmark experiment (setting (I),
rho=0, p=20, q in {0.02, 0.04}, N=100,000) run once per module. Run with
``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mc_oracle import (
    mc_mean,
    projection_draws,
    quadrature_pi_q,
    restricted_surrogate_draws,
)
from test_solver import _ista_reference, _random_design
from ulasso.extremes import estimate_pi_q, extract_extreme_subset
from ulasso.harness import ExperimentConfig, run_experiment
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
    trunc_tail_moments,
    xi_quantities,
    zq_bounds,
)
from ulasso.sampler import SimulationConfig, XiLaw, design_from_config, gen_population
from ulasso.solver import center, kkt_residual, lasso_fit, lasso_path, null_threshold

ACCEPT_SEED = 7121
MC_DRAWS = 10_000_000


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def benchmark_experiment():
    sim = SimulationConfig(p=20, rho=0.0, xi_law=XiLaw.NORMAL_3_1,
                           n_pop=100_000, seed=ACCEPT_SEED)
    cfg = ExperimentConfig(
        sim=sim,
        q_values=(0.02, 0.04),
        supervised_sizes=(500,),
        n_replications=50,
        validation_size=100_000,
    )
    return run_experiment(cfg, workers=2)


def _rows_by_name(result):
    return {row["estimator"]: row for row in result.rows}


def test_criterion_1_auc_reproduction(benchmark_experiment):
    rows = _rows_by_name(benchmark_experiment)
    details = []
    ok = True
    for name in ("ulasso_q0.02", "ulasso_q0.04"):
        auc_mean = rows[name]["auc"]
        details.append(f"{name} auc={auc_mean:.4f}")
        ok = ok and abs(auc_mean - 0.88) <= 0.02
    oracle_auc = rows["beta0_oracle"]["auc"]
    details.append(f"beta0_oracle auc={oracle_auc:.4f}")
    ok = ok and abs(oracle_auc - 0.88) <= 0.01
    _report("1 (benchmark AUC)", ok, "; ".join(details) + " vs target 0.88 (+-0.02 / +-0.01)")


def test_criterion_2_support_recovery(benchmark_experiment):
    rows = _rows_by_name(benchmark_experiment)
    details = []
    ok = True
    for name in ("ulasso_q0.02", "ulasso_q0.04"):
        tpr, fpr = rows[name]["tpr"], rows[name]["fpr"]
        details.append(f"{name} tpr={tpr:.3f} fpr={fpr:.3f}")
        ok = ok and tpr >= 0.98 and fpr <= 0.05
    # exact-support replication rate, same configuration
    per_rep = {}
    for rec in benchmark_experiment.replications:
        per_rep.setdefault(rec["estimator"], []).append(rec)
    for name in ("ulasso_q0.02", "ulasso_q0.04"):
        exact = sum(1 for r in per_rep[name] if r["tpr"] == 1.0 and r["fpr"] == 0.0)
        details.append(f"{name} exact support {exact}/50")
        ok = ok and exact >= 45
    _report("2 (support recovery)", ok, "; ".join(details) + " vs tpr>=0.98 fpr<=0.05, exact>=90%")


def test_criterion_3_relative_efficiency(benchmark_experiment):
    rows = _rows_by_name(benchmark_experiment)
    per_rep = {}
    for rec in benchmark_experiment.replications:
        per_rep.setdefault(rec["estimator"], {})[rec["rep"]] = rec["mse"]
    details = []
    ok = True
    for name in ("ulasso_q0.02", "ulasso_q0.04"):
        re_s = rows[name]["re_vs"]["slasso_n500"]
        re_a = rows[name]["re_vs"]["alpha0_benchmark"]
        ok = ok and re_s > 1.0 and re_a > 1.0
        wins_s = sum(
            1 for rep, mse in per_rep[name].items()
            if mse < per_rep["slasso_n500"][rep]
        )
        wins_a = sum(
            1 for rep, mse in per_rep[name].items()
            if mse < per_rep["alpha0_benchmark"][rep]
        )
        ok = ok and wins_s >= 45 and wins_a >= 45
        details.append(
            f"{name} RE(slasso500)={re_s:.2f} RE(alpha0)={re_a:.2f} "
            f"per-rep wins {wins_s}/50 and {wins_a}/50"
        )
    _report("3 (relative efficiency)", ok, "; ".join(details) + " vs RE>1 and >=45/50")


def _mc_spec_small():
    return DesignSpec(
        p=5,
        sigma_mat=np.eye(5),
        beta0=np.array([1.0, 0.5, 0.0, 0.0, 0.0]),
        alpha0=np.array([1.0, 0.5, 0.0, 0.25, 0.0]),
        surrogate_noise_sd=1.0,
    )


def test_criterion_4_theory_oracle_suite(spec_i_p20):
    rng = np.random.default_rng(ACCEPT_SEED)
    specs = {"benchmark": spec_i_p20, "small": _mc_spec_small()}
    checks = 0
    worst = 0.0

    def within(closed, est, se, label):
        nonlocal checks, worst
        checks += 1
        pulls = abs(closed - est) / se
        worst = max(worst, pulls)
        assert pulls <= 4.0, f"{label}: {closed} vs {est} +- {se} ({pulls:.1f} SE)"

    for spec_name, spec in specs.items():
        t_vecs = [spec.alpha0 / (4.0 * np.linalg.norm(spec.alpha0)),
                  np.eye(spec.p)[0] * 0.2]
        params = TheoryParams(spec)
        for q in (0.02, 0.1, 0.5):
            s_draws = restricted_surrogate_draws(rng, q, params.sigma_s, MC_DRAWS)
            upper = s_draws[s_draws > 0.0]
            mean_hi, mean_lo, var_s, x_scale = trunc_tail_moments(q, params.sigma_s)
            est, se = mc_mean(upper)
            within(mean_hi, est, se, f"(i) E(S|upper) {spec_name} q={q}")
            est, se = mc_mean(s_draws**2)
            within(var_s, est, se, f"(ii) Var_q(S) {spec_name} q={q}")
            t_scalar = 0.3 / params.sigma_s
            est, se = mc_mean(np.exp(t_scalar * s_draws))
            within(restricted_mgf("S", t_scalar, q, params), est, se,
                   f"(iii) MGF_S {spec_name} q={q}")
            xi = xi_quantities(params, q)
            for k, t_vec in enumerate(t_vecs):
                proj = projection_draws(rng, s_draws, t_vec, params)
                est, se = mc_mean(proj[s_draws > 0.0])
                within(float(t_vec @ params.gamma0) * x_scale, est, se,
                       f"(i) E(t'X|upper) {spec_name} q={q} t{k}")
                est, se = mc_mean(proj**2)
                closed = float(
                    t_vec @ spec.sigma_mat @ t_vec
                    + params.sigma_s**2 * xi.xi_q * (t_vec @ params.gamma0) ** 2
                )
                within(closed, est, se, f"(ii) t'Var_q(X)t {spec_name} q={q} t{k}")
                est, se = mc_mean(np.exp(proj))
                within(restricted_mgf("X", t_vec, q, params), est, se,
                       f"(iii) MGF_X {spec_name} q={q} t{k}")
            del s_draws, upper

    # (iv) envelopes dominate the exact MGF on the stated grid
    params = TheoryParams(spec_i_p20)
    for q in (0.02, 0.1, 0.5, 0.9):
        env_s, pre_s = subgaussian_envelope("S", q, params)
        for t in np.linspace(-3.0, 3.0, 31):
            assert restricted_log_mgf("S", float(t), q, params) <= \
                math.log(pre_s) + 0.5 * t * t * env_s + 1e-9
        env_x, pre_x = subgaussian_envelope("X", q, params)
        u = np.ones(spec_i_p20.p) / math.sqrt(spec_i_p20.p)
        for mag in np.linspace(-3.0, 3.0, 13):
            assert restricted_log_mgf("X", mag * u, q, params) <= \
                math.log(pre_x) + 0.5 * mag * mag * env_x + 1e-9

    # (v) the exact-ratio bound dominates the misclassification rate. The
    # quadrature oracle certifies strict domination of the true pi_q in both
    # designs. For the benchmark design the bound is nearly attained (ratio of
    # expit to its exponential envelope approaches 1 deep in the tails), with
    # slack under one MC standard error at 10^6 rows, so the strict empirical
    # check runs on the design where it is statistically resolvable and the
    # benchmark check allows the 4-SE sampling band.
    pi_details = []
    for spec_name, spec in specs.items():
        params = TheoryParams(spec)
        for q in (0.02, 0.04):
            bound1, _, _ = pi_q_bound(q, params)
            pi_true = quadrature_pi_q(spec, q, params)
            assert pi_true <= bound1, f"{spec_name} q={q}: quadrature pi exceeds bound1"
    big = gen_population(_mc_spec_small(), 1_000_000, ACCEPT_SEED + 5)
    for q in (0.02, 0.04):
        pi_hat = estimate_pi_q(extract_extreme_subset(big, q))
        bound1, _, _ = pi_q_bound(q, TheoryParams(_mc_spec_small()))
        assert pi_hat <= bound1
        pi_details.append(f"q={q}: pi_hat={pi_hat:.4f} <= bound={bound1:.4f}")
    del big
    bench = gen_population(spec_i_p20, 1_000_000, ACCEPT_SEED + 5)
    for q in (0.02, 0.04):
        pi_hat = estimate_pi_q(extract_extreme_subset(bench, q))
        n_tail = round(1_000_000 * q)
        se = math.sqrt(pi_hat * (1.0 - pi_hat) / n_tail)
        bound1, _, _ = pi_q_bound(q, TheoryParams(spec_i_p20))
        assert pi_hat <= bound1 + 4.0 * se
    del bench

    # (vi) threshold sandwich across the stated q range
    for spec in specs.values():
        sigma_s = TheoryParams(spec).sigma_s
        for q in np.geomspace(0.0002, 0.99, 60):
            upper_b, lower_b = zq_bounds(float(q), sigma_s)
            z_bar = -std_normal("quantile", q / 2.0)
            val = sigma_s**2 * z_bar**2
            assert lower_b is not None and lower_b <= val + 1e-9 <= upper_b + 2e-9

    _report(
        "4 (theory oracle MC)",
        True,
        f"{checks} closed forms within 4 MC SEs of {MC_DRAWS:.0e}-draw oracles "
        f"(worst {worst:.2f} SE); envelopes dominate; {'; '.join(pi_details)}; "
        "threshold sandwich holds on q in [0.0002, 0.99]",
    )


def test_criterion_5_solver_suite():
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    tol = 1e-7

    # KKT certificate on every converged fit over random instances
    for _ in range(30):
        n = int(rng.integers(20, 150))
        p = int(rng.integers(2, 20))
        d = _random_design(rng, n, p)
        lam = float(rng.uniform(0.0, 0.6))
        fit = lasso_fit(d, lam)
        assert fit.converged and fit.kkt_residual <= 10.0 * tol

    # unpenalized limit equals least squares
    d = _random_design(rng, 80, 10)
    ols = np.linalg.lstsq(d.x_tilde, d.y_tilde, rcond=None)[0]
    fit0 = lasso_fit(d, 0.0)
    assert np.abs(fit0.beta_hat - ols).max() <= 1e-6

    # null threshold gives the exact zero solution
    lam_max = null_threshold(d)
    fit_null = lasso_fit(d, lam_max)
    assert np.all(fit_null.beta_hat == 0.0)
    assert kkt_residual(d, fit_null.beta_hat, lam_max) <= 1e-12  # stationary within roundoff

    # proximal-gradient equivalence on 100 small instances
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 4))
        d_small = _random_design(rng, n, p)
        lam = float(rng.uniform(0.0, 1.0))
        fit = lasso_fit(d_small, lam)
        ref = _ista_reference(d_small, lam)
        worst = max(worst, float(np.abs(fit.beta_hat - ref).max()))
    assert worst <= 1e-5

    # penalty path keeps the l1 norm monotone
    d = _random_design(rng, 200, 15)
    lams = null_threshold(d) * np.logspace(0, -4, 60)
    fits = lasso_path(d, lams)
    norms = [float(np.abs(f.beta_hat).sum()) for f in fits]
    assert np.all(np.diff(norms) >= -10.0 * tol)

    _report(
        "5 (solver correctness)",
        True,
        f"KKT <= 10*tol on 30 converged fits; OLS match at lam=0; exact zero at "
        f"lam_max; prox-gradient equivalence worst diff {worst:.2e} <= 1e-5 on 100 "
        "instances; path l1 monotonicity",
    )


def test_criterion_6_population_identity(spec_i_p20_500k, pop_500k, rng):
    spec = spec_i_p20_500k
    details = []
    for q in (0.04, 0.1):
        sub = extract_extreme_subset(pop_500k, q)
        fit = lasso_fit(center(sub), 0.0)
        cos = abs(
            float(fit.beta_hat @ spec.alpha0)
            / (np.linalg.norm(fit.beta_hat) * np.linalg.norm(spec.alpha0))
        )
        target = alpha_bar_population(TheoryParams(spec), q)
        rel = float(np.abs(fit.beta_hat - target).max() / np.abs(target).max())
        assert cos >= 0.99
        assert rel <= 0.05
        details.append(f"q={q}: |cos|={cos:.5f} rel_inf={rel:.4f}")

    # Woodbury inverse identity on random positive-definite designs
    worst = 0.0
    for p in (4, 12, 20):
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + 0.5 * np.eye(p)
        alpha0 = rng.standard_normal(p)
        spec = DesignSpec(p=p, sigma_mat=sigma, beta0=np.zeros(p), alpha0=alpha0,
                          surrogate_noise_sd=0.7)
        inv, xi = sigma_q_inverse(TheoryParams(spec), 0.05)
        sigma_s2 = float(alpha0 @ sigma @ alpha0) + 0.49
        gamma0 = sigma @ alpha0 / sigma_s2
        var_q = sigma + sigma_s2 * xi.xi_q * np.outer(gamma0, gamma0)
        worst = max(worst, float(np.abs(inv @ var_q - np.eye(p)).max()))
    assert worst <= 1e-8
    _report(
        "6 (population identity)",
        True,
        "; ".join(details) + f"; Woodbury identity worst error {worst:.2e} <= 1e-8",
    )


def test_criterion_7_cli_determinism(tmp_path):
    base = [
        sys.executable, "-m", "ulasso.cli", "simulate",
        "--seed", "31", "--reps", "4", "--p", "9", "--n-pop", "3000",
        "--q", "0.1", "--supervised-size", "200", "--validation-size", "2000",
    ]
    outputs = {}
    for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
        out = tmp_path / tag
        proc = subprocess.run(
            base + ["--out", str(out), "--workers", str(workers)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[tag] = {
            p.name: p.read_bytes() for p in sorted(Path(out).iterdir())
        }
    assert set(outputs["a"]) == set(outputs["b"]) == set(outputs["c"])
    assert len(outputs["a"]) == 5
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], f"{name} differs across worker counts"
        assert outputs["a"][name] == outputs["c"][name], f"{name} differs across repeat runs"
    _report(
        "7 (determinism)",
        True,
        "byte-identical outputs across repeat runs and worker counts 1 vs 2 "
        f"({len(outputs['a'])} files)",
    )
