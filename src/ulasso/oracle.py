"""Closed-form theory calculators for the Gaussian-design tail model.

Everything here is population-level: truncated-tail moments and MGFs of the
surrogate index, subgaussian envelopes, misclassification bounds, the
rank-one-corrected tail covariance and its Woodbury inverse, the
proportionality decomposition of restricted least-squares directions, and the
finite-sample penalty-rate and deviation-bound formulas.

``TheoryParams(spec)`` derives the design constants once (sigma_s,
alpha0' Sigma alpha0, gamma0, Gamma, eta0, rho0, rho_tilde); none of them
depends on the tail fraction. Every q-dependent calculator takes q and the
params, as in ``xi_quantities(params, q)`` or
``restricted_mgf(kind, t, q, params)``, and computes the tail cut
z_bar_q = Phi^{-1}(1 - q/2) itself.

All tail quantities are evaluated in log space through an erfc-based Mills
ratio, stable down to tail fractions of 1e-6 and below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .model import DesignSpec, _set_fields

__all__ = [
    "std_normal",
    "TheoryParams",
    "XiQuantities",
    "xi_quantities",
    "trunc_tail_moments",
    "restricted_mgf",
    "restricted_log_mgf",
    "subgaussian_envelope",
    "pi_q_bound",
    "zq_bounds",
    "sigma_q_inverse",
    "alpha_bar_population",
    "ProportionalityDecomposition",
    "linearity_coefficients",
    "DeviationBound",
    "deviation_bound",
    "lambda_rate",
    "gamma_q_param",
    "binary_subgaussian_param",
    "optimal_q",
    "b_q_sandwich",
    "empirical_kappa",
    "theory_report",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def std_normal(kind: str, t: float) -> float:
    """Standard normal pdf/cdf/quantile, accurate in the far tails."""
    if kind == "pdf":
        return math.exp(-0.5 * t * t - _LOG_SQRT_2PI)
    if kind == "cdf":
        return float(ndtr(t))
    if kind == "quantile":
        if not (0.0 < t < 1.0):
            raise ValueError("quantile argument must lie strictly inside (0, 1)")
        return float(ndtri(t))
    raise ValueError(f"unknown kind {kind!r}")


def _z_bar(q: float) -> float:
    """Upper tail cut of the standard normal: the (1 - q/2) quantile."""
    if not (0.0 < q <= 1.0):
        raise ValueError("q must lie in (0, 1]")
    return float(-ndtri(q / 2.0))


def _log_mills(z_bar: float, q: float) -> float:
    """log of phi(z_bar)/Phi_bar(z_bar); the denominator is exactly q/2."""
    return -0.5 * z_bar * z_bar - _LOG_SQRT_2PI - math.log(q / 2.0)


def _xi(z_bar: float, q: float) -> float:
    """Tail variance inflation z_bar * phi(z_bar) / Phi_bar(z_bar); zero at q = 1."""
    if z_bar == 0.0:
        return 0.0
    return z_bar * math.exp(_log_mills(z_bar, q))


@dataclass(frozen=True)
class TheoryParams:
    """Population constants of the Gaussian tail model for one design.

    Every field but ``spec`` is derived from it at construction; none depends
    on the tail fraction q, which the q-dependent functions take on their own.
    ``sigma_s`` is the surrogate standard deviation, ``gamma0`` the
    regression slope of the covariates on the surrogate, ``big_gamma`` their
    conditional covariance given the surrogate, ``eta0`` the outcome-index
    standard deviation, ``rho0`` the correlation between the two indexes, and
    ``rho_tilde`` its attenuation by the surrogate noise.
    """

    spec: DesignSpec
    alpha_sigma_alpha: float = field(init=False)
    sigma_s: float = field(init=False)
    gamma0: np.ndarray = field(init=False, repr=False)
    big_gamma: np.ndarray = field(init=False, repr=False)
    eta0: float = field(init=False)
    rho0: float = field(init=False)
    rho_tilde: float = field(init=False)

    def __post_init__(self):
        spec = self.spec
        asa = float(spec.alpha0 @ spec.sigma_mat @ spec.alpha0)
        sigma_s = math.sqrt(asa + spec.surrogate_noise_sd**2)
        gamma0 = spec.sigma_mat @ spec.alpha0 / sigma_s**2
        eta0 = math.sqrt(float(spec.beta0 @ spec.sigma_mat @ spec.beta0))
        bsa = float(spec.beta0 @ spec.sigma_mat @ spec.alpha0)
        rho0 = 0.0 if eta0 == 0.0 else bsa / (eta0 * math.sqrt(asa))
        _set_fields(self, alpha_sigma_alpha=asa, sigma_s=sigma_s, gamma0=gamma0,
                    big_gamma=spec.sigma_mat - sigma_s**2 * np.outer(gamma0, gamma0),
                    eta0=eta0, rho0=rho0, rho_tilde=rho0 * math.sqrt(asa) / sigma_s)


@dataclass(frozen=True)
class XiQuantities:
    """The tail inflation factor and its two derived scale multipliers.

    ``xi_q`` inflates the surrogate variance in the tails, ``xi_tilde_q``
    rescales it by the total index variance, and ``xi_star_q`` is the scalar
    by which the restricted least-squares direction shrinks the surrogate
    index coefficients.
    """

    xi_q: float
    xi_tilde_q: float
    xi_star_q: float


def xi_quantities(params: TheoryParams, q: float) -> XiQuantities:
    """Compute (xi_q, xi_tilde_q, xi_star_q) for the design and tail fraction q."""
    z_bar = _z_bar(q)
    xi = _xi(z_bar, q)
    denom = params.sigma_s**2 + xi * params.alpha_sigma_alpha
    # Stable at q -> 1: xi/z_bar -> mills ratio, which stays finite.
    xi_star = params.sigma_s * math.exp(_log_mills(z_bar, q)) / (2.0 * denom)
    return XiQuantities(xi_q=xi, xi_tilde_q=xi / denom, xi_star_q=xi_star)


def trunc_tail_moments(q: float, sigma_s: float) -> tuple[float, float, float, float]:
    """Closed-form tail moments of a centered normal surrogate.

    Returns (mean_hi, mean_lo, var_s, mean_x_scale): the conditional means of
    the surrogate in the upper and lower tails, its two-sided restricted
    variance sigma_s^2 (1 + xi_q), and the scalar multiplying gamma0 in the
    conditional covariate mean of the upper tail.
    """
    if sigma_s <= 0.0:
        raise ValueError("sigma_s must be positive")
    z_bar = _z_bar(q)
    mean_hi = sigma_s * math.exp(_log_mills(z_bar, q))
    var_s = sigma_s**2 * (1.0 + _xi(z_bar, q))
    return mean_hi, -mean_hi, var_s, mean_hi


def restricted_log_mgf(
    kind: str,
    arg,
    q: float,
    params: TheoryParams,
) -> float:
    """log E[exp(t S)] or log E[exp(t' X)] conditional on the surrogate tails."""
    z_q = -_z_bar(q)
    if kind == "S":
        quad = params.sigma_s**2 * float(arg) ** 2
        shift = params.sigma_s * float(arg)
    elif kind == "X":
        t = np.asarray(arg, dtype=float)
        quad = float(t @ params.spec.sigma_mat @ t)
        shift = params.sigma_s * float(t @ params.gamma0)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    tails = np.logaddexp(log_ndtr(z_q + shift), log_ndtr(z_q - shift))
    # Denominator 2*Phi(z_q) through the same log_ndtr, so the ratio is exact at shift = 0.
    return 0.5 * quad + float(tails) - math.log(2.0) - float(log_ndtr(z_q))


def restricted_mgf(
    kind: str,
    arg,
    q: float,
    params: TheoryParams,
) -> float:
    """Exact moment generating function on the restricted tail event."""
    return math.exp(restricted_log_mgf(kind, arg, q, params))


def subgaussian_envelope(
    kind: str,
    q: float,
    params: TheoryParams,
) -> tuple[float, float]:
    """Subgaussian envelope parameter and prefactor dominating the tail MGF.

    The MGF of the restricted surrogate (or any covariate projection) is
    bounded by prefactor * exp(t^2 * envelope / 2) with per-unit-norm t for
    the covariate case.
    """
    z_bar = _z_bar(q)
    if kind == "S":
        base = params.sigma_s**2
        inflation = 2.0 * params.sigma_s**2 * z_bar**2
    elif kind == "X":
        base = float(np.linalg.eigvalsh(params.spec.sigma_mat).max())
        inflation = 2.0 * params.sigma_s**2 * z_bar**2 * float(params.gamma0 @ params.gamma0)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if q <= 0.5:
        return base + inflation, 1.0
    return base, 4.0


def pi_q_bound(q: float, params: TheoryParams) -> tuple[float, float, float]:
    """Three nested upper bounds on the tail misclassification probability.

    The first is the exact truncated-Gaussian expectation bound, the second
    replaces the normal cdf ratio by Mills-ratio bounds, and the third drops
    the rational factor (reported with unit constant, valid up to a universal
    constant only).
    """
    z_bar = _z_bar(q)
    if z_bar <= 0.0:
        raise ValueError("pi_q_bound requires q < 1 so that z_bar_q > 0")
    if params.rho_tilde < 0.0:
        raise ValueError("pi_q_bound requires rho_tilde >= 0")
    eta, rt = params.eta0, params.rho_tilde
    log_b1 = log_ndtr(-z_bar - rt * eta) - log_ndtr(-z_bar) + 0.5 * eta**2
    log_core = 0.5 * (1.0 - rt**2) * eta**2 - z_bar * rt * eta
    log_b2 = log_core + math.log(z_bar**2 + 1.0) - math.log(z_bar * (z_bar + rt * eta))
    return math.exp(log_b1), math.exp(log_b2), math.exp(log_core)


def zq_bounds(q: float, sigma_s: float) -> tuple[float, float | None]:
    """Closed-form bounds on the squared tail threshold sigma_s^2 * z_bar_q^2.

    The upper bound 2 sigma_s^2 log(1/q) holds on all of (0, 1]; the lower
    bound 2 sigma_s^2 log(1/(5q)) only for q >= 0.0002 and is None below.
    """
    if not (0.0 < q <= 1.0):
        raise ValueError("q must lie in (0, 1]")
    upper = 2.0 * sigma_s**2 * math.log(1.0 / q)
    lower = 2.0 * sigma_s**2 * math.log(1.0 / (5.0 * q)) if q >= 0.0002 else None
    return upper, lower


def sigma_q_inverse(params: TheoryParams, q: float) -> tuple[np.ndarray, XiQuantities]:
    """Woodbury inverse of the tail covariance: Sigma^{-1} - xi_tilde_q alpha0 alpha0'."""
    xi = xi_quantities(params, q)
    alpha0 = params.spec.alpha0
    sigma_inv = np.linalg.inv(params.spec.sigma_mat)
    return sigma_inv - xi.xi_tilde_q * np.outer(alpha0, alpha0), xi


def alpha_bar_population(params: TheoryParams, q: float) -> np.ndarray:
    """Population restricted least-squares direction for the synthetic label: xi_star_q * alpha0."""
    return xi_quantities(params, q).xi_star_q * params.spec.alpha0


@dataclass(frozen=True)
class ProportionalityDecomposition:
    """Coefficients of a direction regressed on the two index directions.

    ``v' x`` projects as ``a_v * (alpha0' x) + b_v * (beta0' x)`` plus noise
    orthogonal to both indexes; ``a_bar`` is the slope of the outcome index on
    the surrogate index and ``rho`` their correlation. The intercept ``c_v``
    vanishes for centered designs.
    """

    a_v: float
    b_v: float
    c_v: float
    a_bar: float
    rho: float

    def __post_init__(self):
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError("rho must lie in [-1, 1]")


def linearity_coefficients(
    v: np.ndarray, beta0: np.ndarray, alpha0: np.ndarray, sigma_mat: np.ndarray
) -> ProportionalityDecomposition:
    """Population least-squares coefficients of v' x on (beta0' x, alpha0' x)."""
    v = np.asarray(v, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    sigma_mat = np.asarray(sigma_mat, dtype=float)
    sd_b = math.sqrt(float(beta0 @ sigma_mat @ beta0))
    sd_a = math.sqrt(float(alpha0 @ sigma_mat @ alpha0))
    if sd_b == 0.0 or sd_a == 0.0:
        raise ValueError("beta0 and alpha0 must have positive variance under sigma_mat")
    cov_ba = float(beta0 @ sigma_mat @ alpha0)
    rho = cov_ba / (sd_b * sd_a)
    if 1.0 - rho**2 <= 1e-12:
        raise ValueError("beta0 and alpha0 are collinear under sigma_mat")
    cov_vb = float(v @ sigma_mat @ beta0)
    cov_va = float(v @ sigma_mat @ alpha0)
    b_v = (cov_vb / sd_b - rho * cov_va / sd_a) / ((1.0 - rho**2) * sd_b)
    a_v = (cov_va / sd_a - rho * cov_vb / sd_b) / ((1.0 - rho**2) * sd_a)
    a_bar = cov_ba / (sd_a**2)
    return ProportionalityDecomposition(a_v=a_v, b_v=b_v, c_v=0.0, a_bar=a_bar, rho=rho)


@dataclass(frozen=True)
class DeviationBound:
    """Deterministic deviation bound and its intermediate constants."""

    bound: float
    d_bar: float
    d1: float
    d2: float
    c_min: float
    c_max: float


def deviation_bound(
    lam: float, kappa_q: float, beta0: np.ndarray, alpha0: np.ndarray
) -> DeviationBound:
    """Finite-sample bound on the distance from the fit to its proportional target.

    bound = (lam/kappa_q) * (sqrt(9 s + d1) + d2) with s the outcome-index
    sparsity, d1 = 4 d_bar ||off-support alpha0||_1, d2 = d_bar ||alpha0||_2,
    and d_bar = 4 ||off-support alpha0||_1 + 3 sqrt(s) c_max / c_min^2, where
    c_min/c_max range over |alpha0| on the off-support coordinates.
    """
    if kappa_q <= 0.0:
        raise ValueError("kappa_q must be positive")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    beta0 = np.asarray(beta0, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    off = (beta0 == 0.0) & (alpha0 != 0.0)
    if not np.any(off):
        raise ValueError(
            "the outcome index must be strictly sparser than the surrogate index "
            "(no coordinate with beta0 = 0 and alpha0 != 0)"
        )
    s_beta = int(np.count_nonzero(beta0))
    off_l1 = float(np.abs(alpha0[beta0 == 0.0]).sum())
    c_min = float(np.abs(alpha0[off]).min())
    c_max = float(np.abs(alpha0[off]).max())
    d_bar = 4.0 * off_l1 + 3.0 * math.sqrt(s_beta) * c_max / c_min**2
    d1 = 4.0 * d_bar * off_l1
    d2 = d_bar * float(np.linalg.norm(alpha0))
    bound = lam / kappa_q * (math.sqrt(9.0 * s_beta + d1) + d2)
    return DeviationBound(bound=bound, d_bar=d_bar, d1=d1, d2=d2, c_min=c_min, c_max=c_max)


def gamma_q_param(p_q: float, sigma_q: float, beta_bar_norm: float) -> float:
    """Subgaussian parameter of the centered regression residual envelope."""
    return binary_subgaussian_param(p_q) + sigma_q * beta_bar_norm


def lambda_rate(
    c: np.ndarray,
    sigma_q: float,
    gamma_q: float,
    pi_q: float,
    n_q: int,
    p: int,
) -> tuple[float, float]:
    """Non-random penalty-scale sequence and the probability it is valid.

    Returns (a_nq, prob_floor): a_nq bounds the sup-norm of the empirical
    score at the restricted target with probability at least prob_floor, for
    any admissible constants c = (c1..c6).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (6,):
        raise ValueError("c must contain six constants")
    if np.any(c <= 0.0):
        raise ValueError("all constants must be positive")
    c1, c2, c3, c4, c5, c6 = c
    if max(c1, c2) <= 1.0:
        raise ValueError("max(c1, c2) must exceed 1")
    if c4 <= 1.0 or c5 <= 1.0:
        raise ValueError("c4 and c5 must exceed 1")
    if not (0.0 <= pi_q < 0.5):
        raise ValueError("pi_q must lie in [0, 1/2)")
    if n_q < 2 or p < 2:
        raise ValueError("n_q and p must be at least 2")
    c0 = c4 + c5 * c6
    log_pn = c1 * math.log(p) + c2 * math.log(n_q)
    log_p = math.log(p)
    a_nq = sigma_q * math.sqrt(2.0 * log_pn) * (
        pi_q + math.sqrt((1.0 - 2.0 * pi_q) * c3 / n_q)
    ) + 2.0 * sigma_q * gamma_q * (
        math.sqrt(8.0 * c4 * log_p / n_q) + c0 * log_p / n_q
    )
    odds = 0.0 if pi_q == 0.0 else (pi_q / (1.0 - pi_q)) ** c3
    prob_floor = (
        1.0
        - odds
        - 2.0 / (p ** (c1 - 1.0) * n_q ** (c2 - 1.0))
        - 2.0 / p ** (c4 - 1.0)
        - 2.0 / p ** (c5 - 1.0)
        - 2.0 / p**c6
    )
    return a_nq, prob_floor


def binary_subgaussian_param(a: float) -> float:
    """Sharp subgaussian parameter of a centered Bernoulli(a) variable."""
    if not (0.0 <= a <= 1.0):
        raise ValueError("a must lie in [0, 1]")
    if a in (0.0, 1.0):
        return 0.0
    if a == 0.5:
        return 0.5
    return math.sqrt((a - 0.5) / math.log(a / (1.0 - a)))


def optimal_q(nu: float, n_pop: int) -> tuple[float, float, float]:
    """Rate-optimal tail order for a polynomial misclassification exponent nu.

    Returns (eta_opt, q_opt, rate_opt) with unit constants:
    eta_opt = 1/(2 nu + 1), q_opt = n^(-eta_opt), rate_opt = n^(-nu eta_opt).
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if n_pop < 2:
        raise ValueError("n_pop must be at least 2")
    eta_opt = 1.0 / (2.0 * nu + 1.0)
    q_opt = float(n_pop) ** (-eta_opt)
    rate_opt = float(n_pop) ** (-nu * eta_opt)
    return eta_opt, q_opt, rate_opt


def b_q_sandwich(
    q: float,
    lambda_order_theta: float,
    nu: float,
    c_star: float = 1.0,
    d_star: float = 1.0,
) -> tuple[float, float]:
    """Center and slack of the scale-multiplier sandwich at tail fraction q.

    center = c_star / sqrt(log(1/q)), slack = d_star * q^(min(nu/2, theta))
    * sqrt(log(1/q)); reporting helper for given constants.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if lambda_order_theta <= 0.0 or nu <= 0.0:
        raise ValueError("theta and nu must be positive")
    log_inv = math.log(1.0 / q)
    nu_star = min(nu / 2.0, lambda_order_theta)
    return c_star / math.sqrt(log_inv), d_star * q**nu_star * math.sqrt(log_inv)


def empirical_kappa(x_sub: np.ndarray) -> float:
    """Minimum eigenvalue of the empirical covariance of a centered sample.

    Plug-in curvature constant for deviation-bound reporting; the cone
    restricted constant it stands in for is at least as large in general.
    """
    x = np.asarray(x_sub, dtype=float)
    xt = x - x.mean(axis=0)
    cov = xt.T @ xt / x.shape[0]
    return float(np.linalg.eigvalsh(cov).min())


def theory_report(spec: DesignSpec, q: float) -> dict:
    """All closed-form quantities for one (design, q) pair, JSON-serializable."""
    params = TheoryParams(spec)
    mean_hi, mean_lo, var_s, mean_x_scale = trunc_tail_moments(q, params.sigma_s)
    sigma_q_inv, xi = sigma_q_inverse(params, q)
    env_s, pre_s = subgaussian_envelope("S", q, params)
    env_x, pre_x = subgaussian_envelope("X", q, params)
    upper, lower = zq_bounds(q, params.sigma_s)
    sigma_q = spec.sigma_mat + params.sigma_s**2 * xi.xi_q * np.outer(
        params.gamma0, params.gamma0
    )
    report = {
        "q": q,
        "sigma_s": params.sigma_s,
        "eta0": params.eta0,
        "rho0": params.rho0,
        "rho_tilde": params.rho_tilde,
        "z_bar_q": _z_bar(q),
        "tail_moments": {
            "mean_hi": mean_hi,
            "mean_lo": mean_lo,
            "var_s": var_s,
            "mean_x_scale": mean_x_scale,
        },
        "xi": {
            "xi_q": xi.xi_q,
            "xi_tilde_q": xi.xi_tilde_q,
            "xi_star_q": xi.xi_star_q,
        },
        "subgaussian_envelopes": {
            "s": {"envelope": env_s, "prefactor": pre_s},
            "x": {"envelope": env_x, "prefactor": pre_x},
        },
        "threshold_bounds": {"upper": upper, "lower": lower},
        "tail_covariance": {
            "lambda_min": float(np.linalg.eigvalsh(sigma_q).min()),
            "trace_inverse": float(np.trace(sigma_q_inv)),
        },
        "alpha_bar_scale": xi.xi_star_q,
        "index_correlation": params.rho0,
    }
    if 0.0 < q < 1.0 and params.rho_tilde >= 0.0:
        b1, b2, b3 = pi_q_bound(q, params)
        report["pi_q_bounds"] = {
            "exact_ratio": b1,
            "mills": b2,
            "up_to_constant": b3,
        }
    return report
