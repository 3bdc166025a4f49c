"""The paper's finite-sample bound formulas, kept as reference implementations.

No subcommand reads these; ``test_oracle.py`` checks them against algebraic
identities and against fitted tails: the proportionality decomposition of a
direction on the two indexes, the deterministic deviation bound, the
penalty-rate sequence and its subgaussian parameters, the rate-optimal tail
order, the scale-multiplier sandwich and the plug-in curvature constant.
"""

import math
from dataclasses import dataclass

import numpy as np


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
