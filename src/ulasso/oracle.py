"""Closed-form theory calculators for the Gaussian-design tail model.

Everything here is population-level: truncated-tail moments and MGFs of the
surrogate index, subgaussian envelopes, misclassification bounds, the tail
threshold bounds, the rank-one-corrected tail covariance and its Woodbury
inverse, and the population restricted least-squares direction.
``theory_report`` gathers them for one design and tail fraction.

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
