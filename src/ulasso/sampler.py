"""Synthetic population generation for the benchmark simulation designs.

Covariates are multivariate Gaussian with an AR(1) covariance, the surrogate
is a noisy linear index of the covariates, and the binary outcome thresholds
a second linear index with standard logistic noise.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, DesignSpec

__all__ = [
    "XiLaw",
    "SimulationConfig",
    "rng_stream",
    "ar1_covariance",
    "build_beta0",
    "build_alpha0",
    "gen_population",
    "design_from_config",
]


class XiLaw(enum.Enum):
    """Law of the fixed offsets separating the surrogate index from the outcome index."""

    NORMAL_3_1 = "normal(3,1)"
    UNIFORM_2_5 = "uniform(2,5)"


def rng_stream(seed: int, *tags) -> np.random.Generator:
    """Deterministic generator keyed by an experiment seed plus context tags.

    Streams for distinct tag tuples are independent for practical purposes, and
    the derivation does not depend on the order in which streams are created,
    so parallel replications stay reproducible under any scheduling.
    """
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for tag in tags:
        if isinstance(tag, (int, np.integer)):
            words.append(int(tag) & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(str(tag).encode("utf8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation setting: dimension, design correlation, offset law, size, seed."""

    p: int
    rho: float
    xi_law: XiLaw
    n_pop: int
    seed: int

    def __post_init__(self):
        if self.p < 2 * math.isqrt(self.p):
            raise ValueError("p must satisfy p >= 2*floor(sqrt(p))")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        if not isinstance(self.xi_law, XiLaw):
            raise ValueError("xi_law must be a XiLaw member")
        if self.n_pop < 3:
            raise ValueError("n_pop must be at least 3")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def ar1_covariance(p: int, rho: float) -> np.ndarray:
    """AR(1) covariance matrix with entries rho^|i-j|."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must lie in [0, 1)")
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def build_beta0(p: int) -> np.ndarray:
    """Blockwise-sparse outcome index: c_p ones, c_p halves, zeros; c_p = floor(sqrt(p))."""
    c_p = math.isqrt(p)
    if p < 2 * c_p:
        raise ValueError("p must satisfy p >= 2*floor(sqrt(p))")
    beta0 = np.zeros(p)
    beta0[:c_p] = 1.0
    beta0[c_p : 2 * c_p] = 0.5
    return beta0


def build_alpha0(beta0: np.ndarray, xi_law: XiLaw, n_pop: int, seed: int) -> np.ndarray:
    """Surrogate index close to the outcome index: alpha0 = beta0 + xi/log(n_pop).

    The offsets ``xi`` are drawn once from ``xi_law`` on the stream
    ``rng_stream(seed, "xi", xi_law.value)`` and are meant to be reused
    across replications of one experiment.
    """
    beta0 = np.asarray(beta0, dtype=float)
    if not np.all(np.isfinite(beta0)):
        raise ValueError("beta0 must be finite")
    if n_pop < 3:
        raise ValueError("n_pop must be at least 3 so that log(n_pop) > 1")
    p = beta0.shape[0]
    rng = rng_stream(seed, "xi", xi_law.value)
    if xi_law is XiLaw.NORMAL_3_1:
        xi = rng.normal(loc=3.0, scale=1.0, size=p)
    elif xi_law is XiLaw.UNIFORM_2_5:
        xi = rng.uniform(low=2.0, high=5.0, size=p)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown xi_law {xi_law!r}")
    return beta0 + xi / math.log(n_pop)


def gen_population(spec: DesignSpec, n_pop: int, seed) -> Dataset:
    """Draw a fully labeled population from the design.

    X rows are iid Normal(0, sigma_mat) via its Cholesky factor ``spec.chol``,
    s = x @ alpha0 + Normal(0, sd^2) noise, and y = 1(x @ beta0 + eps > 0)
    with eps standard logistic, independent of everything else. ``seed`` is
    an integer or an already-derived Generator.
    """
    if n_pop < 1:
        raise ValueError("n_pop must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else rng_stream(seed, "population")
    x = rng.standard_normal((n_pop, spec.p)) @ spec.chol.T
    eps_star = rng.standard_normal(n_pop) * spec.surrogate_noise_sd
    s = x @ spec.alpha0 + eps_star
    eps = rng.logistic(loc=0.0, scale=1.0, size=n_pop)
    y = (x @ spec.beta0 + eps > 0.0).astype(float)
    for a in (x, s, y):
        a.setflags(write=False)
    return Dataset(x=x, s=s, y=y)


def design_from_config(cfg: SimulationConfig, surrogate_noise_sd: float = 1.0) -> DesignSpec:
    """Assemble the ground-truth design implied by a simulation setting."""
    sigma = ar1_covariance(cfg.p, cfg.rho)
    beta0 = build_beta0(cfg.p)
    alpha0 = build_alpha0(beta0, cfg.xi_law, cfg.n_pop, cfg.seed)
    return DesignSpec(
        p=cfg.p,
        sigma_mat=sigma,
        beta0=beta0,
        alpha0=alpha0,
        surrogate_noise_sd=surrogate_noise_sd,
    )
