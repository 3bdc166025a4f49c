"""Core domain types shared by every other module.

Pure data: no algorithms live here. All types are frozen dataclasses whose
constructors validate their invariants, derive their dependent fields and
freeze their array fields, so instances are immutable and safe to share
across threads or processes.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "DegenerateTailsError",
    "DesignSpec",
    "Dataset",
    "ExtremeSubset",
    "FitResult",
    "Direction",
]

_UNIT_TOL = 1e-12


class DegenerateTailsError(ValueError):
    """Tail thresholds collapsed (massive ties); the extreme subset is undefined."""


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _owned_array(a) -> np.ndarray:
    """``a`` as read-only float64: kept if already read-only and C-contiguous, else a frozen copy."""
    a = np.asarray(a, dtype=float)
    if a.flags.writeable or not a.flags.c_contiguous:
        return _frozen_array(a)
    return a


def _set_fields(obj, **values) -> None:
    """Assign fields of a frozen dataclass instance, from its ``__post_init__``."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _require_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DesignSpec:
    """Ground-truth population parameters of the two linked index models.

    ``s = alpha0' x + noise`` drives the surrogate and ``y = 1(beta0' x + eps > 0)``
    the outcome, with ``eps`` standard logistic; ``sigma_mat`` is the
    covariance of the Gaussian design, and ``chol``, derived at construction,
    its lower Cholesky factor.
    """

    p: int
    sigma_mat: np.ndarray
    beta0: np.ndarray
    alpha0: np.ndarray
    surrogate_noise_sd: float
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        sigma = _frozen_array(self.sigma_mat)
        if sigma.shape != (self.p, self.p):
            raise ValueError("sigma_mat must be p x p")
        _require_finite("sigma_mat", sigma)
        scale = max(1.0, float(np.abs(sigma).max()))
        if np.abs(sigma - sigma.T).max() > 1e-12 * scale:
            raise ValueError("sigma_mat must be symmetric within 1e-12")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma_mat must be positive definite") from exc
        chol.setflags(write=False)
        beta0 = np.asarray(self.beta0, dtype=float)
        alpha0 = np.asarray(self.alpha0, dtype=float)
        if beta0.shape != (self.p,) or alpha0.shape != (self.p,):
            raise ValueError("beta0 and alpha0 must have length p")
        _require_finite("beta0", beta0)
        _require_finite("alpha0", alpha0)
        if not np.any(alpha0 != 0.0):
            raise ValueError("alpha0 must not be the zero vector")
        if not (np.isfinite(self.surrogate_noise_sd) and self.surrogate_noise_sd >= 0.0):
            raise ValueError("surrogate_noise_sd must be a nonnegative real")
        _set_fields(self, sigma_mat=sigma, chol=chol, beta0=_frozen_array(beta0),
                    alpha0=_frozen_array(alpha0), surrogate_noise_sd=float(self.surrogate_noise_sd))


@dataclass(frozen=True)
class Dataset:
    """N observations of (surrogate, covariates), optionally with true labels.

    Read-only, C-contiguous float64 arrays are kept as they are, so a producer
    that freezes the arrays it has just allocated hands them over without a
    copy; any other input is copied and frozen.
    """

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("x must be an N x p matrix with N >= 1")
        if s.shape != (x.shape[0],):
            raise ValueError("s must be a length-N vector")
        _require_finite("x", x)
        _require_finite("s", s)
        _set_fields(self, x=_owned_array(x), s=_owned_array(s))
        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            if y.shape != (x.shape[0],):
                raise ValueError("y must be a length-N vector")
            _require_finite("y", y)
            if not np.all((y == 0.0) | (y == 1.0)):
                raise ValueError("y entries must all be 0 or 1")
            _set_fields(self, y=_owned_array(y))

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ExtremeSubset:
    """The tail rows ``source_indices`` of a Dataset, with the synthetic outcome.

    ``x_sub``, ``s_sub`` and ``y_true`` are the rows ``source_indices`` of
    ``ds.x``, ``ds.s`` and ``ds.y`` (``y_true`` is None when ``ds`` has no
    labels), gathered at construction and frozen in place; ``ds`` itself is
    not kept. ``y_star`` is derived from the tails: rows whose surrogate
    falls at or below ``delta_lo`` carry ``y_star = 0``, rows at or above
    ``delta_hi`` carry ``y_star = 1``. Tail counts are equal, so
    ``mean(y_star) == 1/2`` exactly.
    """

    q: float
    delta_lo: float
    delta_hi: float
    source_indices: np.ndarray
    ds: InitVar[Dataset]
    x_sub: np.ndarray = field(init=False)
    s_sub: np.ndarray = field(init=False)
    y_true: np.ndarray | None = field(init=False)
    y_star: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, ds: Dataset):
        if not (0.0 < self.q <= 1.0):
            raise ValueError("q must lie in (0, 1]")
        if not (self.delta_lo < self.delta_hi):
            raise DegenerateTailsError("tail thresholds must satisfy delta_lo < delta_hi")
        idx = _frozen_array(self.source_indices, dtype=np.int64)
        n = idx.size
        if idx.ndim != 1 or n < 2 or n % 2 != 0:
            raise ValueError("n_q must be a positive even integer")
        if idx.min() < 0 or idx.max() >= ds.n_rows:
            raise ValueError("source_indices must lie in [0, N)")
        x_sub, s_sub = ds.x[idx], ds.s[idx]
        y_true = None if ds.y is None else ds.y[idx]
        for a in (x_sub, s_sub, y_true):
            if a is not None:
                a.setflags(write=False)
        lo = s_sub <= self.delta_lo
        hi = s_sub >= self.delta_hi
        if not np.all(lo ^ hi):
            raise ValueError("every s_sub entry must lie in exactly one tail")
        if np.count_nonzero(hi) * 2 != n:
            raise ValueError("tail counts must be equal (mean(y_star) = 1/2 exactly)")
        if len(np.unique(idx)) != n:
            raise ValueError("source_indices must be distinct")
        _set_fields(self, q=float(self.q), delta_lo=float(self.delta_lo),
                    delta_hi=float(self.delta_hi), source_indices=idx, x_sub=x_sub,
                    s_sub=s_sub, y_true=y_true, y_star=_frozen_array(hi))

    @property
    def n_q(self) -> int:
        return self.s_sub.shape[0]

    @property
    def p(self) -> int:
        return self.x_sub.shape[1]


@dataclass(frozen=True)
class FitResult:
    """A penalized solution with its optimality certificate.

    ``loss`` is the smooth part of the objective at ``beta_hat``, as the
    solver computed it: the mean squared residual ``r.r / n`` for the tail
    fit, the mean negative log-likelihood for the logistic fit. Derived at
    construction: ``support``, the nonzero coordinates of ``beta_hat``, and
    ``objective = loss + lam * ||beta_hat||_1``.

    ``n_iterations`` is the solver's work: its active-set pivot and span
    steps, summed over the reweighting rounds of a logistic fit."""

    beta_hat: np.ndarray
    lam: float
    kkt_residual: float
    loss: float
    n_iterations: int
    converged: bool
    support: frozenset = field(init=False)
    objective: float = field(init=False)

    def __post_init__(self):
        beta = np.asarray(self.beta_hat, dtype=float)
        _require_finite("beta_hat", beta)
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        if not (np.isfinite(self.kkt_residual) and self.kkt_residual >= 0.0):
            raise ValueError("kkt_residual must be a nonnegative real")
        _set_fields(self, beta_hat=_frozen_array(beta),
                    support=frozenset(int(j) for j in np.nonzero(beta)[0]),
                    objective=self.loss + self.lam * float(np.abs(beta).sum()))


@dataclass(frozen=True)
class Direction:
    """A unit vector, or the all-zero estimate, which is ``degenerate`` (derived
    at construction)."""

    v: np.ndarray
    degenerate: bool = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        _require_finite("v", v)
        degenerate = not np.any(v != 0.0)
        if not degenerate and abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
            raise ValueError("v must be a unit vector within 1e-12, or zero")
        _set_fields(self, v=_frozen_array(v), degenerate=degenerate)
