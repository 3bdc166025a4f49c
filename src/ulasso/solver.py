"""Centered squared-loss LASSO by active-set pivoting on the design's second
moments, with coordinate descent as the fallback, plus a supervised
logistic-LASSO baseline whose reweighted inner problems go to the same kernel.

Loss normalization is mean squared error, ``(1/n) * sum((y_t - x_t @ beta)**2)``,
so the smooth-part gradient is ``-2 * T(beta)`` with ``T`` the empirical score
below, the null-solution threshold is ``2 * ||(1/n) x_t' y_t||_inf``, and the
single-coordinate soft-threshold level is ``lam / 2``.

The kernel reads only ``gram = x_t' x_t / n`` and ``corr = x_t' y_t / n``
(Friedman, Hastie & Tibshirani 2010, section 2.2); no array of length n
enters it. From the warm start it pivots on an updated Cholesky factor of
the active block of ``gram``: each step solves the stationarity system on
the current active set and signs (Osborne, Presnell & Turlach 2000), takes
the lasso-LARS drop step when a sign flips (Efron et al. 2004) and
otherwise brings in the worst KKT violator. A pivot that cannot go on
falls back to one coordinate-descent sweep, then pivots again. Each fit is
certified once, at return: ``lasso_fit`` reports the KKT residual and
loss computed from the residual ``y_t - x_t @ beta`` (``kkt_residual``
and ``objective_value`` give the same values) and flags the fit converged
only when that KKT residual is within ``10 * tol``.

The solver works on the columns as given; covariates are rescaled only at
load time (``harness.load_csv(standardize=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .model import ExtremeSubset, FitResult, _owned_array

__all__ = [
    "SolverError",
    "CenteredDesign",
    "center",
    "center_xy",
    "gradient_t",
    "null_threshold",
    "kkt_residual",
    "objective_value",
    "lasso_fit",
    "lasso_path",
    "logistic_lasso_fit",
]

DEFAULT_TOL = 1e-7
DEFAULT_MAX_SWEEPS = 10_000
_LOGISTIC_WEIGHT_FLOOR = 1e-5
_LOGISTIC_BETA_CAP = 30.0
_LOGISTIC_MAX_OUTER = 100


class SolverError(RuntimeError):
    """An internal solver guarantee was violated."""


@dataclass(frozen=True)
class CenteredDesign:
    """Column-centered covariates and centered response, with their second moments.

    ``gram = x_tilde' x_tilde / n`` and ``corr = x_tilde' y_tilde / n`` are
    built once, at construction; the descent kernel reads only these two.
    Array fields are read-only. Arrays passed in already read-only and
    C-contiguous are kept as they are (``center_xy`` freezes the ones it
    allocates); others are copied.
    """

    x_tilde: np.ndarray
    y_tilde: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)
    corr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("x_tilde", "y_tilde"):
            object.__setattr__(self, name, _owned_array(getattr(self, name)))
        xt, yt = self.x_tilde, self.y_tilde
        n = xt.shape[0]
        scale = max(1.0, float(np.abs(xt).max()) if xt.size else 1.0)
        if np.abs(xt.sum(axis=0)).max(initial=0.0) > 1e-9 * n * scale:
            raise ValueError("columns of x_tilde must sum to zero")
        if abs(yt.sum()) > 1e-9 * n * max(1.0, float(np.abs(yt).max()) if n else 1.0):
            raise ValueError("y_tilde must sum to zero")
        for name, a in (("gram", xt.T @ xt / n), ("corr", xt.T @ yt / n)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.x_tilde.shape[0]

    @property
    def p(self) -> int:
        return self.x_tilde.shape[1]


def center_xy(x: np.ndarray, y: np.ndarray) -> CenteredDesign:
    """Remove column means of x and the mean of y; the intercept drops out."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("need at least two rows to center")
    x_tilde = x - x.mean(axis=0)
    y_tilde = y - float(y.mean())
    for a in (x_tilde, y_tilde):
        a.setflags(write=False)
    return CenteredDesign(x_tilde=x_tilde, y_tilde=y_tilde)


def center(subset: ExtremeSubset) -> CenteredDesign:
    """Center the extreme subset; the centered labels are exactly +-1/2."""
    return center_xy(subset.x_sub, subset.y_star)


def gradient_t(design: CenteredDesign, beta: np.ndarray) -> np.ndarray:
    """Empirical score T(beta) = (1/n) x_t' (y_t - x_t beta).

    The gradient of the smooth part of the penalized objective is ``-2 * T``.
    """
    beta = np.asarray(beta, dtype=float)
    r = design.y_tilde - design.x_tilde @ beta
    return design.x_tilde.T @ r / design.n


def objective_value(design: CenteredDesign, beta: np.ndarray, lam: float) -> float:
    """Penalized loss (1/n)||y_t - x_t beta||^2 + lam * ||beta||_1."""
    beta = np.asarray(beta, dtype=float)
    r = design.y_tilde - design.x_tilde @ beta
    return float(r @ r / r.shape[0] + lam * np.abs(beta).sum())


def null_threshold(design: CenteredDesign) -> float:
    """Smallest penalty at which the all-zero vector is a solution.

    Read off the same ``corr`` the descent kernel starts from, so a fit at
    exactly this penalty stays identically zero.
    """
    return 2.0 * float(np.abs(design.corr).max(initial=0.0))


def _kkt_violation(two_t: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Largest subgradient violation for the score ``two_t`` (minus the smooth gradient).

    Active coordinates must satisfy two_t_j = lam * sign(beta_j); inactive
    ones |two_t_j| <= lam.
    """
    active = beta != 0.0
    viol_inactive = np.maximum(np.abs(two_t[~active]) - lam, 0.0)
    viol_active = np.abs(two_t[active] - lam * np.sign(beta[active]))
    worst = 0.0
    if viol_inactive.size:
        worst = max(worst, float(viol_inactive.max()))
    if viol_active.size:
        worst = max(worst, float(viol_active.max()))
    return worst


def kkt_residual(design: CenteredDesign, beta: np.ndarray, lam: float) -> float:
    """Largest violation of the stationarity conditions at ``beta``, with score 2*T."""
    beta = np.asarray(beta, dtype=float)
    return _kkt_violation(2.0 * gradient_t(design, beta), beta, lam)


def _gram_cd(
    gram: np.ndarray,
    corr: np.ndarray,
    lam: float,
    tol: float,
    max_sweeps: int,
    beta_init: np.ndarray | None = None,
    objective_log: list | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Minimize (1/n)||y - x b||^2 + lam ||b||_1 from ``gram = x'x/n`` and
    ``corr = x'y/n`` alone, by active-set pivoting with coordinate descent as
    the fallback.

    A pivot phase starts from the warm start's nonzeros A, in index order,
    with their signs s, and an upper Cholesky factor of ``gram[A, A]``;
    ``g = corr - gram b`` is half the negated smooth gradient. Each step
    solves ``gram[A, A] b = corr_A - (lam / 2) s`` with LAPACK ``dpotrs``.
    If some ``b_i`` lacks the sign ``s_i``, the step goes from ``beta_A``
    toward ``b`` only to the first zero crossing (ties go to the first in
    factor order), drops that coordinate and refactors: the lasso-LARS drop
    step (Efron, Hastie, Johnstone & Tibshirani 2004, section 3.1; Osborne,
    Presnell & Turlach 2000). Otherwise it moves to ``b`` and appends the
    inactive j with the largest ``|g_j| > lam / 2`` (the sweep's own strict
    test), with the sign of ``g_j``, growing the factor by one ``dtrtrs``.
    When column j lies in the span of the active columns (a non-positive
    append pivot, as when p > n), j enters by a swap instead: the step moves
    along the direction that keeps ``x b`` fixed and lowers the penalty,
    until a coordinate of A reaches zero, and trades that coordinate for j.
    When no j is left and the moment-form KKT residual of ``2 g`` is within
    ``10 * tol``, the fit is returned converged.

    A phase fails on a factor that is not positive definite, on a step whose
    objective is above the last one, after ``2 p + 2`` steps, or on a failed
    KKT gate. One coordinate-descent sweep then runs from its last accepted
    point (a coordinate step costs O(p) on the running ``g``; zero-variance
    columns stay at zero), and a new phase starts from the sweep's result.
    The sweeps also return converged on their own, once the largest
    coordinate change is at most ``tol`` and the KKT residual is within
    ``10 * tol``. Pivot steps and sweeps draw on one budget of
    ``max_sweeps``; once it is spent, the last point is returned
    unconverged. Objectives are ``-b.(corr + g) + lam ||b||_1``, the
    penalized loss less the constant ``||y||^2 / n``; the start, each
    accepted step and each sweep append theirs to ``objective_log``, and a
    sweep that raises it beyond roundoff raises ``SolverError`` (exact
    coordinate minimization cannot). Returns ``(beta, pivot steps + sweeps,
    converged)``; the caller certifies the returned fit.
    """
    p = gram.shape[0]
    diag = gram.diagonal().tolist()
    free = gram.diagonal() > 0.0
    beta = np.zeros(p) if beta_init is None else np.array(beta_init, dtype=float)
    beta[~free] = 0.0
    thr = lam / 2.0
    max_steps = 2 * p + 2

    def objective(b, g_b):
        return float(-(b @ (corr + g_b)) + lam * np.abs(b).sum())

    def not_above(obj, ref):
        return obj <= ref + 1e-10 * (1.0 + abs(ref))

    def log(obj):
        if objective_log is not None:
            objective_log.append(obj)

    def pivot(beta, g, obj, budget):
        active = np.flatnonzero(beta).tolist()
        signs = np.sign(beta[active])
        entering = upper = None
        step = 0
        for step in range(1, min(max_steps, budget) + 1):
            if upper is None:
                try:
                    upper = np.linalg.cholesky(gram[np.ix_(active, active)]).T
                except np.linalg.LinAlgError:
                    return beta, g, obj, step - 1, False
            b_a = beta[active]
            if entering is None:
                rhs = corr[active] - thr * signs
                b = lapack.dpotrs(upper, rhs, lower=0)[0] if active else rhs
                direction, reach = b - b_a, 1.0
            else:
                direction, reach = -sign_in * span, np.inf
            closing = np.flatnonzero(direction * signs < 0.0)
            t = -b_a[closing] / direction[closing]
            new = np.zeros(p)
            if t.size and t.min() <= reach:
                k = closing[np.argmin(t)]
                new[active] = b_a + t.min() * direction
                new[active[k]] = 0.0
                if entering is not None:
                    new[entering] = t.min() * sign_in
            elif entering is None:
                k = None
                new[active] = b
            else:
                break
            g_new = corr - gram @ new
            obj_new = objective(new, g_new)
            if not not_above(obj_new, obj):
                break
            beta, g, obj = new, g_new, obj_new
            log(obj)
            if k is not None:
                del active[k]
                signs = np.delete(signs, k)
                if entering is not None:
                    active.append(entering)
                    signs = np.append(signs, sign_in)
                    entering = None
                upper = None
                continue
            viol = np.where(free & (beta == 0.0), np.abs(g), 0.0)
            j = int(np.argmax(viol))
            if viol[j] <= thr:
                return beta, g, obj, step, _kkt_violation(2.0 * g, beta, lam) <= 10.0 * tol
            col = gram[active, j]
            w = lapack.dtrtrs(upper, col, lower=0, trans=1)[0] if active else col
            pivot_sq = gram[j, j] - w @ w
            if pivot_sq <= 0.0:
                # x_j = x_A @ span, so moving along (-sign_in * span, sign_in) keeps x b fixed.
                entering, sign_in = j, np.sign(g[j])
                span = lapack.dtrtrs(upper, w, lower=0)[0]
                continue
            n_a = len(active)
            grown = np.zeros((n_a + 1, n_a + 1), order="F")
            grown[:n_a, :n_a] = upper
            grown[:n_a, n_a] = w
            grown[n_a, n_a] = np.sqrt(pivot_sq)
            upper = grown
            active.append(j)
            signs = np.append(signs, np.sign(g[j]))
        return beta, g, obj, step, False

    g = corr - gram @ beta
    obj = objective(beta, g)
    log(obj)
    iterations = 0
    while True:
        beta, g, obj, steps, finished = pivot(beta, g, obj, max_sweeps - iterations)
        iterations += steps
        if finished or iterations >= max_sweeps:
            return beta, iterations, finished
        iterations += 1
        max_delta = 0.0
        for j in range(p):
            gjj = diag[j]
            if gjj <= 0.0:
                continue
            bj = beta[j]
            zj = g[j] + gjj * bj
            if zj > thr:
                bj_new = (zj - thr) / gjj
            elif zj < -thr:
                bj_new = (zj + thr) / gjj
            else:
                bj_new = 0.0
            delta = bj_new - bj
            if delta != 0.0:
                g -= delta * gram[j]
                beta[j] = bj_new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        g = corr - gram @ beta
        swept = objective(beta, g)
        log(swept)
        if not not_above(swept, obj):
            raise SolverError("penalized objective increased across a sweep")
        obj = swept
        if max_delta <= tol and _kkt_violation(2.0 * g, beta, lam) <= 10.0 * tol:
            return beta, iterations, True


def lasso_fit(
    design: CenteredDesign,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    beta_init: np.ndarray | None = None,
) -> FitResult:
    """Solve the centered L1-penalized least squares problem.

    The kernel reads only ``design.gram`` and ``design.corr``. The fit is
    certified once, here, from one residual ``y_t - x_t @ beta``: the
    reported KKT residual, loss and objective equal what ``kkt_residual`` and
    ``objective_value`` give at the returned coefficients, and the fit is
    flagged converged only when the kernel converged and that residual-based
    KKT is within ``10 * tol``.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    beta, iterations, converged = _gram_cd(
        design.gram, design.corr, lam, tol, max_sweeps, beta_init)
    r = design.y_tilde - design.x_tilde @ beta
    kkt = _kkt_violation(2.0 * (design.x_tilde.T @ r / design.n), beta, lam)
    return FitResult(
        beta_hat=beta,
        lam=float(lam),
        kkt_residual=kkt,
        loss=float(r @ r / design.n),
        n_iterations=iterations,
        converged=converged and kkt <= 10.0 * tol,
    )


def lasso_path(
    design: CenteredDesign,
    lams: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> list[FitResult]:
    """Fit a strictly descending penalty grid, warm-starting from the previous solution."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lams must be a nonempty vector")
    if np.any(lams < 0.0):
        raise ValueError("penalties must be nonnegative")
    if np.any(np.diff(lams) >= 0.0):
        raise ValueError("lams must be strictly descending")
    fits = []
    beta = None
    for lam in lams:
        fit = lasso_fit(design, float(lam), tol=tol, max_sweeps=max_sweeps, beta_init=beta)
        fits.append(fit)
        beta = fit.beta_hat
    return fits


def _expit(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _avg_nll(eta: np.ndarray, y: np.ndarray) -> float:
    # log(1 + exp(eta)) - y*eta, computed stably.
    return float(np.mean(np.logaddexp(0.0, eta) - y * eta))


def logistic_lasso_fit(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = DEFAULT_TOL,
    beta_init: np.ndarray | None = None,
    intercept_init: float | None = None,
) -> tuple[FitResult, float]:
    """L1-penalized logistic regression with an unpenalized intercept.

    Minimizes (1/n)*NLL + lam*||beta||_1 by iteratively reweighted quadratic
    approximation; after weighted centering, each inner problem's second
    moments go to the same covariance-form kernel as ``lasso_fit``. Returns
    (fit, intercept). A fit whose coefficients blow past a fixed cap
    (separation) is flagged not converged.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    n, p = x.shape
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError("y entries must all be 0 or 1")
    if classes.size < 2:
        raise ValueError("y must contain both classes")
    y_bar = float(y.mean())
    beta = np.zeros(p) if beta_init is None else np.array(beta_init, dtype=float)
    b0 = float(np.log(y_bar / (1.0 - y_bar))) if intercept_init is None else float(intercept_init)
    converged = False
    total_iterations = 0
    for _ in range(_LOGISTIC_MAX_OUTER):
        eta = b0 + x @ beta
        prob = _expit(eta)
        w = np.maximum(prob * (1.0 - prob), _LOGISTIC_WEIGHT_FLOOR)
        z = eta + (y - prob) / w
        # Weighted centering then sqrt(w/2) row scaling turns the quadratic
        # model (1/(2n)) sum w (z - b0 - x'b)^2 into the unweighted CD loss.
        w_sum = w.sum()
        xw_mean = (w @ x) / w_sum
        zw_mean = float(w @ z / w_sum)
        root = np.sqrt(w / 2.0)
        xt = (x - xw_mean) * root[:, None]
        zt = (z - zw_mean) * root
        beta_new, iterations, inner_ok = _gram_cd(
            xt.T @ xt / n, xt.T @ zt / n, lam, tol=max(tol / 10.0, 1e-12),
            max_sweeps=1000, beta_init=beta,
        )
        total_iterations += iterations
        b0_new = zw_mean - float(xw_mean @ beta_new)
        step = max(float(np.max(np.abs(beta_new - beta))), abs(b0_new - b0))
        beta, b0 = beta_new, b0_new
        if np.max(np.abs(beta), initial=0.0) > _LOGISTIC_BETA_CAP:
            converged = False
            break
        if step <= tol and inner_ok:
            converged = True
            break
    eta = b0 + x @ beta
    prob = _expit(eta)
    grad = x.T @ (prob - y) / n
    worst = max(float(abs(np.mean(prob - y))), _kkt_violation(-grad, beta, lam))
    fit = FitResult(
        beta_hat=beta,
        lam=float(lam),
        kkt_residual=worst,
        loss=_avg_nll(eta, y),
        n_iterations=total_iterations,
        converged=converged,
    )
    return fit, b0
