"""Centered squared-loss LASSO by active-set pivoting on the design's second
moments, plus a supervised logistic-LASSO baseline whose reweighted inner
problems go to the same kernel.

``CenteredDesign(x, y)`` centers the columns of x and the response y at
construction, so the intercept drops out, and holds their second moments.
Loss normalization is mean squared error, ``(1/n) * sum((y_t - x_t @ beta)**2)``,
so the smooth-part gradient is ``-2 * T(beta)`` with ``T(beta) = (1/n) x_t'
(y_t - x_t beta)`` the empirical score, the null-solution threshold is
``2 * ||(1/n) x_t' y_t||_inf``, and the single-coordinate soft-threshold
level is ``lam / 2``.

The kernel reads only ``gram = x_t' x_t / n`` and ``corr = x_t' y_t / n``
(Friedman, Hastie & Tibshirani 2010, section 2.2); no array of length n
enters it. From the warm start it pivots on an updated Cholesky factor of
the active block of ``gram``: each step solves the stationarity system on
the current active set and signs (Osborne, Presnell & Turlach 2000), takes
the lasso-LARS drop step when a sign flips (Efron et al. 2004) and
otherwise brings in the worst KKT violator. A column in the span of the
active ones (duplicated covariates, or p > n) is traded in by a step that
keeps the fitted values fixed and does not raise the penalty. Each fit is
certified once, at return: ``lasso_fit`` reports the KKT residual and
loss computed from the residual ``y_t - x_t @ beta`` (``kkt_residual``
gives the same KKT value) and flags the fit converged only when that KKT
residual is within ``10 * TOL``. ``TOL`` sets only that flag, never the
coefficients; it and ``MAX_STEPS`` are module constants read at each call.

The solver works on the columns as given; covariates are rescaled only at
load time (``harness.load_csv(standardize=True)``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.linalg import lapack

from .model import ExtremeSubset, FitResult, _set_fields

__all__ = [
    "SolverError",
    "CenteredDesign",
    "center",
    "null_threshold",
    "kkt_residual",
    "lasso_fit",
    "lasso_path",
    "logistic_lasso_fit",
]

TOL = 1e-7
MAX_STEPS = 10_000
# A column whose squared pivot is at most this share of its second moment is
# taken as in the span of the columns before it. Roundoff leaves a few ulps of
# gram[j, j] in the squared pivot of a dependent column, so with no floor such
# a pivot is kept and the solves run on a garbage factor; a floor of 1e-10
# takes genuine near pairs (noise 1e-5 relative) as spanned, and their fits
# stick. 1e-14 and 1e-12 both leave no fit unconverged on random designs with
# exact duplicates and near pairs.
_PIVOT_FLOOR = 1e-12
_LOGISTIC_WEIGHT_FLOOR = 1e-5
_LOGISTIC_BETA_CAP = 30.0
_LOGISTIC_MAX_OUTER = 100


class SolverError(RuntimeError):
    """An internal solver guarantee was violated."""


@dataclass(frozen=True)
class CenteredDesign:
    """Covariates ``x`` and response ``y``, centered at construction, with their second moments.

    ``x_tilde = x - x.mean(axis=0)`` and ``y_tilde = y - mean(y)``, so the
    intercept drops out; ``gram = x_tilde' x_tilde / n`` and
    ``corr = x_tilde' y_tilde / n`` are built once, here, and the descent
    kernel reads only these two. Every array field is read-only.
    """

    x: InitVar[np.ndarray]
    y: InitVar[np.ndarray]
    x_tilde: np.ndarray = field(init=False)
    y_tilde: np.ndarray = field(init=False)
    gram: np.ndarray = field(init=False, repr=False)
    corr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.shape[0]
        if n < 2:
            raise ValueError("need at least two rows to center")
        xt = x - x.mean(axis=0)
        yt = y - float(y.mean())
        arrays = {"x_tilde": xt, "y_tilde": yt, "gram": xt.T @ xt / n, "corr": xt.T @ yt / n}
        for a in arrays.values():
            a.setflags(write=False)
        _set_fields(self, **arrays)

    @property
    def n(self) -> int:
        return self.x_tilde.shape[0]

    @property
    def p(self) -> int:
        return self.x_tilde.shape[1]


def center(subset: ExtremeSubset) -> CenteredDesign:
    """Center the extreme subset; the centered labels are exactly +-1/2."""
    return CenteredDesign(subset.x_sub, subset.y_star)


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
    r = design.y_tilde - design.x_tilde @ beta
    return _kkt_violation(2.0 * (design.x_tilde.T @ r / design.n), beta, lam)


def _gram_pivot(
    gram: np.ndarray,
    corr: np.ndarray,
    lam: float,
    tol: float,
    max_steps: int,
    beta_init: np.ndarray | None = None,
    objective_log: list | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Minimize (1/n)||y - x b||^2 + lam ||b||_1 from ``gram = x'x/n`` and
    ``corr = x'y/n`` alone, by active-set pivoting.

    The active set A holds the current nonzeros (at the start, the warm
    start's, in index order) with their signs s; ``g = corr - gram b`` is
    half the negated smooth gradient. The upper Cholesky factor of
    ``gram[A, A]`` comes from LAPACK ``dpotrf``; a column whose squared pivot
    is at most ``_PIVOT_FLOOR`` times its second moment lies in the span of
    the columns before it. Each step is one of two moves.

    The solve step solves ``gram[A, A] b = corr_A - (lam / 2) s`` with
    ``dpotrs``. If some ``b_i`` lacks the sign ``s_i``, it goes from
    ``beta_A`` toward ``b`` only to the first zero crossing (ties go to the
    first in factor order), drops that coordinate and refactors: the
    lasso-LARS drop step (Efron, Hastie, Johnstone & Tibshirani 2004,
    section 3.1; Osborne, Presnell & Turlach 2000). Otherwise it moves to
    ``b`` and appends the inactive j with the largest ``|g_j| > lam / 2``,
    with the sign of ``g_j``, growing the factor by one ``dtrtrs``.

    The span step serves a column with ``x_j = x_A[:k] @ span``: moving
    along ``(-c span, c)`` on ``A[:k]`` and j keeps ``x b``, hence ``g``,
    fixed. Either j is ``A[k]``, a warm coordinate the factor rejects, with
    ``c = -sign(s_j - span . s[:k])`` (``-s_j`` on a tie), or j is a violator
    in the span of all of A (as when p > n), entering with ``c = sign(g_j)``;
    neither raises the penalty. The step goes to the first zero crossing,
    drops that coordinate (an entering j takes its place) and refactors. A
    violator in the span is passed over when ``|g_j| - lam / 2`` is within
    roundoff, ``1e-12 (|corr_j| + |gram_j| . |b|)``: entering would not lower
    the penalty. That is how an exact duplicate of an active column shows,
    and the computed ``span`` cannot tell when the active block is
    ill-conditioned.

    When no violator is left and the moment-form KKT residual of ``2 g`` is
    within ``10 * tol``, the fit is returned converged. Objectives are
    ``-b.(corr + g) + lam ||b||_1``, the penalized loss less the constant
    ``||y||^2 / n``; the start and each accepted step append theirs to
    ``objective_log``. A step that would raise it beyond roundoff, or a
    spent budget of ``max_steps`` steps, returns the last point
    unconverged. Returns ``(beta, steps, converged)``; the caller certifies
    the returned fit.
    """
    p = gram.shape[0]
    free = gram.diagonal() > 0.0
    beta = np.zeros(p) if beta_init is None else np.array(beta_init, dtype=float)
    beta[~free] = 0.0
    thr = lam / 2.0

    def objective(b, g_b):
        return float(-(b @ (corr + g_b)) + lam * np.abs(b).sum())

    g = corr - gram @ beta
    obj = objective(beta, g)
    if objective_log is not None:
        objective_log.append(obj)
    active = np.flatnonzero(beta).tolist()
    signs = np.sign(beta[active])
    upper = span = None
    step = 0
    for step in range(1, max_steps + 1):
        if upper is None:
            block = gram[np.ix_(active, active)]
            lower, info = lapack.dpotrf(block, lower=1)
            upper, done = lower.T, info - 1 if info > 0 else len(active)
            weak = np.flatnonzero(
                upper.diagonal()[:done] ** 2 <= _PIVOT_FLOOR * block.diagonal()[:done])
            k = int(weak[0]) if weak.size else done
            if k < len(active):
                j, head = active[k], upper[:k, :k]
                w = lapack.dtrtrs(head, gram[active[:k], j], lower=0, trans=1)[0]
                span = lapack.dtrtrs(head, w, lower=0)[0]
                edge = signs[k] - span @ signs[:k]
                c = -np.sign(edge) if edge != 0.0 else -signs[k]
        b_a = beta[active]
        entering = span is not None and span.size == len(active)
        if span is None:
            rhs = corr[active] - thr * signs
            b = lapack.dpotrs(upper, rhs, lower=0)[0] if active else rhs
            direction, reach = b - b_a, 1.0
        else:
            direction, reach = np.zeros(len(active)), np.inf
            direction[:span.size] = -c * span
            if not entering:
                direction[span.size] = c
        closing = np.flatnonzero(direction * signs < 0.0)
        t = -b_a[closing] / direction[closing]
        new = np.zeros(p)
        if t.size and t.min() <= reach:
            out = closing[np.argmin(t)]
            new[active] = b_a + t.min() * direction
            new[active[out]] = 0.0
            if entering:
                new[j] = t.min() * c
        elif span is None:
            out = None
            new[active] = b
        else:
            break
        g_new = corr - gram @ new
        obj_new = objective(new, g_new)
        if not obj_new <= obj + 1e-10 * (1.0 + abs(obj)):
            break
        beta, g, obj = new, g_new, obj_new
        if objective_log is not None:
            objective_log.append(obj)
        if out is not None:
            del active[out]
            signs = np.delete(signs, out)
            if entering:
                active.append(j)
                signs = np.append(signs, c)
            upper = span = None
            continue
        viol = np.where(free & (beta == 0.0), np.abs(g), 0.0)
        while True:
            j = int(np.argmax(viol))
            if viol[j] <= thr:
                return beta, step, _kkt_violation(2.0 * g, beta, lam) <= 10.0 * tol
            col = gram[active, j]
            w = lapack.dtrtrs(upper, col, lower=0, trans=1)[0] if active else col
            pivot_sq = gram[j, j] - w @ w
            if pivot_sq > _PIVOT_FLOOR * gram[j, j]:
                n_a = len(active)
                grown = np.zeros((n_a + 1, n_a + 1), order="F")
                grown[:n_a, :n_a] = upper
                grown[:n_a, n_a] = w
                grown[n_a, n_a] = np.sqrt(pivot_sq)
                upper = grown
                active.append(j)
                signs = np.append(signs, np.sign(g[j]))
                break
            if abs(g[j]) - thr <= 1e-12 * (abs(corr[j]) + np.abs(gram[j]) @ np.abs(beta)):
                viol[j] = 0.0
                continue
            span, c = lapack.dtrtrs(upper, w, lower=0)[0], np.sign(g[j])
            break
    return beta, step, False


def _check_fit_inputs(lam: float, beta_init: np.ndarray | None, p: int) -> None:
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be nonnegative and finite")
    if beta_init is not None:
        beta_init = np.asarray(beta_init, dtype=float)
        if beta_init.shape != (p,) or not np.all(np.isfinite(beta_init)):
            raise ValueError(f"beta_init must be a finite vector of length {p}")


def lasso_fit(
    design: CenteredDesign,
    lam: float,
    beta_init: np.ndarray | None = None,
) -> FitResult:
    """Solve the centered L1-penalized least squares problem.

    The kernel reads only ``design.gram`` and ``design.corr``. The fit is
    certified once, here, from one residual ``y_t - x_t @ beta``: the
    reported KKT residual equals what ``kkt_residual`` gives at the returned
    coefficients, the loss is ``r.r / n``, and the fit is flagged converged
    only when the kernel converged and that residual-based KKT is within
    ``10 * TOL``. ``MAX_STEPS`` bounds the kernel's pivot and span steps.
    """
    _check_fit_inputs(lam, beta_init, design.p)
    beta, iterations, converged = _gram_pivot(
        design.gram, design.corr, lam, TOL, MAX_STEPS, beta_init)
    r = design.y_tilde - design.x_tilde @ beta
    kkt = _kkt_violation(2.0 * (design.x_tilde.T @ r / design.n), beta, lam)
    return FitResult(
        beta_hat=beta,
        lam=float(lam),
        kkt_residual=kkt,
        loss=float(r @ r / design.n),
        n_iterations=iterations,
        converged=converged and kkt <= 10.0 * TOL,
    )


def lasso_path(design: CenteredDesign, lams: np.ndarray) -> list[FitResult]:
    """Fit a strictly descending penalty grid, warm-starting from the previous
    solution; each fit is a ``lasso_fit``, certified against ``10 * TOL``."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lams must be a nonempty vector")
    if not np.all(np.isfinite(lams) & (lams >= 0.0)):
        raise ValueError("penalties must be finite and nonnegative")
    if np.any(np.diff(lams) >= 0.0):
        raise ValueError("lams must be strictly descending")
    fits = []
    beta = None
    for lam in lams:
        fit = lasso_fit(design, float(lam), beta_init=beta)
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
    beta_init: np.ndarray | None = None,
    intercept_init: float | None = None,
) -> tuple[FitResult, float]:
    """L1-penalized logistic regression with an unpenalized intercept.

    Minimizes (1/n)*NLL + lam*||beta||_1 by iteratively reweighted quadratic
    approximation; after weighted centering, each inner problem's second
    moments go to the same covariance-form kernel as ``lasso_fit``. It stops,
    converged, at an outer step within ``TOL`` whose inner fit converged.
    Returns (fit, intercept). A fit whose coefficients blow past a fixed cap
    (separation) is flagged not converged.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    _check_fit_inputs(lam, beta_init, p)
    if intercept_init is not None and not np.isfinite(intercept_init):
        raise ValueError("intercept_init must be finite")
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
        # model (1/(2n)) sum w (z - b0 - x'b)^2 into the kernel's unweighted loss.
        w_sum = w.sum()
        xw_mean = (w @ x) / w_sum
        zw_mean = float(w @ z / w_sum)
        root = np.sqrt(w / 2.0)
        xt = (x - xw_mean) * root[:, None]
        zt = (z - zw_mean) * root
        beta_new, iterations, inner_ok = _gram_pivot(
            xt.T @ xt / n, xt.T @ zt / n, lam, tol=max(TOL / 10.0, 1e-12),
            max_steps=1000, beta_init=beta,
        )
        total_iterations += iterations
        b0_new = zw_mean - float(xw_mean @ beta_new)
        step = max(float(np.max(np.abs(beta_new - beta))), abs(b0_new - b0))
        beta, b0 = beta_new, b0_new
        if np.max(np.abs(beta), initial=0.0) > _LOGISTIC_BETA_CAP:
            converged = False
            break
        if step <= TOL and inner_ok:
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
