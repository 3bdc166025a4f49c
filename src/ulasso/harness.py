"""Experiment configuration, replication engine, CSV ingestion, and table emission.

Replications run in isolated RNG streams derived from (seed, replication
index), so results are bit-identical at any worker count. Aggregates are
computed from the per-replication log alone, never from streaming state.
The supervised baseline picks its penalty with the tail fit's rule,
``tuning.select_bic``, on its own ``tuning.log_grid`` of 50 penalties down
to 1e-3 * lam_max.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .extremes import estimate_pi_q, tail_size
from .metrics import (
    auc,
    combine_directions,
    mse_direction,
    normalize_direction,
    relative_efficiency,
    tpr_fpr,
)
from .model import Dataset, DegenerateTailsError
from .sampler import SimulationConfig, build_beta0, design_from_config, gen_population, rng_stream
from .solver import SolverError, logistic_lasso_fit
from .tuning import fit_ulasso, log_grid, select_bic

__all__ = [
    "ExperimentAbortedError",
    "CsvFormatError",
    "ExperimentConfig",
    "ExperimentResult",
    "REPLICATION_METRICS",
    "REPLICATION_COLUMNS",
    "run_experiment",
    "load_csv",
    "write_csv",
    "fit_real",
    "emit_tables",
    "write_records_csv",
    "write_json",
]

logger = logging.getLogger(__name__)

_FAILURE_ABORT_FRACTION = 0.10
_SLASSO_GRID_POINTS = 50
_SLASSO_GRID_RATIO = 1e-3

# Per-replication metrics, in the column order of replications.csv; every
# estimator's aggregate row holds the mean of each.
REPLICATION_METRICS = ("mse", "auc", "tpr", "fpr", "n_q", "pi_q_hat")
REPLICATION_COLUMNS = ("rep", "estimator", "q") + REPLICATION_METRICS


class ExperimentAbortedError(RuntimeError):
    """More than the tolerated fraction of replications failed."""


class CsvFormatError(ValueError):
    """A CSV cell or column violated the expected schema."""


def _ulasso_label(q: float) -> str:
    return f"ulasso_q{q:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experimental grid for one simulation setting."""

    sim: SimulationConfig
    q_values: tuple
    supervised_sizes: tuple
    n_replications: int
    validation_size: int

    def __post_init__(self):
        object.__setattr__(self, "q_values", tuple(float(q) for q in self.q_values))
        if any(n != int(n) or n < 2 or n > self.sim.n_pop for n in self.supervised_sizes):
            raise ValueError("supervised sizes must be integers in [2, n_pop]: "
                             f"{list(self.supervised_sizes)}")
        object.__setattr__(self, "supervised_sizes", tuple(int(n) for n in self.supervised_sizes))
        if not self.q_values:
            raise ValueError("q_values must be nonempty")
        if any(not (0.0 < q <= 1.0) for q in self.q_values):
            raise ValueError("q_values must lie in (0, 1]")
        for q in self.q_values:
            tail_size(self.sim.n_pop, q)
        labels = [_ulasso_label(q) for q in self.q_values]
        if len(set(labels)) < len(labels):
            raise ValueError(f"q_values must have distinct estimator labels: {labels}")
        if self.n_replications < 1:
            raise ValueError("n_replications must be positive")
        if self.validation_size < 2:
            raise ValueError("validation_size must be at least 2")
        if np.all(build_beta0(self.sim.p) != 0.0):
            raise ValueError(f"p={self.sim.p} puts every coordinate in the true support; "
                             "the selection rates need at least one null coordinate")


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated rows plus the per-replication log they were computed from.

    A row is a dict: ``setting``, ``rho``, ``q``, ``p``, ``estimator``, ``re_vs`` (reference ->
    relative efficiency) and each ``REPLICATION_METRICS`` mean, None when none was recorded.
    """

    rows: list
    replications: list
    failures: list


def _logistic_bic_path(x: np.ndarray, y: np.ndarray):
    """Supervised baseline: penalized logistic path scored by the logistic BIC.

    The score is the deviance per observation plus log(n)/n per selected
    coordinate; ``select_bic`` picks among the converged fits, ties going to
    the larger penalty. Returns the selected fit.
    """
    n = x.shape[0]
    lam_max = float(np.abs((x - x.mean(axis=0)).T @ (y - y.mean())).max()) / n
    if lam_max <= 0.0:
        raise SolverError("degenerate supervised design: zero score at the null model")
    fits, b0 = [], None
    for lam in log_grid(lam_max, _SLASSO_GRID_POINTS, _SLASSO_GRID_RATIO):
        beta = fits[-1].beta_hat if fits else None
        fit, b0 = logistic_lasso_fit(x, y, float(lam), beta_init=beta, intercept_init=b0)
        fits.append(fit)
    scores = [2.0 * f.loss + math.log(n) / n * len(f.support) for f in fits]
    return fits[select_bic(scores, fits)]


def _replicate(cfg: ExperimentConfig, rep: int) -> list:
    """Run one replication; returns one record per estimator, keyed by ``REPLICATION_COLUMNS``.

    ``record`` scores every estimator alike: the MSE of its normalized direction
    against beta0's, its validation AUC and, given a support, its TPR/FPR.
    """
    spec = design_from_config(cfg.sim)
    pop = gen_population(spec, cfg.sim.n_pop, rng_stream(cfg.sim.seed, "rep", rep, "population"))
    val = gen_population(spec, cfg.validation_size, rng_stream(cfg.sim.seed, "rep", rep, "validation"))
    if np.all(val.y == val.y[0]):
        logger.warning("replication %d: one-class validation draw, every AUC left out", rep)
        val = None
    beta0_dir = normalize_direction(spec.beta0, spec.sigma_mat, spec.beta0)
    support_true = set(np.nonzero(spec.beta0)[0])
    records = []

    def record(estimator, direction, support, **tail):
        rec = dict.fromkeys(REPLICATION_COLUMNS)
        rec.update(rep=rep, estimator=estimator, mse=mse_direction(direction, beta0_dir), **tail)
        if support is not None:
            rec["tpr"], rec["fpr"] = tpr_fpr(support, support_true, spec.p)
        if val is not None and direction.degenerate:
            logger.warning("replication %d: degenerate %s direction left out of AUC", rep, estimator)
        elif val is not None:
            rec["auc"] = auc(val.x @ direction.v, val.y)
        records.append(rec)

    per_q_dirs = []
    for q in cfg.q_values:
        fit, _, subset = fit_ulasso(pop, q)
        direction = normalize_direction(fit.beta_hat, spec.sigma_mat, spec.beta0)
        per_q_dirs.append(direction)
        record(_ulasso_label(q), direction, fit.support,
               q=q, n_q=subset.n_q, pi_q_hat=estimate_pi_q(subset))
    record("ulasso_combined", combine_directions(per_q_dirs), None)

    for n_lab in cfg.supervised_sizes:
        idx = rng_stream(cfg.sim.seed, "rep", rep, "labels", n_lab).choice(
            cfg.sim.n_pop, size=n_lab, replace=False
        )
        fit = _logistic_bic_path(pop.x[idx], pop.y[idx])
        record(f"slasso_n{n_lab}", normalize_direction(fit.beta_hat, spec.sigma_mat, spec.beta0),
               fit.support)

    record("alpha0_benchmark", normalize_direction(spec.alpha0, spec.sigma_mat, spec.beta0), None)
    record("beta0_oracle", beta0_dir, None)
    return records


def _replication_worker(cfg: ExperimentConfig, rep: int):
    try:
        return _replicate(cfg, rep), None
    except (SolverError, DegenerateTailsError) as exc:
        return None, repr(exc)


def _mean_or_none(values: list) -> float | None:
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all replications, aggregate per-estimator means, attach RE maps.

    Replications that fail with a solver or degenerate-tails error are
    skipped and logged; the experiment aborts once more than 10% fail. Any
    other exception propagates. Results are invariant to the worker count,
    which must be at least 1.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    reps = range(cfg.n_replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replication_worker, [cfg] * len(reps), reps))
    else:
        outcomes = [_replication_worker(cfg, rep) for rep in reps]

    replications, failures = [], []
    for rep, (records, error) in enumerate(outcomes):
        if error is not None:
            logger.warning("replication %d failed: %s", rep, error)
            failures.append({"rep": rep, "error": error})
        else:
            replications.extend(records)
    if len(failures) > _FAILURE_ABORT_FRACTION * cfg.n_replications:
        raise ExperimentAbortedError(
            f"{len(failures)} of {cfg.n_replications} replications failed"
        )

    setting = "I" if cfg.sim.xi_law.name == "NORMAL_3_1" else "II"
    by_estimator = {}
    for rec in replications:
        by_estimator.setdefault(rec["estimator"], []).append(rec)

    means = {
        name: {m: _mean_or_none([r[m] for r in recs]) for m in REPLICATION_METRICS}
        for name, recs in by_estimator.items()
    }
    rows = []
    for name, recs in by_estimator.items():
        re_vs = {}
        if name.startswith("ulasso"):
            own = means[name]["mse"]
            for other, other_means in means.items():
                if other != name and other_means["mse"] is not None and own:
                    re_vs[other] = relative_efficiency(other_means["mse"], own)
        rows.append({"setting": setting, "rho": cfg.sim.rho, "q": recs[0]["q"], "p": cfg.sim.p,
                     "estimator": name, "re_vs": re_vs, **means[name]})
    rows.sort(key=lambda row: row["estimator"])
    return ExperimentResult(rows=rows, replications=replications, failures=failures)


def _checked_lines(handle):
    """Yield the handle's lines, raising at one that ``np.loadtxt`` reads unlike the row parser.

    ``loadtxt`` skips blank lines, which the row parser reports, and strips
    the separators U+001C..U+001F around a number, which ``float()`` rejects.
    """
    for line in handle:
        if (line.isspace() or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line):
            raise ValueError("line left to the row parser")
        yield line


def _fast_table(handle, n_columns: int, y_index: int | None) -> np.ndarray | None:
    """Parse the remaining lines in one ``np.loadtxt`` pass, or None to defer.

    The table is returned only when it holds the values the row parser would
    return: ``n_columns`` finite columns with 0/1 labels of both classes.
    Anything else (a quoted cell, a Unicode digit, a bad value) is left to
    the row parser, which words the error.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(_checked_lines(handle), delimiter=",", comments=None,
                               dtype=float, ndmin=2)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
    if table.shape[1] != n_columns or not np.isfinite(table).all():
        return None
    if y_index is not None:
        y = table[:, y_index]
        if not ((y == 0.0) | (y == 1.0)).all() or (y.size and (y == y[0]).all()):
            return None
    return table


def _parse_rows(path, reader, header: list, y_column: str | None) -> np.ndarray:
    """Parse the reader's rows cell by cell, raising at the first bad cell in row-major order."""
    col_index = {name: i for i, name in enumerate(header)}
    rows = []
    for row_num, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise CsvFormatError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
        parsed = []
        for name in header:
            cell = row[col_index[name]]
            try:
                value = float(cell) if "_" not in cell else math.nan
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"{path}: row {row_num}, column {name!r}: non-numeric value {cell!r}"
                )
            parsed.append(value)
        if y_column is not None:
            y_cell = parsed[col_index[y_column]]
            if y_cell not in (0.0, 1.0):
                raise CsvFormatError(
                    f"{path}: row {row_num}, column {y_column!r}: label must be 0 or 1"
                )
        rows.append(parsed)
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    if y_column is not None and rows:
        y = table[:, col_index[y_column]]
        if (y == y[0]).all():
            raise CsvFormatError(f"{path}: label column {y_column!r} holds only one class")
    return table


def load_csv(
    path,
    s_column: str,
    y_column: str | None = None,
    log1p_columns: tuple = (),
    standardize: bool = False,
) -> Dataset:
    """Read a headered CSV into a Dataset.

    All columns other than the surrogate and optional label columns become
    covariates, in header order. ``log1p_columns`` names covariate columns to
    transform as x -> log(1 + x); ``standardize`` rescales every covariate
    column to unit variance (zero-variance columns are left untouched).

    The data rows are parsed in one streamed ``np.loadtxt`` pass. When that
    pass fails or reads a value the rules reject, the file is parsed again
    row by row, which accepts what ``float()`` accepts (quoted cells, Unicode
    digits) and reports the first bad cell by row and column. A file that is
    not UTF-8 text raises ``CsvFormatError``, wherever the bad byte sits.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: empty file") from None
            if len(set(header)) != len(header):
                raise CsvFormatError(f"{path}: duplicate column names in header")
            if s_column not in header:
                raise CsvFormatError(f"{path}: missing surrogate column {s_column!r}")
            if y_column == s_column:
                raise CsvFormatError(f"{path}: surrogate and label columns must differ")
            if y_column is not None and y_column not in header:
                raise CsvFormatError(f"{path}: missing label column {y_column!r}")
            x_names = [c for c in header if c != s_column and c != y_column]
            if not x_names:
                raise CsvFormatError(f"{path}: no covariate columns")
            unknown = set(log1p_columns) - set(x_names)
            if unknown:
                raise CsvFormatError(
                    f"{path}: log1p columns not among covariates: {sorted(unknown)}")
            repeated = {c for c in log1p_columns if log1p_columns.count(c) > 1}
            if repeated:
                raise CsvFormatError(f"{path}: duplicate log1p columns: {sorted(repeated)}")
            col_index = {name: i for i, name in enumerate(header)}
            y_index = col_index[y_column] if y_column is not None else None
            table = _fast_table(handle, len(header), y_index)
            if table is None:
                handle.seek(0)
                reader = csv.reader(handle)
                next(reader)
                table = _parse_rows(path, reader, header, y_column)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if table.shape[0] == 0:
        raise CsvFormatError(f"{path}: no data rows")
    # take() gathers in C order: an F-ordered x moves lstsq results in the last bits
    x = table.take([col_index[name] for name in x_names], axis=1)
    s = table[:, col_index[s_column]].copy()
    y = table[:, y_index].copy() if y_index is not None else None
    for name in log1p_columns:
        j = x_names.index(name)
        if np.any(x[:, j] < 0.0):
            raise CsvFormatError(f"{path}: column {name!r} has negative values, log1p undefined")
        x[:, j] = np.log1p(x[:, j])
    if standardize:
        sd = x.std(axis=0)
        nz = sd > 0.0
        x[:, nz] /= sd[nz]
    for a in (x, s, y):
        if a is not None:
            a.setflags(write=False)
    return Dataset(x=x, s=s, y=y)


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to the CSV schema accepted by load_csv: columns
    ``S``, ``Y`` (when labeled), ``X1..Xp``."""
    header = ["S"] + (["Y"] if ds.y is not None else []) + [f"X{j + 1}" for j in range(ds.p)]
    table = np.column_stack([ds.s] + ([ds.y] if ds.y is not None else []) + [ds.x])
    _write_rows_csv(path, header, table.tolist())


def fit_real(ds: Dataset, q_values) -> dict:
    """Real-data workflow: per-q tail fits, their combination, and the
    full-data surrogate-index baseline.

    Each tail fit uses the default penalty grid and BIC pick of
    ``fit_ulasso``. Directions are oriented by positive inner product with the
    full-data least-squares direction of the surrogate on the covariates;
    degenerate ones are left out of the combination. Label-based
    quantities (pi_q_hat, auc) appear only when the dataset carries labels.
    """
    q_values = [float(q) for q in q_values]
    if not q_values:
        raise ValueError("q_values must be nonempty")
    x_t = ds.x - ds.x.mean(axis=0)
    s_t = ds.s - ds.s.mean()
    alpha_hat = np.linalg.lstsq(x_t, s_t, rcond=None)[0]
    identity = np.eye(ds.p)
    alpha_dir = normalize_direction(alpha_hat, identity, beta_ref=alpha_hat)
    report = {
        "n_rows": ds.n_rows,
        "p": ds.p,
        "alpha_direction": alpha_dir.v.tolist(),
        "q_fits": [],
    }
    directions = []
    for q in q_values:
        fit, trace, subset = fit_ulasso(ds, q)
        direction = normalize_direction(fit.beta_hat, identity, beta_ref=alpha_dir.v)
        directions.append(direction)
        entry = {
            "q": q,
            "beta_hat": fit.beta_hat.tolist(),
            "lambda_selected": fit.lam,
            "support": sorted(fit.support),
            "n_q": subset.n_q,
            "delta_lo": subset.delta_lo,
            "delta_hi": subset.delta_hi,
            "bic_trace": {
                "lambdas": trace.lambdas.tolist(),
                "bic_values": trace.bic_values.tolist(),
                "selected_index": trace.selected_index,
            },
        }
        if ds.y is not None:
            entry["pi_q_hat"] = estimate_pi_q(subset)
            if not direction.degenerate:
                entry["auc"] = auc(ds.x @ fit.beta_hat, ds.y)
        report["q_fits"].append(entry)
    combined = combine_directions(directions)
    report["combined"] = {
        "direction": combined.v.tolist(),
        "degenerate": combined.degenerate,
    }
    if ds.y is not None and not combined.degenerate:
        report["combined"]["auc"] = auc(ds.x @ combined.v, ds.y)
    return report


_TABLE_SCHEMAS = {
    "re": ("setting", "rho", "p", "q", "estimator", "reference", "re"),
    "auc": ("setting", "rho", "p", "q", "estimator", "auc"),
    "selection": ("setting", "rho", "p", "q", "estimator", "tpr", "fpr"),
}


def _table_records(rows: list, kind: str) -> list:
    records = []
    for row in rows:
        base = {key: row[key] for key in ("setting", "rho", "p", "q", "estimator")}
        if kind == "re":
            for reference in sorted(row["re_vs"]):
                records.append({**base, "reference": reference, "re": row["re_vs"][reference]})
        elif kind == "auc":
            if row["auc"] is not None:
                records.append({**base, "auc": row["auc"]})
        elif kind == "selection":
            if row["tpr"] is not None or row["fpr"] is not None:
                records.append({**base, "tpr": row["tpr"], "fpr": row["fpr"]})
    return records


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows_csv(path, columns, rows) -> None:
    """Write ``columns`` as the header, then each row's cells in column order. A None
    cell is empty; floats take shortest round-trip form, so repeated runs are byte-identical."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


def write_records_csv(path, columns, records) -> None:
    """Write ``columns`` as the header, then one row per record mapping (a missing cell is empty)."""
    _write_rows_csv(path, columns, ([rec.get(c) for c in columns] for rec in records))


def write_json(payload, handle) -> None:
    """Write the JSON form of every output to a text handle: indent 2, sorted
    keys, trailing newline."""
    json.dump(payload, handle, indent=2, sort_keys=True)
    handle.write("\n")


def emit_tables(rows: list, fmt: str, out_dir) -> list:
    """Write one file per table kind (RE, AUC, TPR/FPR); returns the paths.

    Column order follows the documented schemas; cells go through
    ``write_records_csv`` or ``write_json``.
    """
    if not rows:
        raise ValueError("emit_tables requires at least one result row")
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for kind, columns in _TABLE_SCHEMAS.items():
        records = _table_records(rows, kind)
        path = out_dir / f"table_{kind}.{fmt}"
        if fmt == "csv":
            write_records_csv(path, columns, records)
        else:
            with path.open("w") as handle:
                write_json(records, handle)
        paths.append(path)
    return paths
