"""Span recording at the call sites between ulasso's modules.

A traced run replaces, for its duration, the names each module uses to call
the next one (``cli.load_csv``, ``harness.fit_ulasso``, ``tuning.lasso_path``,
...) with wrappers that record a span and update per-operation counters.
Nothing under ``src/`` changes; ``instrument`` restores every name on exit.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written
out once the run ends. A span's self time is its duration minus that of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter

from ulasso import cli, harness, model, tuning

# The root span of a traced op. Its self time, the part no layer span
# covers, is the benchmark's own share: ``trace.unattributed_s``.
ROOT_SPAN = "bench.op"

# (module, attribute, span name): each attribute is the name one layer uses
# to call into the next, and the span name says which layer is called.
CALL_SITES = (
    (cli, "main", "cli.main"),
    (tuning, "fit_ulasso", "tuning.fit_ulasso"),
    (cli, "run_experiment", "harness.run_experiment"),
    (cli, "fit_real", "harness.fit_real"),
    (cli, "load_csv", "harness.load_csv"),
    (cli, "emit_tables", "harness.emit_tables"),
    (harness, "design_from_config", "sampler.design_from_config"),
    (harness, "gen_population", "sampler.gen_population"),
    (harness, "fit_ulasso", "tuning.fit_ulasso"),
    (harness, "logistic_lasso_fit", "solver.logistic_lasso_fit"),
    (harness, "estimate_pi_q", "extremes.estimate_pi_q"),
    (harness, "auc", "metrics.auc"),
    (harness, "normalize_direction", "metrics.normalize_direction"),
    (harness, "combine_directions", "metrics.combine_directions"),
    (harness, "mse_direction", "metrics.mse_direction"),
    (harness, "tpr_fpr", "metrics.tpr_fpr"),
    (tuning, "extract_extreme_subset", "extremes.extract_extreme_subset"),
    (tuning, "center", "solver.center"),
    (tuning, "lambda_grid", "tuning.lambda_grid"),
    (tuning, "lasso_path", "solver.lasso_path"),
    (tuning, "bic_score", "tuning.bic_score"),
)

# Validation and defensive copies run in __post_init__ of these types.
MODEL_TYPES = (model.Dataset, model.ExtremeSubset, model.FitResult, model.Direction)


def count_fit_ulasso(rec, args, result):
    _, trace, subset = result
    sweeps = sum(f.n_iterations for f in trace.fits)
    rec.add("solver.cd_sweeps", sweeps)
    rec.add("solver.coord_updates", sweeps * subset.p)
    rec.add("solver.path_unconverged", sum(not f.converged for f in trace.fits))
    rec.maximum("solver.kkt_max", max(f.kkt_residual for f in trace.fits))


def count_logistic(rec, args, result):
    rec.add("solver.logistic_fits", 1)
    rec.add("solver.logistic_sweeps", result[0].n_iterations)


COUNTERS = {
    "tuning.fit_ulasso": count_fit_ulasso,
    "solver.logistic_lasso_fit": count_logistic,
    "extremes.extract_extreme_subset": lambda rec, args, result: rec.add(
        "extremes.rows_scanned", args[0].n_rows),
    "harness.load_csv": lambda rec, args, result: rec.add("harness.load_csv.rows", result.n_rows),
    "metrics.auc": lambda rec, args, result: rec.add("metrics.auc.rows", len(args[0])),
}

# Per-layer metrics of a traced run: (name, unit, better). Every one is
# reported on every workload, as 0 where the layer is not on the path.
PER_LAYER = (
    ("solver.lasso_path.s", "s", "lower"),
    ("solver.cd_sweeps", "count", "lower"),
    ("solver.coord_updates", "count", "lower"),
    ("solver.path_unconverged", "count", "lower"),
    ("solver.kkt_max", "1", "lower"),
    ("solver.logistic_lasso_fit.s", "s", "lower"),
    ("solver.logistic_fits", "count", "lower"),
    ("solver.logistic_sweeps", "count", "lower"),
    ("solver.self_s", "s", "lower"),
    ("extremes.extract_extreme_subset.s", "s", "lower"),
    ("extremes.rows_scanned", "count", "lower"),
    ("extremes.self_s", "s", "lower"),
    ("harness.load_csv.s", "s", "lower"),
    ("harness.load_csv.rows_per_s", "rows/s", "higher"),
    ("harness.emit_tables.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("sampler.gen_population.s", "s", "lower"),
    ("sampler.self_s", "s", "lower"),
    ("metrics.auc.s", "s", "lower"),
    ("metrics.auc.rows", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("tuning.fit_ulasso.s", "s", "lower"),
    ("tuning.bic_score.s", "s", "lower"),
    ("tuning.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("model.init_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Recorder:
    """Spans and counters of the traced operations of one run."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = []
        self.op = None

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.counters[op_id] = defaultdict(float)
        self._open.append(self._start(ROOT_SPAN))

    def end_op(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()
        self.op = None

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        return len(self.spans) - 1

    def call(self, name: str, fn, args, kwargs):
        idx = self._start(name)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def add(self, name: str, value) -> None:
        self.counters[self.op][name] += value

    def maximum(self, name: str, value) -> None:
        ops = self.counters[self.op]
        ops[name] = max(ops[name], value)

    def write(self, path) -> None:
        """Write one JSON line per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"op": op, "name": name, "parent": parent,
                                         "start": start - t0, "end": end - t0}) + "\n")

    def op_profiles(self) -> dict:
        """Per traced op: inclusive seconds per span name, self seconds per
        layer, and the counters, keyed by the names in PER_LAYER."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        profiles = {op: defaultdict(float, counts) for op, counts in self.counters.items()}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            prof = profiles[op]
            dur = end - start
            layer = name.split(".", 1)[0]
            prof[f"{name}.s"] += dur
            prof[f"{layer}.self_s"] += dur - child[i]
        for prof in profiles.values():
            prof["trace.op_s"] = prof.pop(f"{ROOT_SPAN}.s")
            prof["trace.unattributed_s"] = prof.pop("bench.self_s")
            prof["model.init_s"] = prof.pop("model.self_s", 0.0)
            load_s = prof["harness.load_csv.s"]
            if load_s > 0.0:
                prof["harness.load_csv.rows_per_s"] = prof["harness.load_csv.rows"] / load_s
        return profiles


def _traced(rec: Recorder, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        result = rec.call(name, fn, args, kwargs)
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Route every call site in CALL_SITES and MODEL_TYPES through ``rec``."""
    saved = []
    try:
        for module, attr, name in CALL_SITES:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _traced(rec, name, getattr(module, attr)))
        for cls in MODEL_TYPES:
            saved.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = _traced(rec, f"model.{cls.__name__}", cls.__post_init__)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder, traced_s: list, untraced_s: list) -> dict:
    """Per-op medians of every PER_LAYER metric, plus the tracing overhead:
    median traced op time over median untraced op time, minus one."""
    profiles = list(rec.op_profiles().values())
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_pct":
            value = 100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0)
        else:
            value = statistics.median(p.get(name, 0.0) for p in profiles)
        out[name] = {"value": value, "unit": unit}
    return out


def self_time_means(rec: Recorder) -> dict:
    """Mean seconds per traced op: each layer's self time, the benchmark's
    unattributed share, and ``trace.op_s``, which is exactly their sum."""
    profiles = list(rec.op_profiles().values())
    keys = {key for prof in profiles for key in prof if key.endswith(".self_s")}
    keys |= {"model.init_s", "trace.unattributed_s", "trace.op_s"}
    return {key: statistics.fmean(prof.get(key, 0.0) for prof in profiles)
            for key in sorted(keys)}
