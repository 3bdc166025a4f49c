"""Command-line harness.

Subcommands:
  simulate  run a configured replication experiment and write result tables
  fit       run the real-data workflow on a CSV file and write a JSON report
  oracle    print the closed-form theory report for a simulation design

Exit codes: 0 success, 2 configuration error, 3 data or solver error, 4 experiment aborted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import tuning
from .harness import (
    REPLICATION_COLUMNS,
    CsvFormatError,
    ExperimentAbortedError,
    ExperimentConfig,
    emit_tables,
    fit_real,
    load_csv,
    run_experiment,
    write_json,
    write_records_csv,
)
from .model import DegenerateTailsError
from .sampler import SimulationConfig, XiLaw, design_from_config
from .solver import SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ABORTED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ulasso", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a replication experiment")
    sim.add_argument("--config", type=Path, default=None,
                     help="JSON config file; flags override its keys")
    sim.add_argument("--seed", type=int, required=True, help="master seed (mandatory)")
    sim.add_argument("--reps", type=int, required=True, help="replication count (mandatory)")
    sim.add_argument("--out", type=Path, required=True, help="output directory (mandatory)")
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--xi-law", choices=list(_XI_LAWS), default=None)
    sim.add_argument("--n-pop", type=int, default=None)
    sim.add_argument("--q", type=float, action="append", default=None, dest="q_values",
                     help="tail fraction, repeatable")
    sim.add_argument("--supervised-size", type=int, action="append", default=None,
                     dest="supervised_sizes", help="labeled subsample size, repeatable")
    sim.add_argument("--validation-size", type=int, default=None)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--format", choices=["csv", "json"], default="csv")

    fit = sub.add_parser("fit", help="fit the tail regression to a CSV dataset")
    fit.add_argument("--data", type=Path, required=True)
    fit.add_argument("--s-col", required=True)
    fit.add_argument("--y-col", default=None)
    fit.add_argument("--q", type=float, action="append", required=True)
    fit.add_argument("--log1p", action="append", default=[],
                     help="covariate column to transform as x -> log(1+x), repeatable")
    fit.add_argument("--standardize", action="store_true",
                     help="rescale covariate columns to unit variance")
    fit.add_argument("--out", type=Path, required=True, help="path of the JSON report")

    orc = sub.add_parser("oracle", help="print the theory report for a design")
    orc.add_argument("--p", type=int, required=True)
    orc.add_argument("--rho", type=float, default=_CONFIG_DEFAULTS["rho"])
    orc.add_argument("--xi-law", choices=list(_XI_LAWS), default=_CONFIG_DEFAULTS["xi_law"])
    orc.add_argument("--n-pop", type=int, default=_CONFIG_DEFAULTS["n_pop"])
    orc.add_argument("--seed", type=int, required=True)
    orc.add_argument("--sigma", type=float, default=1.0,
                     help="surrogate noise standard deviation")
    orc.add_argument("--q", type=float, action="append", required=True)
    orc.add_argument("--out", type=Path, default=None)
    return parser


_XI_LAWS = {"normal": XiLaw.NORMAL_3_1, "uniform": XiLaw.UNIFORM_2_5}
_CONFIG_DEFAULTS = {
    "p": 20,
    "rho": 0.0,
    "xi_law": "normal",
    "n_pop": 100_000,
    "q_values": [0.02],
    "supervised_sizes": [500],
    "validation_size": 100_000,
}


def _checked_value(key: str, value):
    """``value`` if it has the JSON type of the key's default, else ``ValueError``;
    a float key reads an int as a float."""
    default = _CONFIG_DEFAULTS[key]
    many = isinstance(default, list)
    kind = type(default[0] if many else default)
    items = value if many and isinstance(value, list) else [value]
    allowed = (int, float) if kind is float else kind
    if many is not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, allowed) for v in items):
        raise ValueError(f"config key {key!r} must be {'a list of ' * many}{kind.__name__}, "
                         f"got {value!r}")
    items = [float(v) for v in items] if kind is float else items
    return items if many else items[0]


def _experiment_config(args) -> ExperimentConfig:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    values = dict(_CONFIG_DEFAULTS)
    if args.config is not None:
        with open(args.config) as handle:
            loaded = json.load(handle)
        unknown = set(loaded) - set(values)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update({key: _checked_value(key, value) for key, value in loaded.items()})
    # each simulate flag's argparse dest is the config key it overrides
    values.update({key: getattr(args, key) for key in values if getattr(args, key) is not None})
    if values["xi_law"] not in _XI_LAWS:
        raise ValueError(f"unknown xi_law {values['xi_law']!r}: expected 'normal' or 'uniform'")
    sim = SimulationConfig(
        p=values["p"],
        rho=values["rho"],
        xi_law=_XI_LAWS[values["xi_law"]],
        n_pop=values["n_pop"],
        seed=args.seed,
    )
    return ExperimentConfig(
        sim=sim,
        q_values=tuple(values["q_values"]),
        supervised_sizes=tuple(values["supervised_sizes"]),
        n_replications=args.reps,
        validation_size=values["validation_size"],
    )


def _cmd_simulate(args) -> int:
    out = args.out
    try:
        cfg = _experiment_config(args)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_experiment(cfg, workers=args.workers)
    except ExperimentAbortedError as exc:
        print(f"experiment aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    emit_tables(result.rows, args.format, out)
    write_records_csv(out / "replications.csv", REPLICATION_COLUMNS, result.replications)
    summary = {
        "config": {
            "p": cfg.sim.p,
            "rho": cfg.sim.rho,
            "xi_law": cfg.sim.xi_law.value,
            "n_pop": cfg.sim.n_pop,
            "q_values": list(cfg.q_values),
            "supervised_sizes": list(cfg.supervised_sizes),
            "n_replications": cfg.n_replications,
            "validation_size": cfg.validation_size,
            "seed": cfg.sim.seed,
            "grid_points": tuning.GRID_POINTS,
            "grid_ratio": tuning.GRID_RATIO,
        },
        "failures": result.failures,
        "rows": result.rows,
    }
    with (out / "summary.json").open("w") as handle:
        write_json(summary, handle)
    return EXIT_OK


def _cmd_fit(args) -> int:
    out_dir = args.out.parent
    if args.out.is_dir() or not (out_dir.is_dir() and os.access(out_dir, os.W_OK)):
        print(f"config error: cannot write {args.out}", file=sys.stderr)
        return EXIT_CONFIG
    if not all(0.0 < q <= 1.0 for q in args.q):
        print("config error: q must lie in (0, 1]", file=sys.stderr)
        return EXIT_CONFIG
    try:
        ds = load_csv(
            args.data,
            s_column=args.s_col,
            y_column=args.y_col,
            log1p_columns=tuple(args.log1p),
            standardize=args.standardize,
        )
    except (CsvFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        report = fit_real(ds, args.q)
        with args.out.open("w") as handle:
            write_json(report, handle)
    except DegenerateTailsError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import theory_report  # scipy.special: loaded by this subcommand only

    try:
        sim = SimulationConfig(
            p=args.p,
            rho=args.rho,
            xi_law=_XI_LAWS[args.xi_law],
            n_pop=args.n_pop,
            seed=args.seed,
        )
        spec = design_from_config(sim, surrogate_noise_sd=args.sigma)
        reports = {repr(q): theory_report(spec, q) for q in args.q}
        if args.out is not None:
            with args.out.open("w") as handle:
                write_json(reports, handle)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    write_json(reports, sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "fit":
        return _cmd_fit(args)
    return _cmd_oracle(args)


if __name__ == "__main__":
    sys.exit(main())
