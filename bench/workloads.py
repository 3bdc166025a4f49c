"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one returned. Inputs come from a pool of POOL input
seeds; the workload seed picks from it, so the same seed always gives the
same inputs and every input has a reference result recorded from the seed
commit (``reference.json``, written by ``run.py --record-reference``).
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ulasso" / "__init__.py").is_file():
    raise ImportError(f"ulasso sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import ulasso  # noqa: E402
from ulasso import cli, harness, tuning  # noqa: E402
from ulasso.metrics import mse_direction, normalize_direction, tpr_fpr  # noqa: E402
from ulasso.sampler import SimulationConfig, XiLaw, design_from_config, gen_population  # noqa: E402

if Path(ulasso.__file__).resolve().parent != SRC / "ulasso":
    raise ImportError(f"imported ulasso from {ulasso.__file__}, not from {SRC}")

POOL = 32
# The solver's own certificate: a converged fit has KKT residual <= 10 * tol.
KKT_MAX = 1e-6
# Coefficients and the scores derived from them may move by solver tolerance.
ATOL = 1e-5

SIZES = {
    "full": {
        "simulate_acceptance": {"p": 20, "n_pop": 100_000, "validation": 100_000,
                                "labels": 500, "q": (0.02, 0.04)},
        "fit_csv_100k": {"p": 20, "rho": 0.5, "n_pop": 100_000, "q": (0.02, 0.05)},
        "tailfit_p200": {"p": 200, "rho": 0.5, "n_pop": 100_000, "q": (0.02,)},
        "cohort_1m": {"p": 20, "rho": 0.0, "n_pop": 1_000_000, "q": (0.002, 0.004)},
    },
    "smoke": {
        "simulate_acceptance": {"p": 8, "n_pop": 2_000, "validation": 2_000,
                                "labels": 200, "q": (0.1, 0.2)},
        "fit_csv_100k": {"p": 8, "rho": 0.5, "n_pop": 2_000, "q": (0.1, 0.2)},
        "tailfit_p200": {"p": 30, "rho": 0.5, "n_pop": 4_000, "q": (0.1,)},
        "cohort_1m": {"p": 8, "rho": 0.0, "n_pop": 20_000, "q": (0.02, 0.04)},
    },
}

SIM_OUTPUTS = ("table_re.csv", "table_auc.csv", "table_selection.csv",
               "replications.csv", "summary.json")


def path_errors(trace) -> list:
    """Every fit on the penalty path must carry the solver's certificate."""
    return [
        f"path fit {i} (lam={f.lam!r}): converged={f.converged}, kkt={f.kkt_residual!r}"
        for i, f in enumerate(trace.fits)
        if not f.converged or f.kkt_residual > KKT_MAX
    ]


def fit_observation(prefix: str, fit, trace, subset) -> tuple[dict, dict]:
    exact = {
        f"{prefix}.q": subset.q,
        f"{prefix}.n_q": subset.n_q,
        f"{prefix}.selected_index": trace.selected_index,
        f"{prefix}.support": sorted(fit.support),
    }
    return exact, {f"{prefix}.beta": fit.beta_hat.tolist()}


def compare(obs: dict, ref: dict) -> list:
    """Exact fields must be equal; approximate ones equal within ATOL."""
    errors = []
    for kind in ("exact", "approx"):
        if set(obs[kind]) != set(ref[kind]):
            errors.append(f"{kind} fields differ: {sorted(set(obs[kind]) ^ set(ref[kind]))}")
    for key, want in ref["exact"].items():
        if key in obs["exact"] and obs["exact"][key] != want:
            errors.append(f"{key}: {obs['exact'][key]!r} != reference {want!r}")
    for key, want in ref["approx"].items():
        got = obs["approx"].get(key)
        if got is None or want is None:
            if got is not want:
                errors.append(f"{key}: {got!r} != reference {want!r}")
            continue
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=ATOL):
            diff = float(np.max(np.abs(got - want))) if got.shape == want.shape else "shape"
            errors.append(f"{key}: off the reference by {diff}")
    return errors


class Workload:
    """Inputs, one operation, and the observation checked against the reference."""

    name = ""
    why = ""

    def __init__(self, size: str, seed: int, workdir: Path):
        self.cfg = SIZES[size][self.name]
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def input_seed(self, k: int) -> int:
        """The pool seed of operation ``k``."""
        return self.seed % POOL

    def setup(self) -> None:
        """Build the inputs of the run's first operation."""

    def prepare(self, k: int) -> None:
        """Untimed: bring the inputs of operation ``k`` in place."""

    def run_op(self, k: int):
        """The timed operation; returns what ``observe`` inspects."""
        raise NotImplementedError

    def observe(self, k: int, out) -> tuple[dict, list]:
        """({"exact": ..., "approx": ...}, errors) of one operation's output."""
        raise NotImplementedError

    def close(self) -> None:
        """Undo what setup changed outside this object."""


class _CliWorkload(Workload):
    """Runs ``ulasso.cli.main`` and records the fits the harness makes.

    The harness's name for ``fit_ulasso`` is wrapped for the whole run so
    the path certificates, which no CLI output carries, can be checked.
    """

    def setup(self):
        if not hasattr(self, "_fit_ulasso"):
            self._fit_ulasso = harness.fit_ulasso
            self.fits = []

            def capture(*args, **kwargs):
                result = self._fit_ulasso(*args, **kwargs)
                self.fits.append(result)
                return result

            harness.fit_ulasso = capture

    def close(self):
        if hasattr(self, "_fit_ulasso"):
            harness.fit_ulasso = self._fit_ulasso
            del self._fit_ulasso

    def run_op(self, k):
        self.fits.clear()
        out = self.workdir / f"op{k}"
        code = cli.main(self.argv(k, out))
        return code, out


class SimulateAcceptance(_CliWorkload):
    name = "simulate_acceptance"
    why = ("the paper's replication at the acceptance config via the CLI; "
           "every layer but CSV parsing takes a share")

    def input_seed(self, k):
        return (self.seed + k) % POOL

    def argv(self, k, out):
        c = self.cfg
        argv = ["simulate", "--seed", str(self.input_seed(k)), "--reps", "1",
                "--out", str(out), "--p", str(c["p"]), "--rho", "0", "--xi-law", "normal",
                "--n-pop", str(c["n_pop"]), "--supervised-size", str(c["labels"]),
                "--validation-size", str(c["validation"]), "--workers", "1"]
        for q in c["q"]:
            argv += ["--q", repr(q)]
        return argv

    def observe(self, k, result):
        code, out = result
        if code != 0:
            return None, [f"cli exit code {code}"]
        missing = [name for name in SIM_OUTPUTS if not (out / name).is_file()]
        if missing:
            return None, [f"missing outputs: {missing}"]
        exact, approx, errors = {}, {}, []
        for i, (fit, trace, subset) in enumerate(self.fits):
            e, a = fit_observation(f"fit{i}", fit, trace, subset)
            exact.update(e)
            approx.update(a)
            errors += path_errors(trace)
        summary = json.loads((out / "summary.json").read_text())
        if summary["failures"]:
            errors.append(f"failed replications: {summary['failures']}")
        with (out / "replications.csv").open(newline="") as handle:
            for row in csv.DictReader(handle):
                est = row["estimator"]
                for col in ("tpr", "fpr", "n_q", "pi_q_hat"):
                    exact[f"{est}.{col}"] = float(row[col]) if row[col] else None
                for col in ("mse", "auc"):
                    approx[f"{est}.{col}"] = float(row[col]) if row[col] else None
        return {"exact": exact, "approx": approx}, errors


class FitCsv(_CliWorkload):
    name = "fit_csv_100k"
    why = ("the real-data path: cli fit on a labeled CSV; parsing dominates, "
           "the sampler and logistic baseline are bypassed")

    def setup(self):
        super().setup()
        c = self.cfg
        sim = SimulationConfig(p=c["p"], rho=c["rho"], xi_law=XiLaw.NORMAL_3_1,
                               n_pop=c["n_pop"], seed=self.input_seed(0))
        ds = gen_population(design_from_config(sim), c["n_pop"], self.input_seed(0))
        self.data = self.workdir / "cohort.csv"
        header = ",".join(["S", "Y"] + [f"X{j + 1}" for j in range(ds.p)])
        table = np.column_stack([ds.s, ds.y, ds.x])
        np.savetxt(self.data, table, fmt="%.17g", delimiter=",", header=header, comments="")

    def argv(self, k, out):
        argv = ["fit", "--data", str(self.data), "--s-col", "S", "--y-col", "Y",
                "--out", str(out.with_suffix(".json"))]
        for q in self.cfg["q"]:
            argv += ["--q", repr(q)]
        return argv

    def observe(self, k, result):
        code, out = result
        if code != 0:
            return None, [f"cli exit code {code}"]
        report_path = out.with_suffix(".json")
        if not report_path.is_file():
            return None, ["missing fit report"]
        exact, approx = {}, {}
        errors = [e for _, trace, _ in self.fits for e in path_errors(trace)]
        report = json.loads(report_path.read_text())
        exact["n_rows"] = report["n_rows"]
        approx["alpha_direction"] = report["alpha_direction"]
        for entry in report["q_fits"]:
            q = entry["q"]
            for key in ("n_q", "support", "delta_lo", "delta_hi", "pi_q_hat"):
                exact[f"q{q}.{key}"] = entry.get(key)
            exact[f"q{q}.selected_index"] = entry["bic_trace"]["selected_index"]
            approx[f"q{q}.lambda_selected"] = entry["lambda_selected"]
            approx[f"q{q}.beta_hat"] = entry["beta_hat"]
            approx[f"q{q}.auc"] = entry.get("auc")
        exact["combined.degenerate"] = report["combined"]["degenerate"]
        approx["combined.direction"] = report["combined"]["direction"]
        approx["combined.auc"] = report["combined"].get("auc")
        return {"exact": exact, "approx": approx}, errors


class _TailFit(Workload):
    """``fit_ulasso`` for each configured q on one pre-generated population."""

    def setup(self):
        self.loaded = None
        self.prepare(0)

    def prepare(self, k):
        seed = self.input_seed(k)
        if seed == self.loaded:
            return
        c = self.cfg
        self.ds = None
        sim = SimulationConfig(p=c["p"], rho=c["rho"], xi_law=XiLaw.NORMAL_3_1,
                               n_pop=c["n_pop"], seed=seed)
        self.spec = design_from_config(sim)
        self.ds = gen_population(self.spec, c["n_pop"], seed)
        self.loaded = seed

    def run_op(self, k):
        return [tuning.fit_ulasso(self.ds, q) for q in self.cfg["q"]]

    def observe(self, k, results):
        exact, approx, errors = {}, {}, []
        spec = self.spec
        truth = normalize_direction(spec.beta0, spec.sigma_mat, spec.beta0)
        support_true = set(np.nonzero(spec.beta0)[0])
        for fit, trace, subset in results:
            prefix = f"q{subset.q}"
            e, a = fit_observation(prefix, fit, trace, subset)
            exact.update(e)
            approx.update(a)
            tpr, fpr = tpr_fpr(fit.support, support_true, spec.p)
            exact[f"{prefix}.tpr"], exact[f"{prefix}.fpr"] = tpr, fpr
            direction = normalize_direction(fit.beta_hat, spec.sigma_mat, spec.beta0)
            approx[f"{prefix}.mse"] = mse_direction(direction, truth)
            errors += path_errors(trace)
        return {"exact": exact, "approx": approx}, errors


class TailfitP200(_TailFit):
    name = "tailfit_p200"
    why = ("p=200, rho=0.5 tail fit on 100k rows: the CD path is over 95% of an op, "
           "the p-bound regime for Gram kernels and strong rules")

    # CD sweeps vary with the input by several percent here, so each op
    # takes the next population: a run then averages over its inputs.
    def input_seed(self, k):
        return (self.seed + k) % POOL


class Cohort1M(_TailFit):
    name = "cohort_1m"
    why = ("1M-row cohort with small tails (q=0.002, 0.004): tail extraction is over "
           "half of an op")


WORKLOADS = {cls.name: cls for cls in (SimulateAcceptance, FitCsv, TailfitP200, Cohort1M)}
