"""Replication engine, CSV ingestion, real-data workflow, and table emission."""

import csv
import json
import math

import numpy as np
import pytest

from ulasso.harness import (
    CsvFormatError,
    ExperimentAbortedError,
    ExperimentConfig,
    ResultRow,
    emit_tables,
    fit_real,
    load_csv,
    run_experiment,
    write_csv,
)
from ulasso.model import Dataset
from ulasso.sampler import SimulationConfig, XiLaw, design_from_config, gen_population
from ulasso.solver import SolverError
from ulasso.tuning import GridParams


def _tiny_config(seed=11, reps=3):
    sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=4000, seed=seed)
    return ExperimentConfig(
        sim=sim,
        q_values=(0.1,),
        supervised_sizes=(300,),
        n_replications=reps,
        validation_size=4000,
        seed=seed,
        grid=GridParams(n_points=40, ratio=1e-3),
    )


class TestRunExperiment:
    def test_deterministic_across_calls(self):
        cfg = _tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.replications == b.replications
        assert [r.estimator for r in a.rows] == [r.estimator for r in b.rows]
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    def test_worker_count_invariance(self):
        cfg = _tiny_config(seed=13)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial.replications == parallel.replications
        assert serial.rows == parallel.rows

    def test_aggregates_match_replication_log(self):
        cfg = _tiny_config(seed=17, reps=4)
        result = run_experiment(cfg)
        for row in result.rows:
            recs = [r for r in result.replications if r["estimator"] == row.estimator]
            for name in ("mse", "auc", "tpr", "fpr", "n_q", "pi_q_hat"):
                values = [r[name] for r in recs if r[name] is not None]
                agg = getattr(row, name)
                if not values:
                    assert agg is None
                else:
                    assert agg == pytest.approx(float(np.mean(values)), abs=1e-12)

    def test_expected_estimators_present(self):
        result = run_experiment(_tiny_config())
        names = {row.estimator for row in result.rows}
        assert names == {
            "ulasso_q0.1", "ulasso_combined", "slasso_n300",
            "alpha0_benchmark", "beta0_oracle",
        }
        ulasso_row = next(r for r in result.rows if r.estimator == "ulasso_q0.1")
        assert set(ulasso_row.re_vs) == names - {"ulasso_q0.1"}

    def test_abort_on_failures(self, monkeypatch):
        import ulasso.harness as harness

        def broken(cfg, rep):
            raise SolverError("boom")

        monkeypatch.setattr(harness, "_replicate", broken)
        with pytest.raises(ExperimentAbortedError):
            run_experiment(_tiny_config())

    def test_programming_error_propagates(self, monkeypatch):
        import ulasso.harness as harness

        def buggy(cfg, rep):
            raise TypeError("bug")

        monkeypatch.setattr(harness, "_replicate", buggy)
        with pytest.raises(TypeError, match="bug"):
            run_experiment(_tiny_config())


class TestResultRow:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ResultRow(setting="I", rho=0.0, q=0.1, p=5, estimator="x", mse=math.nan)

    def test_rejects_bad_auc(self):
        with pytest.raises(ValueError, match="auc"):
            ResultRow(setting="I", rho=0.0, q=0.1, p=5, estimator="x", mse=0.1, auc=1.2)


class TestCsvRoundTrip:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X1,X2\n1.5,0.1,0.2\n-0.5,0.3,0.4\n2.5,0.5,0.6\n")
        ds = load_csv(path, "S")
        assert ds.n_rows == 3 and ds.p == 2
        assert ds.y is None
        assert np.allclose(ds.s, [1.5, -0.5, 2.5])
        assert np.allclose(ds.x[:, 0], [0.1, 0.3, 0.5])

    def test_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,Y,X1\n1.0,0,0.1\n2.0,1,0.2\n")
        ds = load_csv(path, "S", y_column="Y")
        assert np.array_equal(ds.y, [0.0, 1.0])

    def test_bad_label_rejected_with_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,Y,X1\n1.0,0,0.1\n2.0,2,0.2\n")
        with pytest.raises(CsvFormatError, match="row 3.*'Y'"):
            load_csv(path, "S", y_column="Y")

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X1\n1.0,0.1\nf,0.2\n")
        with pytest.raises(CsvFormatError, match="row 3.*'S'"):
            load_csv(path, "S")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n1,2\n")
        with pytest.raises(CsvFormatError, match="missing surrogate"):
            load_csv(path, "S")

    def test_nonfinite_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X1\n1.0,0.1\n2.0,nan\n")
        with pytest.raises(CsvFormatError, match="row 3.*'X1'"):
            load_csv(path, "S")

    def test_underscore_separator_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X1\n1_000,0.1\n2.0,0.2\n")
        with pytest.raises(CsvFormatError, match="row 2.*'S'"):
            load_csv(path, "S")

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X1,X1\n1.0,0.1,0.2\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_csv(path, "S")

    def test_round_trip_preserves_values(self, tmp_path, rng):
        ds = Dataset(
            x=rng.standard_normal((20, 3)) * 17.3,
            s=rng.standard_normal(20),
            y=rng.integers(0, 2, size=20).astype(float),
        )
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        back = load_csv(path, "S", y_column="Y")
        assert np.abs(back.x - ds.x).max() <= 1e-12
        assert np.abs(back.s - ds.s).max() <= 1e-12
        assert np.array_equal(back.y, ds.y)

    def test_log1p_and_standardize(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,C,X\n1.0,0.0,2.0\n2.0,3.0,4.0\n3.0,7.0,6.0\n")
        ds = load_csv(path, "S", log1p_columns=("C",), standardize=True)
        counts = np.log1p([0.0, 3.0, 7.0])
        expected = counts / counts.std()
        assert np.allclose(ds.x[:, 0], expected)
        assert ds.x[:, 1].std() == pytest.approx(1.0)

    def test_log1p_unknown_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X\n1.0,2.0\n2.0,3.0\n")
        with pytest.raises(CsvFormatError, match="log1p"):
            load_csv(path, "S", log1p_columns=("Q",))


@pytest.fixture(scope="module")
def synthetic_csv(tmp_path_factory):
    sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=30_000, seed=5)
    spec = design_from_config(sim)
    ds = gen_population(spec, sim.n_pop, 5)
    path = tmp_path_factory.mktemp("real") / "synthetic.csv"
    write_csv(ds, path)
    return path, spec


class TestFitReal:
    def test_recovers_support_like_simulation(self, synthetic_csv):
        path, spec = synthetic_csv
        ds = load_csv(path, "S", y_column="Y")
        report = fit_real(ds, [0.05])
        support = set(report["q_fits"][0]["support"])
        truth = set(np.nonzero(spec.beta0)[0])
        assert truth <= support
        assert len(support - truth) <= 2

    def test_duplicate_q_combined_equals_single(self, synthetic_csv):
        path, _ = synthetic_csv
        ds = load_csv(path, "S", y_column="Y")
        report = fit_real(ds, [0.05, 0.05])
        combined = np.asarray(report["combined"]["direction"])
        first = np.asarray(report["q_fits"][0]["beta_hat"])
        first /= np.linalg.norm(first)
        assert np.abs(np.abs(combined) - np.abs(first)).max() <= 1e-12

    def test_unlabeled_report_omits_label_metrics(self, synthetic_csv):
        path, _ = synthetic_csv
        ds = load_csv(path, "S")
        report = fit_real(ds, [0.05])
        entry = report["q_fits"][0]
        assert "pi_q_hat" not in entry and "auc" not in entry

    def test_labeled_report_schema(self, synthetic_csv):
        path, _ = synthetic_csv
        ds = load_csv(path, "S", y_column="Y")
        report = fit_real(ds, [0.05, 0.1])
        for entry in report["q_fits"]:
            for key in ("q", "beta_hat", "lambda_selected", "support", "n_q",
                        "delta_lo", "delta_hi", "bic_trace", "pi_q_hat", "auc"):
                assert key in entry
        assert "combined" in report and "alpha_direction" in report
        json.dumps(report)  # fully serializable


class TestEmitTables:
    def _rows(self):
        return [
            ResultRow(setting="I", rho=0.0, q=0.1, p=5, estimator="ulasso_q0.1",
                      mse=0.1, re_vs={"slasso_n300": 2.0}, auc=0.9, tpr=1.0, fpr=0.0,
                      n_q=400.0, pi_q_hat=0.01),
            ResultRow(setting="I", rho=0.0, q=None, p=5, estimator="slasso_n300",
                      mse=0.2, auc=0.88, tpr=0.9, fpr=0.1),
        ]

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_tables([], "csv", tmp_path)

    def test_csv_headers(self, tmp_path):
        paths = emit_tables(self._rows(), "csv", tmp_path)
        by_name = {p.name: p for p in paths}
        with by_name["table_re.csv"].open() as fh:
            header = next(csv.reader(fh))
        assert header == ["setting", "rho", "p", "q", "estimator", "reference", "re"]
        with by_name["table_auc.csv"].open() as fh:
            header = next(csv.reader(fh))
        assert header == ["setting", "rho", "p", "q", "estimator", "auc"]

    def test_json_round_trip(self, tmp_path):
        paths = emit_tables(self._rows(), "json", tmp_path)
        re_path = next(p for p in paths if p.name == "table_re.json")
        records = json.loads(re_path.read_text())
        assert records == [{
            "setting": "I", "rho": 0.0, "p": 5, "q": 0.1,
            "estimator": "ulasso_q0.1", "reference": "slasso_n300", "re": 2.0,
        }]

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_tables(self._rows(), "parquet", tmp_path)
