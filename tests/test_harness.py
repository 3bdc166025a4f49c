"""Replication engine, CSV ingestion, real-data workflow, and table emission."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulasso.harness import (
    REPLICATION_COLUMNS,
    CsvFormatError,
    ExperimentAbortedError,
    ExperimentConfig,
    emit_tables,
    fit_real,
    load_csv,
    run_experiment,
    write_csv,
)
from ulasso.harness import _parse_rows
from ulasso.model import Dataset
from ulasso.sampler import SimulationConfig, XiLaw, design_from_config, gen_population
from ulasso.solver import SolverError


def _tiny_config(seed=11, reps=3):
    sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=4000, seed=seed)
    return ExperimentConfig(
        sim=sim,
        q_values=(0.1,),
        supervised_sizes=(300,),
        n_replications=reps,
        validation_size=4000,
    )


class TestExperimentConfig:
    @pytest.mark.parametrize("p", [2, 4])
    def test_full_true_support_rejected(self, p):
        sim = SimulationConfig(p=p, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=4000, seed=1)
        with pytest.raises(ValueError, match="true support"):
            ExperimentConfig(sim=sim, q_values=(0.1,), supervised_sizes=(300,),
                             n_replications=1, validation_size=4000)


    @pytest.mark.parametrize("sizes", [(300.5,), (100.9, 200)])
    def test_non_integral_supervised_size_rejected(self, sizes):
        sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=4000, seed=1)
        with pytest.raises(ValueError, match="supervised sizes must be integers"):
            ExperimentConfig(sim=sim, q_values=(0.1,), supervised_sizes=sizes,
                             n_replications=1, validation_size=4000)

    @pytest.mark.parametrize("q_values", [(0.1234561, 0.1234564), (0.1, 0.1)])
    def test_q_values_sharing_a_label_rejected(self, q_values):
        sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=4000, seed=1)
        with pytest.raises(ValueError, match="distinct estimator labels"):
            ExperimentConfig(sim=sim, q_values=q_values, supervised_sizes=(300,),
                             n_replications=1, validation_size=4000)

    def test_tail_larger_than_population_rejected(self):
        sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=3001, seed=1)
        with pytest.raises(ValueError, match="exceeds N = 3001"):
            ExperimentConfig(sim=sim, q_values=(0.5, 1.0), supervised_sizes=(300,),
                             n_replications=1, validation_size=4000)


class TestRunExperiment:
    def test_deterministic_across_calls(self):
        cfg = _tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.replications == b.replications
        assert [r["estimator"] for r in a.rows] == [r["estimator"] for r in b.rows]
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_experiment(_tiny_config(), workers=workers)

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
            recs = [r for r in result.replications if r["estimator"] == row["estimator"]]
            for name in ("mse", "auc", "tpr", "fpr", "n_q", "pi_q_hat"):
                values = [r[name] for r in recs if r[name] is not None]
                agg = row[name]
                if not values:
                    assert agg is None
                else:
                    assert agg == pytest.approx(float(np.mean(values)), abs=1e-12)

    def test_expected_estimators_present(self):
        result = run_experiment(_tiny_config())
        names = {row["estimator"] for row in result.rows}
        assert names == {
            "ulasso_q0.1", "ulasso_combined", "slasso_n300",
            "alpha0_benchmark", "beta0_oracle",
        }
        ulasso_row = next(r for r in result.rows if r["estimator"] == "ulasso_q0.1")
        assert set(ulasso_row["re_vs"]) == names - {"ulasso_q0.1"}

    def test_records_hold_exactly_the_replication_columns(self):
        # rep 0 has a two-class validation draw and rep 1 a one-class one; q=0.0005 keeps
        # n_q = 2 rows, whose fit selects nothing, so its direction is degenerate
        sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=3000, seed=1)
        cfg = ExperimentConfig(sim=sim, q_values=(0.0005, 0.1), supervised_sizes=(100,),
                               n_replications=2, validation_size=2)
        records = run_experiment(cfg).replications
        assert len(records) == 12
        assert all(tuple(rec) == REPLICATION_COLUMNS for rec in records)
        by_key = {(rec["rep"], rec["estimator"]): rec for rec in records}
        assert by_key[0, "ulasso_q0.0005"]["n_q"] == 2
        assert by_key[0, "ulasso_q0.0005"]["auc"] is None
        assert by_key[0, "ulasso_q0.1"]["auc"] is not None
        assert all(by_key[1, name]["auc"] is None for name in
                   ("ulasso_q0.1", "ulasso_combined", "slasso_n100", "beta0_oracle"))
        for (rep, name), rec in by_key.items():
            tail = name in ("ulasso_q0.0005", "ulasso_q0.1")
            assert (rec["q"] is None, rec["n_q"] is None, rec["pi_q_hat"] is None) == (
                (not tail,) * 3)
            assert (rec["tpr"] is None) == (rec["fpr"] is None) == (
                name in ("ulasso_combined", "alpha0_benchmark", "beta0_oracle"))
            assert rec["mse"] is not None
        assert by_key[0, "beta0_oracle"]["mse"] == 0.0

    def test_degenerate_direction_warning_names_replication_and_estimator(self, caplog):
        sim = SimulationConfig(p=9, rho=0.0, xi_law=XiLaw.NORMAL_3_1, n_pop=3000, seed=1)
        cfg = ExperimentConfig(sim=sim, q_values=(0.0005,), supervised_sizes=(100,),
                               n_replications=1, validation_size=1000)
        with caplog.at_level("WARNING", logger="ulasso.harness"):
            run_experiment(cfg)
        assert caplog.messages == [
            "replication 0: degenerate ulasso_q0.0005 direction left out of AUC",
            "replication 0: degenerate ulasso_combined direction left out of AUC",
        ]

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

    def test_log1p_repeated_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X\n1.0,2.0\n2.0,3.0\n")
        with pytest.raises(CsvFormatError, match=r"duplicate log1p columns: \['X'\]"):
            load_csv(path, "S", log1p_columns=("X", "X"))

    def test_log1p_unknown_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,X\n1.0,2.0\n2.0,3.0\n")
        with pytest.raises(CsvFormatError, match="log1p"):
            load_csv(path, "S", log1p_columns=("Q",))


_CSV_HEADER = "S,Y,X1,X2"
_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1.5 ", "+1", ".5", "7.", "1E-5", "-0"]),
)
_LABEL_CELLS = st.sampled_from(["0", "1", "0.0", "1.0", "-0", "1e0", "+1"])
_CSV_ROWS = st.lists(
    st.tuples(_PLAIN_CELLS, _LABEL_CELLS, _PLAIN_CELLS, _PLAIN_CELLS).map(list), max_size=5)
# Each case is spliced once into an otherwise plain file: a cell replaces one
# cell, a line is inserted between the data lines.
_CSV_EDGE_CELLS = {
    "nan": "nan", "inf": "inf", "neg_infinity": "-Infinity", "overflow": "1e400",
    "underscore": "1_0", "hex": "0x10", "quoted": '"1.5"', "arabic_digit": "\u0661",
    "bad_exponent": "1.5e", "empty": "", "two": "2", "half": "0.5", "hash": "#1",
    "file_separator": "1\x1c", "unit_separator": "\x1f2", "ideographic_space": "1\u3000",
    "nul": "1\x00",
}
_CSV_EDGE_LINES = {
    "blank": "", "space": " ", "tab": "\t", "comment": "#1,0,2,3",
    "short_row": "1,0,2", "long_row": "1,0,2,3,4",
}
_CSV_EDGE_CASES = (
    [pytest.param(None, id="plain")]
    + [pytest.param(("cell", v), id=f"cell-{k}") for k, v in _CSV_EDGE_CELLS.items()]
    + [pytest.param(("line", v), id=f"line-{k}") for k, v in _CSV_EDGE_LINES.items()]
)


def _parse_rows_directly(path, y_column):
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return _parse_rows(path, reader, header, y_column)


class TestCsvFastPath:
    @pytest.mark.parametrize("edge", _CSV_EDGE_CASES)
    @given(data=st.data(), labeled=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_row_parser(self, tmp_path_factory, edge, data, labeled):
        rows = data.draw(_CSV_ROWS)
        lines = [",".join(row) for row in rows]
        if edge is not None and (edge[0] == "line" or lines):
            kind, text = edge
            at = data.draw(st.integers(0, len(lines) - (kind == "cell")))
            if kind == "cell":
                cells = lines[at].split(",")
                cells[data.draw(st.integers(0, 3))] = text
                lines[at] = ",".join(cells)
            else:
                lines.insert(at, text)
        eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = eol.join([_CSV_HEADER] + lines) + (eol if data.draw(st.booleans()) else "")
        path = tmp_path_factory.mktemp("fast") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        y_column = "Y" if labeled else None
        try:
            table = _parse_rows_directly(path, y_column)
        except CsvFormatError as exc:
            expected_error = str(exc)
        else:
            expected_error = None if table.shape[0] else f"{path}: no data rows"
        if expected_error is not None:
            with pytest.raises(CsvFormatError) as info:
                load_csv(path, "S", y_column=y_column)
            assert str(info.value) == expected_error
            return
        ds = load_csv(path, "S", y_column=y_column)
        x_cols = [2, 3] if labeled else [1, 2, 3]
        assert ds.x.flags.c_contiguous
        assert ds.x.tobytes() == np.ascontiguousarray(table[:, x_cols]).tobytes()
        assert ds.s.tobytes() == table[:, 0].tobytes()
        if labeled:
            assert ds.y.tobytes() == table[:, 1].tobytes()
        else:
            assert ds.y is None

    def test_plain_file_skips_row_parser(self, tmp_path, monkeypatch):
        import ulasso.harness as harness

        def unused(*args):
            raise AssertionError("row parser called on a plain file")

        monkeypatch.setattr(harness, "_parse_rows", unused)
        path = tmp_path / "d.csv"
        path.write_text("S,Y,X1\r\n1.5,0,-2e-3\r\n2.5,1,7\r\n")
        ds = load_csv(path, "S", y_column="Y")
        assert ds.s.tolist() == [1.5, 2.5] and ds.y.tolist() == [0.0, 1.0]
        assert ds.x.tolist() == [[-2e-3], [7.0]]


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
            {"setting": "I", "rho": 0.0, "q": 0.1, "p": 5, "estimator": "ulasso_q0.1",
             "mse": 0.1, "re_vs": {"slasso_n300": 2.0}, "auc": 0.9, "tpr": 1.0, "fpr": 0.0,
             "n_q": 400.0, "pi_q_hat": 0.01},
            {"setting": "I", "rho": 0.0, "q": None, "p": 5, "estimator": "slasso_n300",
             "mse": 0.2, "re_vs": {}, "auc": 0.88, "tpr": 0.9, "fpr": 0.1,
             "n_q": None, "pi_q_hat": None},
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
