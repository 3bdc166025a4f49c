"""CLI subcommands: happy paths, exit codes, and output files."""

import json
import os
import subprocess
import sys

import pytest

from ulasso.cli import main

CLI = [sys.executable, "-m", "ulasso.cli"]


def _run(args):
    return subprocess.run(CLI + args, capture_output=True, text=True)


class TestSimulate:
    def test_writes_tables_and_summary(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "simulate", "--seed", "3", "--reps", "2", "--out", str(out),
            "--p", "9", "--n-pop", "3000", "--q", "0.1",
            "--supervised-size", "200", "--validation-size", "2000",
        ])
        assert code == 0
        for name in ("table_re.csv", "table_auc.csv", "table_selection.csv",
                     "replications.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 3
        assert summary["failures"] == []
        estimators = {row["estimator"] for row in summary["rows"]}
        assert "ulasso_q0.1" in estimators

    def test_summary_aggregates_match_persisted_log(self, tmp_path):
        import csv

        out = tmp_path / "run"
        code = main([
            "simulate", "--seed", "9", "--reps", "3", "--out", str(out),
            "--p", "9", "--n-pop", "3000", "--q", "0.1",
            "--supervised-size", "200", "--validation-size", "2000",
        ])
        assert code == 0
        with (out / "replications.csv").open() as fh:
            records = list(csv.DictReader(fh))
        summary = json.loads((out / "summary.json").read_text())
        for row in summary["rows"]:
            recs = [r for r in records if r["estimator"] == row["estimator"]]
            for name in ("mse", "auc", "tpr", "fpr"):
                values = [float(r[name]) for r in recs if r[name] != ""]
                if values:
                    assert row[name] == pytest.approx(sum(values) / len(values), abs=1e-12)
                else:
                    assert row[name] is None

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p": 9, "n_pop": 3000, "q_values": [0.2],
            "supervised_sizes": [200], "validation_size": 2000,
        }))
        out = tmp_path / "run"
        code = main([
            "simulate", "--config", str(cfg), "--seed", "4", "--reps", "1",
            "--out", str(out), "--q", "0.1",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["q_values"] == [0.1]  # flag wins
        assert summary["config"]["p"] == 9

    def test_summary_echoes_penalty_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p": 9, "rho": 0, "n_pop": 3000, "q_values": [0.2], "supervised_sizes": [200],
            "validation_size": 2000,
        }))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--seed", "4", "--reps", "1",
                     "--out", str(out)])
        assert code == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["grid_points"] == 100
        assert config["grid_ratio"] == 1e-4
        assert config["rho"] == 0.0 and isinstance(config["rho"], float)

    @pytest.mark.parametrize("key", ["grid_points", "grid_ratio"])
    def test_penalty_grid_config_key_is_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 50 if key == "grid_points" else 1e-3}))
        code = main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--reps", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"config error: unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_json_tables_match_csv_tables(self, tmp_path):
        import csv

        from ulasso.harness import REPLICATION_COLUMNS, _format_cell

        args = ["simulate", "--seed", "5", "--reps", "2", "--p", "9", "--n-pop", "3000",
                "--q", "0.1", "--q", "0.2", "--supervised-size", "200",
                "--validation-size", "2000"]
        for fmt in ("csv", "json"):
            assert main(args + ["--out", str(tmp_path / fmt), "--format", fmt]) == 0
        for kind in ("re", "auc", "selection"):
            with (tmp_path / "csv" / f"table_{kind}.csv").open(newline="") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
            records = json.loads((tmp_path / "json" / f"table_{kind}.json").read_text())
            assert rows and len(records) == len(rows)
            for rec, row in zip(records, rows):
                assert set(rec) <= set(reader.fieldnames)
                assert {c: _format_cell(rec.get(c)) for c in reader.fieldnames} == row
        for fmt in ("csv", "json"):
            with (tmp_path / fmt / "replications.csv").open(newline="") as fh:
                assert tuple(next(csv.reader(fh))) == REPLICATION_COLUMNS

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        code = main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--reps", "1", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("loaded", [
        {"q_values": 0.02}, {"p": None}, 5,
        {"p": 9.9}, {"n_pop": 3000.7}, {"validation_size": 1000.5}, {"rho": "0.5"},
        {"supervised_sizes": [100.9]}, {"p": True}, {"q_values": "0.1"},
        {"q_values": [True]}, {"rho": False},
    ])
    def test_malformed_config_value_is_config_error(self, tmp_path, capsys, loaded):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        code = main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--reps", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "x").exists()

    def test_config_type_error_names_key_and_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_values": "0.1"}))
        code = main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--reps", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert ("config error: config key 'q_values' must be a list of float, got '0.1'"
                in capsys.readouterr().err)

    def test_one_class_validation_draw_leaves_auc_out(self, tmp_path):
        import csv

        out = tmp_path / "run"
        proc = _run(["simulate", "--seed", "2", "--reps", "1", "--p", "9", "--n-pop", "3000",
                     "--validation-size", "2", "--supervised-size", "100", "--q", "0.1",
                     "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "one-class validation draw" in proc.stderr
        with (out / "replications.csv").open() as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 5 and all(r["auc"] == "" for r in records)
        assert all(r["mse"] != "" for r in records)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == []
        assert all(row["auc"] is None for row in summary["rows"])

    def test_tail_larger_than_population_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--seed", "1", "--reps", "1", "--out", str(tmp_path / "x"),
                     "--p", "9", "--n-pop", "3001", "--q", "1.0"])
        assert code == 2
        assert "config error: tail size 2*ceil(N*q/2) = 3002 exceeds N = 3001" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_invalid_q_is_config_error(self, tmp_path):
        code = main(["simulate", "--seed", "1", "--reps", "1",
                     "--out", str(tmp_path / "x"), "--q", "1.5",
                     "--p", "9", "--n-pop", "3000"])
        assert code == 2

    @pytest.mark.parametrize("name", ["normal(3,1)", "Normal", "unifrom"])
    def test_unknown_xi_law_is_config_error(self, tmp_path, capsys, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi_law": name}))
        code = main(["simulate", "--config", str(cfg), "--seed", "1",
                     "--reps", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"config error: unknown xi_law {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_mandatory_flag_exits_2(self):
        proc = _run(["simulate", "--reps", "1", "--out", "/tmp/x"])
        assert proc.returncode == 2

    def test_aborted_experiment_exits_4(self, tmp_path, monkeypatch):
        import ulasso.cli as cli
        from ulasso.harness import ExperimentAbortedError

        def aborting(cfg, workers=1):
            raise ExperimentAbortedError("too many failures")

        monkeypatch.setattr(cli, "run_experiment", aborting)
        code = main(["simulate", "--seed", "1", "--reps", "1",
                     "--out", str(tmp_path / "x"), "--p", "9", "--n-pop", "3000"])
        assert code == 4


    @pytest.mark.parametrize("p", ["2", "4"])
    def test_full_true_support_is_config_error(self, tmp_path, capsys, p):
        code = main(["simulate", "--seed", "1", "--reps", "1", "--out", str(tmp_path / "x"),
                     "--p", p, "--n-pop", "3000", "--validation-size", "1000",
                     "--supervised-size", "100", "--q", "0.1"])
        assert code == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, workers):
        code = main(["simulate", "--seed", "1", "--reps", "1", "--out", str(tmp_path / "x"),
                     "--p", "9", "--n-pop", "3000", "--validation-size", "1000",
                     "--supervised-size", "100", "--q", "0.1", "--workers", workers])
        assert code == 2
        assert "config error: --workers must be at least 1" in capsys.readouterr().err

    def test_out_that_is_a_file_is_config_error_before_running(
            self, tmp_path, monkeypatch, capsys):
        import ulasso.cli as cli

        def must_not_run(cfg, workers=1):
            raise AssertionError("replications ran before the output check")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["simulate", "--seed", "1", "--reps", "1", "--out", str(out),
                     "--p", "9", "--n-pop", "3000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")


class TestFit:
    def test_report_written(self, tmp_path, synthetic_fit_csv):
        out = tmp_path / "report.json"
        code = main([
            "fit", "--data", str(synthetic_fit_csv), "--s-col", "S",
            "--y-col", "Y", "--q", "0.1", "--q", "0.2", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["q_fits"]) == 2
        assert "combined" in report

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"), "--s-col", "S",
                     "--q", "0.1", "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_bad_label_is_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("S,Y,X1\n1.0,0,0.1\n2.0,5,0.2\n")
        code = main(["fit", "--data", str(path), "--s-col", "S", "--y-col", "Y",
                     "--q", "0.5", "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_header_only_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("S,Y,X1\n")
        code = main(["fit", "--data", str(path), "--s-col", "S", "--y-col", "Y",
                     "--q", "0.5", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {path}: no data rows\n"

    @pytest.mark.parametrize("where", ["header", "data cell"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, where):
        # The data-cell byte sits past the first read-ahead chunk, so the
        # header parses and the streamed table pass meets it.
        rows = b"".join(b"%d.0,%d,0.%d\n" % (i, i % 2, i) for i in range(2000))
        if where == "header":
            raw = b"S,Y,X\xe9\n" + rows
        else:
            raw = b"S,Y,X1\n" + rows + b"1.0,0,caf\xe9\n"
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        code = main(["fit", "--data", str(path), "--s-col", "S", "--y-col", "Y",
                     "--q", "0.5", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"data error: {path}: not UTF-8 text")

    def test_solver_error_exits_3(self, tmp_path, synthetic_fit_csv, monkeypatch, capsys):
        import ulasso.cli as cli
        from ulasso.solver import SolverError

        def failing(ds, q_values):
            raise SolverError("no converged fit on the penalty grid")

        monkeypatch.setattr(cli, "fit_real", failing)
        code = main(["fit", "--data", str(synthetic_fit_csv), "--s-col", "S",
                     "--q", "0.1", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "solver error: no converged fit" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    def test_repeated_log1p_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        rows = "\n".join(f"{i}.0,{i % 7}.0,{i % 3}.0" for i in range(200))
        path.write_text("S,X1,X2\n" + rows + "\n")
        code = main(["fit", "--data", str(path), "--s-col", "S", "--log1p", "X1",
                     "--log1p", "X1", "--q", "0.2", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {path}: duplicate log1p columns: ['X1']\n"

    def test_single_class_labels_is_data_error(self, tmp_path, capsys, monkeypatch):
        import ulasso.cli as cli

        def must_not_run(ds, q_values):
            raise AssertionError("fit ran on single-class labels")

        monkeypatch.setattr(cli, "fit_real", must_not_run)
        path = tmp_path / "d.csv"
        rows = "\n".join(f"{i}.0,0,{i % 7}.0,{i % 3}.0" for i in range(400))
        path.write_text("S,Y,X1,X2\n" + rows + "\n")
        code = main(["fit", "--data", str(path), "--s-col", "S", "--y-col", "Y",
                     "--q", "0.1", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: label column 'Y' holds only one class\n")

    def test_degenerate_tail_design_is_solver_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        rows = "\n".join(f"{i}.0,1.0,2.0" for i in range(200))
        path.write_text("S,X1,X2\n" + rows + "\n")
        code = main(["fit", "--data", str(path), "--s-col", "S", "--q", "0.1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith("solver error: degenerate design")
        assert not (tmp_path / "r.json").exists()

    def test_unwritable_out_is_config_error(self, tmp_path, synthetic_fit_csv, capsys,
                                            monkeypatch):
        import ulasso.cli as cli

        def must_not_run(ds, q_values):
            raise AssertionError("fit ran before the output check")

        monkeypatch.setattr(cli, "fit_real", must_not_run)
        code = main(["fit", "--data", str(synthetic_fit_csv), "--s-col", "S", "--q", "0.1",
                     "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("bad_q", ["1.5", "0", "-0.1", "nan"])
    def test_bad_q_is_config_error_before_load(self, tmp_path, synthetic_fit_csv, capsys,
                                               monkeypatch, bad_q):
        import ulasso.cli as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("the CSV was loaded before the q check")

        monkeypatch.setattr(cli, "load_csv", must_not_run)
        code = main(["fit", "--data", str(synthetic_fit_csv), "--s-col", "S",
                     "--q", "0.02", "--q", bad_q, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == "config error: q must lie in (0, 1]\n"


class TestOracle:
    def test_prints_report(self, capsys):
        code = main(["oracle", "--p", "9", "--seed", "2", "--q", "0.02", "--q", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"0.02", "0.1"}
        assert payload["0.02"]["xi"]["xi_star_q"] > 0.0

    def test_bad_design_is_config_error(self, capsys):
        code = main(["oracle", "--p", "1", "--seed", "2", "--q", "0.1"])
        assert code == 2

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        code = main(["oracle", "--p", "9", "--seed", "2", "--q", "0.1",
                     "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.out == ""


@pytest.fixture(scope="module")
def synthetic_fit_csv(tmp_path_factory):
    import numpy as np

    from ulasso.harness import write_csv
    from ulasso.model import Dataset

    rng = np.random.default_rng(8)
    x = rng.standard_normal((2000, 4))
    s = x @ np.array([1.0, 0.5, 0.0, 0.0]) + rng.standard_normal(2000)
    y = (s + rng.logistic(size=2000) > 0).astype(float)
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    write_csv(Dataset(x=x, s=s, y=y), path)
    return path


def test_fit_degenerate_tails_is_data_error(tmp_path):
    path = tmp_path / "ties.csv"
    rows = "\n".join("0.0," + str(i * 0.1) for i in range(40))
    path.write_text("S,X1\n" + rows + "\n")
    code = main(["fit", "--data", str(path), "--s-col", "S",
                 "--q", "0.5", "--out", str(tmp_path / "r.json")])
    assert code == 3


@pytest.mark.parametrize("preset, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
])
def test_import_pins_unset_blas_threads_to_one(preset, expected):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names} | preset
    probe = f"import os, ulasso; print([os.environ[k] for k in {names!r}])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{expected!r}\n"


def test_import_loads_neither_scipy_stats_nor_special():
    """``fit`` and ``simulate`` need only scipy.linalg; scipy.special is loaded by
    ``oracle`` alone, and the AUC is counted without scipy.stats."""
    probe = "import sys, ulasso.cli; print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
