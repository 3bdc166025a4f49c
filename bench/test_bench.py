"""Self-tests of the benchmark, on its tiny ``smoke`` inputs.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _result_line(capsys, argv) -> tuple[dict, str]:
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(capsys, workload, trace):
    result, text = _result_line(capsys, ["--workload", workload, "--seed", "5",
                                         "--seconds", "0", "--trace", str(trace),
                                         "--size", "smoke"])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    lines = text.splitlines()
    for meta in declared:
        assert result["metrics"][meta["name"]]["unit"] == meta["unit"]
        assert any(line.split()[:1] == [meta["name"]] and line.split()[-1] == meta["unit"]
                   for line in lines), meta["name"]
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)


def _corrupt_simulate(out):
    code, out_dir = out
    (out_dir / "table_auc.csv").unlink()
    return out


def _corrupt_fit_report(out):
    code, out_dir = out
    path = out_dir.with_suffix(".json")
    report = json.loads(path.read_text())
    report["q_fits"][0]["beta_hat"][0] += 1e-3
    path.write_text(json.dumps(report))
    return out


def _corrupt_tail_fit(results):
    fit, trace, subset = results[0]
    return [(dataclasses.replace(fit, beta_hat=fit.beta_hat * 1.01), trace, subset)] + results[1:]


@pytest.mark.parametrize("workload, corrupt", [
    ("simulate_acceptance", _corrupt_simulate),
    ("fit_csv_100k", _corrupt_fit_report),
    ("cohort_1m", _corrupt_tail_fit),
])
def test_corrupted_output_counts_as_failure(monkeypatch, workload, corrupt):
    cls = workloads.WORKLOADS[workload]
    original = cls.run_op
    monkeypatch.setattr(cls, "run_op", lambda self, k: corrupt(original(self, k)))
    record = run.run_workload(workload, seed=2, seconds=0, trace=False, size="smoke")
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert not record["correct"]


def test_raising_op_counts_as_failure(monkeypatch):
    cls = workloads.WORKLOADS["tailfit_p200"]
    original = cls.run_op

    def boom(self, k):
        if self.workdir.name == "warmup":
            return original(self, k)
        raise RuntimeError("injected")

    monkeypatch.setattr(cls, "run_op", boom)
    record = run.run_workload("tailfit_p200", seed=2, seconds=0, trace=False, size="smoke")
    assert record["failed"] == record["attempted"] >= 1


def test_counters_repeat_at_fixed_seed():
    counters = ("solver.cd_sweeps", "solver.logistic_sweeps", "extremes.rows_scanned")
    seen = []
    for _ in range(2):
        record = run.run_workload("simulate_acceptance", seed=7, seconds=0, trace=True,
                                  size="smoke")
        assert record["correct"]
        seen.append({name: record["metrics"][name]["value"] for name in counters})
    assert seen[0] == seen[1]
    assert all(value > 0 for value in seen[0].values())


def _write_runs(path, workload, values_by_metric):
    n = len(next(iter(values_by_metric.values())))
    with open(path, "w") as handle:
        for i in range(n):
            metrics = {name: {"value": values[i], "unit": "x"}
                       for name, values in values_by_metric.items()}
            handle.write(json.dumps({"workload": workload, "trace": 0, "seed": i,
                                     "metrics": metrics}) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    base = {m["name"]: steady for m in BENCHMARK["end_to_end"]}
    new = dict(base)
    new["op_s_p50"] = [2 * v for v in steady]  # twice as slow: a regression
    new["ops_per_s"] = [0.5, 1.5, 0.7, 1.3, 1.0]  # spread wider than the bound
    _write_runs(tmp_path / "base.jsonl", "w", base)
    _write_runs(tmp_path / "new.jsonl", "w", new)
    assert run.compare_sets(tmp_path / "base.jsonl", tmp_path / "new.jsonl") == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "REGRESSION" in rows["op_s_p50"]
    assert "unresolved" in rows["ops_per_s"]
    assert "within bound" in rows["setup_s"]
