"""ulasso benchmark runner.

One run:   python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
All four:  python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
Compare:   python3 bench/run.py --compare BASE.jsonl NEW.jsonl
Reference: python3 bench/run.py --record-reference

A run sets its workload up SETUP_REPEATS times, then runs operations one
after another until their summed time reaches ``--seconds`` (input
preparation and checks between them are not counted). It checks each output
against the reference recorded from the seed commit, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. A traced
run alternates traced and untraced operations, so it also reports the
tracing overhead, and writes its spans to ``.bench_out/``. ``--record FILE``
appends the run, with its environment, to a JSON-lines file that
``--compare`` reads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the runs measure the single-process path on a shared box,
# and BLAS threads competing for its two cores would only add noise.
BLAS_THREADS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS_VARS:
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 3


def _load_program():
    """Import the workloads, and with them ulasso from this checkout's src/."""
    try:
        import workloads  # puts this checkout's src/ on sys.path first
        import spans
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads, spans


def environment(seed) -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS_VARS},
        "git_commit": "unknown",
        "src_sha256": "",
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _check(work, k, out, reference, compare) -> list:
    """Errors in op ``k``'s output; a check that raises is an error too."""
    try:
        obs, errors = work.observe(k, out)
        ref = reference.get(str(work.input_seed(k)))
        if ref is None:
            errors.append(f"no reference for input seed {work.input_seed(k)}")
        elif obs is not None:
            errors += compare(obs, ref)
    except Exception:  # noqa: BLE001 - unreadable output is a failed op
        errors = [traceback.format_exc()]
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, run operations for ``seconds`` of op time, check each; return the run record."""
    workloads, spans = _load_program()
    import_s = time.perf_counter() - T_START
    reference = json.loads(REFERENCE.read_text())["entries"][size][name]
    workdir = OUT_DIR / f"{name}-{os.getpid()}"
    work = workloads.WORKLOADS[name](size, seed, workdir)
    rec = spans.Recorder() if trace else None
    try:
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            work.setup()
            warm = workloads.WORKLOADS[name]("smoke", seed, workdir / "warmup")
            warm.setup()
            warm.run_op(0)
            warm.close()
            setup_runs.append(time.perf_counter() - t0)

        op_s, traced_s, untraced_s, failures = [], [], [], []
        k = 0
        while k < (2 if trace else 1) or sum(op_s) < seconds or (trace and k % 2):
            # A traced run gives each input to a traced op, then an untraced
            # one, so the overhead compares like with like.
            traced = trace and k % 2 == 0
            i = k // 2 if trace else k
            errors = []
            work.prepare(i)
            with spans.instrument(rec) if traced else contextlib.nullcontext():
                if traced:
                    rec.begin_op(k)
                t0 = time.perf_counter()
                try:
                    out = work.run_op(i)
                except Exception:  # noqa: BLE001 - a raising op is a failed op
                    errors.append(traceback.format_exc())
                t1 = time.perf_counter()
                if traced:
                    rec.end_op()
            if not errors:
                errors = _check(work, i, out, reference, workloads.compare)
            if errors:
                failures.append(k)
                print(f"bench: {name} op {k} (input seed {work.input_seed(i)}) failed:",
                      *errors[:10], sep="\n  ", file=sys.stderr)
            op_s.append(t1 - t0)
            (traced_s if traced else untraced_s).append(t1 - t0)
            k += 1
    finally:
        work.close()
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = import_s + statistics.median(setup_runs)
    attempted, failed = len(op_s), len(failures)
    if trace:
        metrics = spans.layer_metrics(rec, traced_s, untraced_s)
        self_times = spans.self_time_means(rec)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-{size}-seed{seed}.jsonl"
        rec.write(spans_path)
    else:
        metrics = {
            "ops_per_s": _metric((attempted - failed) / sum(op_s), "1/s"),
            "op_s_p50": _metric(statistics.median(op_s), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
        }
        spans_path = None
        self_times = None
    return {
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "op_s": op_s,
        "traced_op_s": traced_s,
        "untraced_op_s": untraced_s,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "peak_rss_mib": peak_rss_mib,
        "spans": str(spans_path) if spans_path else None,
        "self_time_means_s": self_times,
    }


def print_report(run: dict, out=None) -> None:
    """Human-readable lines; the last line printed is the result JSON."""
    out = out or sys.stdout
    print("# environment " + json.dumps(run["environment"], sort_keys=True), file=out)
    print(f"{run['workload']}  size={run['size']}  seed={run['seed']}  trace={run['trace']}  "
          f"ops={run['attempted']}", file=out)
    for name, m in run["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}", file=out)
    print(f"  {'failed_frac':36s} {run['failed_frac']:.6g} 1  "
          f"({run['failed']} of {run['attempted']} ops)", file=out)
    if run["trace"]:
        print(f"  traced ops {len(run['traced_op_s'])}, untraced ops "
              f"{len(run['untraced_op_s'])}; spans in {run['spans']}", file=out)
        means = dict(run["self_time_means_s"])
        op_mean = means.pop("trace.op_s")
        parts = ", ".join(f"{key} {value:.4g}" for key, value in means.items())
        print(f"  self time per traced op, mean s: {parts}; sum {sum(means.values()):.6g} "
              f"= op {op_mean:.6g}", file=out)
    else:
        print(f"  op_s_p50 over {run['attempted']} ops; setup_s = import "
              f"{run['import_s']:.4f} s + median of {len(run['setup_runs_s'])} set-ups "
              f"{[round(s, 4) for s in run['setup_runs_s']]}", file=out)
        if run["workload"] == "fit_csv_100k" and run["size"] == "full":
            rows = run["metrics"]["ops_per_s"]["value"] * 100_000
            print(f"  {'rows_per_s':36s} {rows:.6g} rows/s", file=out)
    result = {key: run[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), file=out)


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    workloads, _ = _load_program()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.record:
            cmd += ["--record", str(args.record)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare_sets(base_path: Path, new_path: Path, out=None) -> int:
    """Per workload and end-to-end metric: medians, quartiles, verdict against
    the bound. A spread (IQR over median) wider than the bound on either side
    is "unresolved" unless every new run beats every base run."""
    out = out or sys.stdout
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                run = json.loads(line)
                if not run["trace"]:
                    runs.setdefault(run["workload"], []).append(run)
        return runs

    base, new = load(base_path), load(new_path)
    header = (f"{'workload':20s} {'metric':13s} {'base p50 [q1, q3]':>30s} "
              f"{'new p50 [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    print(header, file=out)
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        for name, meta in bounds.items():
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            bq1, bmed, bq3 = _quartiles(b)
            nq1, nmed, nq3 = _quartiles(n)
            sign = 1.0 if meta["better"] == "lower" else -1.0
            worse_by = sign * (nmed - bmed) / bmed
            spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
            all_better = (max(n) < min(b)) if sign > 0 else (min(n) > max(b))
            if spread > meta["bound"] and not all_better:
                verdict = f"unresolved (spread {spread:.1%})"
            elif worse_by > meta["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif all_better:
                verdict = "better in every run"
            else:
                verdict = "within bound"
            unit = meta["unit"]
            print(f"{workload:20s} {name:13s} "
                  f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}] {unit}':>30s} "
                  f"{f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}] {unit}':>30s} "
                  f"{-worse_by:>+8.1%} {meta['bound']:>6.0%}  {verdict}", file=out)
    only = sorted(set(base) ^ set(new))
    if only:
        print(f"workloads in one set only: {only}", file=out)
    return 1 if regressions else 0


def _rounded(value):
    """12 significant digits: far below ATOL, and a smaller reference file."""
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return None if value is None else float(f"{value:.12g}")


def record_reference(sizes=("smoke", "full")) -> int:
    """Record every pool input's observation from the current code."""
    workloads, _ = _load_program()
    entries = {}
    for size in sizes:
        entries[size] = {}
        for name, cls in workloads.WORKLOADS.items():
            table = entries[size][name] = {}
            for seed in range(workloads.POOL):
                work = cls(size, seed, OUT_DIR / f"reference-{os.getpid()}")
                try:
                    work.setup()
                    obs, errors = work.observe(0, work.run_op(0))
                finally:
                    work.close()
                    shutil.rmtree(work.workdir, ignore_errors=True)
                if errors or obs is None:
                    print(f"{size} {name} seed {seed}: {errors}", file=sys.stderr)
                    return 1
                obs["approx"] = {key: _rounded(value) for key, value in obs["approx"].items()}
                table[str(work.input_seed(0))] = obs
                print(f"recorded {size} {name} input seed {seed}", file=sys.stderr)
    payload = {"pool": workloads.POOL, "atol": workloads.ATOL, "kkt_max": workloads.KKT_MAX,
               "entries": entries}
    REFERENCE.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' runs tiny inputs, for the self-tests")
    parser.add_argument("--record", type=Path, default=None,
                        help="append the full run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--record-reference", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare_sets(*args.compare)
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    workloads, _ = _load_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    if args.record:
        with args.record.open("a") as handle:
            handle.write(json.dumps(run) + "\n")
    print_report(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
