#!/usr/bin/env python3
"""Benchmark for sharegraph: seeded traces, fresh processes, independent checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of sweep-dense, nullmodel-shuffle, affiliation-1m. The benchmark
writes the workload's trace from --seed under perfbench/work/, then starts
fresh Python processes one after another (at least three, more while
--seconds lasts). Each imports ``sharegraph`` from ``src/``, loads the trace
with ``load_trace(path, sort=True)`` and runs the workload's job; see
child.py. With --trace 0 it prints the end-to-end metrics: the medians over
processes of ``setup_s`` and ``peak_rss_mb`` and over jobs of ``job_s``,
times scaled to a reference core speed measured around each timed part.
With --trace 1 it runs one untraced and one traced process and prints the
per-layer metrics, which it also writes with the span table and the tracing
overhead to perfbench/out/. The outputs of the run are checked against
check.py after the timing; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import traces
from check import CHECKS
from traces import WORKLOADS
from tracer import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
OUT = HERE / "out"

# setup_s is a median over processes, so a run starts at least this many.
MIN_PROCESSES = 3
# Every run ends within this many seconds; a child that would outlast it is killed.
HARD_LIMIT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    # One thread of work; a fixed hash seed so set and dict layouts repeat
    # from process to process.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(workload: str, trace_path: Path, params: dict, jobs: int, traced: bool,
              deadline: float) -> dict:
    tag = f"{workload}-{os.getpid()}"
    config_path, result_path = WORK / f"{tag}.config.json", WORK / f"{tag}.result.json"
    config_path.write_text(json.dumps({
        "workload": workload, "src": str(SRC), "trace_path": str(trace_path),
        "params": params, "jobs": jobs, "traced": traced,
    }))
    result_path.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(config_path),
                               str(result_path)], env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} process killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(result_path.read_text())
    config_path.unlink()
    result_path.unlink()
    return result


def prepare_trace(workload: str, seed: int) -> Path:
    WORK.mkdir(exist_ok=True)
    path = traces.trace_path(WORK, workload, seed)
    for old in WORK.glob(f"{workload}-seed*"):
        if old != path:
            old.unlink()
    traces.write_trace(path, WORKLOADS[workload]["trace"], seed)
    return path


def check_outputs(workload: str, trace_path: Path, params: dict, results: list[dict]):
    """(attempted, failed, problems) over every job of every process."""
    first = results[0]["digests"][0]
    per_op = CHECKS[workload](trace_path, params, results[0]["outputs"])
    bad_ops = sum(1 for p in per_op if p)
    jobs = sum(len(r["digests"]) for r in results)
    mismatched = sum(1 for r in results for d in r["digests"] if d != first)
    problems = [f"op {i}: {msg}" for i, p in enumerate(per_op) for msg in p]
    if mismatched:
        problems.append(f"{mismatched} of {jobs} jobs wrote other reports than the first")
    return jobs * len(per_op), (jobs - mismatched) * bad_ops + mismatched * len(per_op), problems


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    spec = WORKLOADS[workload]
    params = dict(spec["job"], seed=seed)
    trace_path = prepare_trace(workload, seed)
    jobs = spec["jobs_per_process"]
    # Compile the sources and warm the file cache before anything is timed.
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           "import sharegraph.pipeline", str(SRC)],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        raise BenchError(f"cannot import sharegraph:\n{warm.stderr[-3000:]}")

    results = []
    if traced:
        # Per-layer figures are for one set-up and one job.
        plain = run_child(workload, trace_path, params, 1, False, deadline)
        results = [plain, run_child(workload, trace_path, params, 1, True, deadline)]
    else:
        start = time.monotonic()
        durations = []
        while True:
            t = time.monotonic()
            results.append(run_child(workload, trace_path, params, jobs, False, deadline))
            durations.append(time.monotonic() - t)
            elapsed = time.monotonic() - start
            if len(results) >= MIN_PROCESSES and elapsed + max(durations) > seconds:
                break

    attempted, failed, problems = check_outputs(workload, trace_path, params, results)
    for p in problems[:20]:
        print(f"check failed: {workload}: {p}", file=sys.stderr)
    # An operation the program itself flags with error: counts as failed;
    # any other problem means a report is wrong.
    correct = all("program flagged" in p for p in problems)

    if traced:
        layers = results[1]["layers"]
        metrics = {name: {"value": layers[name], "unit": UNITS[name]} for name in UNITS}
        traced_job, plain_job = results[1]["job_s"][0], results[0]["job_s"][0]
        OUT.mkdir(exist_ok=True)
        out_path = OUT / f"trace-{workload}-seed{seed}.json"
        out_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "layers": layers,
            "spans": results[1]["spans"], "absent": results[1]["absent"],
            "job_s_traced": traced_job, "job_s_untraced": plain_job,
            "tracing_overhead_s": traced_job - plain_job,
            "setup_wall_s_traced": results[1]["setup_wall_s"],
            "job_wall_s_traced": results[1]["job_wall_s"][0],
        }, indent=2, sort_keys=True) + "\n")
        for name in results[1]["absent"]:
            print(f"absent: {name} (its metrics read 0)", file=sys.stderr)
        print(f"{workload}: per-layer metrics in {out_path.relative_to(ROOT)}; tracing overhead "
              f"{traced_job - plain_job:+.3f} s on job_s {plain_job:.3f} s")
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "job_s": statistics.median(s for r in results for s in r["job_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        wall_setup = statistics.median(r["setup_wall_s"] for r in results)
        wall_job = statistics.median(s for r in results for s in r["job_wall_s"])
        jobs_run = sum(len(r["job_s"]) for r in results)
        print(f"{workload}: {len(results)} processes, {jobs_run} jobs; "
              f"unscaled wall medians: setup {wall_setup:.4f} s, job {wall_job:.4f} s")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}: attempted {attempted}, failed {failed}, correct {correct}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sharegraph" / "__init__.py").is_file():
        print(f"error: no sharegraph sources at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + HARD_LIMIT_S * len(names)
    try:
        runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
                for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        result = runs[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {f"{name}.{m}": v for name, r in runs.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
