"""One measured process: import, load the trace, run the workload's job.

Usage: python3 child.py CONFIG_JSON RESULT_JSON

Only the standard library is imported before the set-up clock starts, so
``setup_s`` covers importing ``sharegraph`` and ``sharegraph.pipeline`` (and
numpy through them) plus ``load_trace(path, sort=True)``. Each job calls the
library functions that the matching CLI verb calls and ends with the
rendered report CSV text. Both are reported as wall time and as time at a
reference core speed (see SpeedProbe).
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path


def job_sweep(trace, p):
    from sharegraph import pipeline

    spec = pipeline.SweepSpec(
        window_lengths=(p["window_length"],), thresholds=tuple(p["thresholds"]), origin=p["origin"],
        sample_fraction=p["path_fraction"], master_seed=p["seed"],
    )
    results = pipeline.run_sweep(trace, spec, workers=1)
    return {
        "metrics.csv": pipeline.render_csv(
            pipeline.METRICS_COLUMNS, pipeline.metrics_rows("bench", results)),
        "scatter.csv": pipeline.render_csv(
            pipeline.SCATTER_COLUMNS, pipeline.scatter_rows(results)),
    }


def job_nullmodel(trace, p):
    from sharegraph import pipeline, shuffle
    from sharegraph.trace import TimeWindow

    modes = [shuffle.ShuffleMode(v, seed=shuffle.replicate_seed(p["seed"], i))
             for i, v in enumerate(p["modes"])]
    window = TimeWindow(p["window_start"], p["window_start"] + p["window_length"])
    comparison = shuffle.null_model_comparison(
        trace, window, p["threshold"], modes, replicates=p["replicates"],
        sample_fraction=p["path_fraction"], path_seed=p["seed"],
    )
    return {
        "nullmodel.csv": pipeline.render_csv(
            pipeline.NULLMODEL_COLUMNS, pipeline.nullmodel_rows(comparison)),
        "nullmodel_summary.csv": pipeline.render_csv(
            pipeline.NULLMODEL_SUMMARY_COLUMNS, pipeline.nullmodel_summary_rows(comparison)),
    }


def job_affiliation(trace, p):
    from sharegraph import pipeline
    from sharegraph import trace as trace_mod

    window = trace_mod.TimeWindow(p["window_start"], p["window_start"] + p["window_length"])
    window_trace = trace_mod.slice_window(trace, window)
    rows = pipeline.affiliation_rows(window_trace, window, p["window_length"])
    return {"affiliation.csv": pipeline.render_csv(pipeline.AFFILIATION_COLUMNS, rows)}


JOBS = {"sweep-dense": job_sweep, "nullmodel-shuffle": job_nullmodel,
        "affiliation-1m": job_affiliation}

# The report whose data rows are the workload's operations.
MAIN_REPORT = {"sweep-dense": "metrics.csv", "nullmodel-shuffle": "nullmodel.csv",
               "affiliation-1m": "affiliation.csv"}


def digest(outputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name].encode() + b"\0")
    return h.hexdigest()


# The speed probe: every PROBE_INTERVAL_S of a timed part, a timer signal
# runs PROBE_LOOP iterations of a fixed arithmetic loop; PROBE_REFERENCE_S is
# how long that loop takes on an undisturbed core of the machine the
# benchmark was tuned on (2.0 GHz Xeon, Python 3.11.7).
PROBE_INTERVAL_S = 0.025
PROBE_LOOP = 10_000
PROBE_REFERENCE_S = 0.00045


class SpeedProbe:
    """Samples how fast the core runs while a timed part runs.

    Other tenants of a shared host slow its cores by up to 1.7x in spells of
    a second or less, which moves wall times by 10-20 % from run to run. The
    probe's loop runs in a signal handler between two bytecodes of the
    program and touches none of its state. A timed part's time at the
    reference speed is its wall time, less the probe's own time, times the
    mean over samples of PROBE_REFERENCE_S / loop time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i & 7
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    def scale(self) -> float:
        return sum(PROBE_REFERENCE_S / s for s in self.samples) / len(self.samples)


def timed(fn):
    """(result, wall seconds, seconds at the reference speed) of fn()."""
    with SpeedProbe() as probe:
        t = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t - probe.spent
    return result, wall, wall * probe.scale()


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space.

    ``ru_maxrss`` also keeps the high-water mark of the address space that
    exec replaced, i.e. the spawning benchmark process's, so VmHWM is read
    where the platform has it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(config):
    import sharegraph
    import sharegraph.pipeline  # noqa: F401  (the report layer every job ends in)

    tracer = None
    if config["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    return sharegraph, sharegraph.load_trace(config["trace_path"], sort=True), tracer


def main(config_path: str, result_path: str) -> None:
    config = json.loads(Path(config_path).read_text())
    src = config["src"]
    sys.path.insert(0, src)
    (sharegraph, loaded, tracer), setup_wall, setup_s = timed(lambda: setup(config))
    if not Path(sharegraph.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported sharegraph from {sharegraph.__file__}, not from {src}")

    job = JOBS[config["workload"]]
    job_wall, job_s, digests, outputs = [], [], [], None
    for _ in range(config["jobs"]):
        out, wall, scaled = timed(lambda: job(loaded.trace, config["params"]))
        job_wall.append(wall)
        job_s.append(scaled)
        digests.append(digest(out))
        outputs = outputs or out

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "job_s": job_s,
        "job_wall_s": job_wall,
        "peak_rss_mb": peak_rss_mb(),
        "rejected_lines": len(loaded.rejected),
        "digests": digests,
        "outputs": outputs,
    }
    if tracer is not None:
        tracer.uninstall_gc()
        cells = outputs[MAIN_REPORT[config["workload"]]].count("\n") - 1
        result["layers"] = tracer.metrics(cells * config["jobs"])
        result["spans"] = tracer.spans()
        result["absent"] = tracer.absent
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
