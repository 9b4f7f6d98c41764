"""What the benchmark in perfbench/ reads of the library.

The benchmark's files change only together with the benchmark, so a library
change that breaks one of its calls would otherwise show only when the
benchmark runs. These tests load its modules from their files, without
putting perfbench/ on ``sys.path`` and without installing the tracer, and
make its calls on small traces written by its own generator.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from sharegraph import (
    TimeWindow,
    build_bipartite,
    build_dsg,
    generate_synthetic_trace,
    load_trace,
    slice_window,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child, tracer, traces = (_load(name) for name in ("child", "tracer", "traces"))


@pytest.mark.parametrize("name", list(traces.WORKLOADS))
def test_every_job_runs_on_its_workloads_trace(tmp_path, name):
    workload = traces.WORKLOADS[name]
    spec = dict(workload["trace"], requests=min(workload["trace"]["requests"], 20_000))
    path = traces.trace_path(tmp_path, name, 1)
    traces.write_trace(path, spec, 1)
    loaded = load_trace(path, sort=True)
    assert len(loaded.trace) == spec["requests"] and loaded.rejected == ()

    outputs = child.JOBS[name](loaded.trace, dict(workload["job"], seed=1))
    report = outputs[child.MAIN_REPORT[name]]
    assert report.count("\n") > 1  # a header and at least one row


def test_tracer_counters_read_a_window_trace():
    trace = generate_synthetic_trace(40, 60, 800, "zipf", seed=2, span_seconds=7200)
    window = slice_window(trace, TimeWindow(1800, 3600))
    items, users = window.incidences()
    audiences = np.bincount(items)

    dsg = build_dsg(window, 1)
    assert tracer.COUNTERS["build_dsg"]((window, 1), {}, dsg) == {
        "dsg.builds": 1,
        "dsg.pair_updates": sum(math.comb(int(k), 2) for k in audiences),
        "dsg.edges": dsg.edge_count,
    }
    bipartite = build_bipartite(window)
    assert tracer.COUNTERS["build_bipartite"]((window,), {}, bipartite) == {
        "affiliation.incidences": len(users),
    }
