import concurrent.futures
import contextlib
import csv
import errno
import gzip
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharegraph import (
    TimeWindow, Trace, TraceParseError, __version__, generate_synthetic_trace, load_trace,
    parse_trace, pipeline, render_trace,
)
import sharegraph.cli as cli_module
from sharegraph.cli import EXIT_IO, EXIT_PARSE, EXIT_PRECONDITION, main
from sharegraph.pipeline import (
    METRICS_COLUMNS,
    SweepCell,
    SweepCellResult,
    metrics_rows,
    render_csv,
)

SIX_RECORD_CSV = "u1,f1,0\nu1,f2,1\nu2,f2,2\nu2,f3,3\nu3,f1,4\nu3,f2,5\n"


@pytest.fixture
def fixture_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(SIX_RECORD_CSV)
    return path


def read(path):
    return path.read_text()


# --- summary ---

def test_summary_golden_row(fixture_trace, tmp_path):
    out = tmp_path / "out"
    assert main(["summary", str(fixture_trace), "-o", str(out)]) == 0
    assert read(out / "summary.csv") == (
        "users,requests_all,requests_distinct,duration_seconds\n3,6,3,5\n"
    )
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["command"] == "summary"
    assert len(manifest["input_sha256"]) == 64
    created = manifest.pop("created_utc")
    assert created.endswith("+00:00")
    assert manifest == {
        "command": "summary", "parameters": {}, "master_seed": 0,
        "input_sha256": manifest["input_sha256"], "tool_version": __version__,
        "prng": "PCG64", "numpy_version": np.__version__,
        "schemas": pipeline.SCHEMA_VERSIONS,
    }


@pytest.mark.parametrize("argv, parameters", [
    (["synth", "--users", "7", "--items", "9", "--requests", "30", "--popularity", "zipf",
      "--zipf-exponent", "1.5", "--span", "60"],
     {"clustered": False, "users": 7, "items": 9, "requests": 30, "popularity": "zipf",
      "zipf_exponent": 1.5, "span": 60}),
    (["synth", "--clustered", "--groups", "4", "--users-per-group", "3", "--pool-size", "5",
      "--requests-per-user", "6", "--bridge-requests", "2"],
     {"clustered": True, "groups": 4, "users_per_group": 3, "pool_size": 5,
      "requests_per_user": 6, "bridge_requests": 2, "span": 86400}),
    (["sweep", "TRACE", "--lengths", "3,6", "--thresholds", "1,2"],
     {"lengths": [3, 6], "thresholds": [1, 2], "origin": None, "system": "trace",
      "path_mode": "exact", "path_fraction": 0.05}),
    (["sweep", "TRACE", "--lengths", "3", "--thresholds", "2", "--origin", "0",
      "--system", "six", "--path-mode", "sampled", "--path-fraction", "0.5"],
     {"lengths": [3], "thresholds": [2], "origin": 0, "system": "six",
      "path_mode": "sampled", "path_fraction": 0.5}),
    (["distributions", "TRACE", "--window-start", "0", "--window-length", "4",
      "--threshold", "2"],
     {"window_start": 0, "window_length": 4, "threshold": 2}),
    (["affiliation", "TRACE"], {"window_start": None, "window_length": None}),
    (["nullmodel", "TRACE", "--modes", "ST2, ST1", "--replicates", "2",
      "--window-length", "5"],
     {"window_start": None, "window_length": 5, "threshold": 1, "modes": ["ST2", "ST1"],
      "replicates": 2, "path_mode": "exact", "path_fraction": 0.05}),
], ids=["synth", "synth-clustered", "sweep", "sweep-sampled", "distributions",
        "affiliation", "nullmodel"])
def test_manifest_parameters_of_every_verb(fixture_trace, tmp_path, argv, parameters):
    argv = [str(fixture_trace) if arg == "TRACE" else arg for arg in argv]
    assert main(argv + ["--seed", "3", "-o", str(tmp_path / "out")]) == 0
    manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
    assert manifest["parameters"] == parameters
    assert manifest["master_seed"] == 3


def test_summary_gz_equivalent(fixture_trace, tmp_path):
    gz_path = tmp_path / "trace.csv.gz"
    gz_path.write_bytes(gzip.compress(SIX_RECORD_CSV.encode()))
    out_plain, out_gz = tmp_path / "plain", tmp_path / "gz"
    assert main(["summary", str(fixture_trace), "-o", str(out_plain)]) == 0
    assert main(["summary", str(gz_path), "-o", str(out_gz)]) == 0
    assert read(out_plain / "summary.csv") == read(out_gz / "summary.csv")


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_manifest_digest_is_sha256_of_the_file(tmp_path, monkeypatch, compress):
    # The file is hashed as the parse reads it, the gzip magic it peeks at once.
    monkeypatch.setattr("sharegraph.trace.READ_BLOCK", 1000)
    data = render_trace(generate_synthetic_trace(50, 200, 3000, seed=2)).encode()
    path = tmp_path / "trace.csv"
    path.write_bytes(gzip.compress(data) if compress else data)
    out = tmp_path / "out"
    assert main(["summary", str(path), "-o", str(out)]) == 0
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_summary_reads_a_pipe(tmp_path, compress):
    data = SIX_RECORD_CSV.encode()
    data = gzip.compress(data) if compress else data
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        assert main(["summary", str(fifo), "-o", str(tmp_path / "out")]) == 0
    finally:
        writer.join()
    assert read(tmp_path / "out" / "summary.csv").endswith("\n3,6,3,5\n")
    manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
    assert manifest["input_sha256"] == hashlib.sha256(data).hexdigest()


def test_interrupt_while_a_gzip_pipe_stalls_exits_at_once(tmp_path):
    # The helper thread is left blocked on the pipe: neither it nor closing
    # the file may hold up the exit.
    trace = generate_synthetic_trace(500, 5000, 100_000, seed=3)
    data = gzip.compress(render_trace(trace).encode())
    child = subprocess.Popen(
        [sys.executable, "-m", "sharegraph.cli", "summary", "/dev/stdin", "-o", str(tmp_path)],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        child.stdin.write(data[:len(data) // 2])
        child.stdin.flush()
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        assert child.wait(timeout=10) == -signal.SIGINT
    finally:
        child.kill()
        child.stdin.close()
        child.wait()


def test_summary_empty_file_precondition_exit(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["summary", str(empty), "-o", str(tmp_path / "out")]) == EXIT_PRECONDITION
    assert "error:" in capsys.readouterr().err


def test_unparseable_trace_exit(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a\nvalid trace\n")
    assert main(["summary", str(bad), "-o", str(tmp_path / "out")]) == EXIT_PARSE


_GZIP_TRACE = gzip.compress(SIX_RECORD_CSV.encode() * 20)


_CORRUPT_GZIP = [
    pytest.param(_GZIP_TRACE[:len(_GZIP_TRACE) // 2], id="truncated"),  # EOFError
    pytest.param(_GZIP_TRACE[:10] + b"\xff" * 20, id="bad-deflate"),  # zlib.error
    pytest.param(_GZIP_TRACE[:-8] + b"\0" * 8, id="bad-crc"),  # gzip.BadGzipFile
]


@pytest.mark.parametrize("data", _CORRUPT_GZIP)
def test_corrupt_gzip_parse_exit(tmp_path, capsys, data):
    bad = tmp_path / "bad.csv.gz"
    bad.write_bytes(data)
    assert main(["summary", str(bad), "-o", str(tmp_path / "out")]) == EXIT_PARSE
    assert "error: corrupt gzip input" in capsys.readouterr().err


@pytest.mark.parametrize("data", [pytest.param(_GZIP_TRACE, id="good"), *_CORRUPT_GZIP])
def test_gzip_parse_leaves_no_thread_running(data):
    # Gzip input is inflated on a helper thread, joined before the parse
    # returns or raises.
    threads = threading.active_count()
    with contextlib.suppress(TraceParseError):
        parse_trace(data)
    assert threading.active_count() == threads


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_read_error_partway_io_exit(tmp_path, monkeypatch, capsys, compress):
    data = render_trace(generate_synthetic_trace(50, 200, 3000, seed=2)).encode()
    path = tmp_path / "trace.csv"
    path.write_bytes(gzip.compress(data) if compress else data)
    fail_at = path.stat().st_size // 2

    class FailingHalfway(cli_module._HashingReader):
        given = 0

        def read(self, size=-1):
            if self.given >= fail_at:
                raise OSError(errno.EIO, "Input/output error")
            block = super().read(min(size, 1000) if size >= 0 else 1000)
            self.given += len(block)
            return block

    monkeypatch.setattr(cli_module, "_HashingReader", FailingHalfway)
    assert main(["summary", str(path), "-o", str(tmp_path / "out")]) == EXIT_IO
    assert "error: [Errno 5] Input/output error" in capsys.readouterr().err


def test_invalid_utf8_line_is_a_line_diagnostic(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(SIX_RECORD_CSV.encode() + b"u1,i\xff9,5\n")
    out = tmp_path / "out"
    assert main(["summary", str(path), "-o", str(out)]) == 0
    assert "line 7: invalid UTF-8" in capsys.readouterr().err
    assert read(out / "summary.csv").splitlines()[1] == "3,6,3,5"


_field = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
_line = st.one_of(
    st.tuples(_field, _field, st.integers(min_value=-10, max_value=2**64).map(str)),
    st.tuples(_field, _field, _field),
).map(",".join)
_trace_bytes = st.one_of(
    st.binary(max_size=200),
    st.lists(_line, max_size=8).map(lambda lines: "\n".join(lines).encode()),
)


def _exits_cleanly(verb, data, wrap_in_gzip):
    """Any input bytes, plain or gzip-wrapped, end in a documented exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(gzip.compress(data) if wrap_in_gzip else data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, str(path), "-o", str(Path(tmp) / "out")])
    assert code in {0, EXIT_PARSE, EXIT_PRECONDITION, EXIT_IO}
    assert "Traceback" not in err.getvalue()


@given(_trace_bytes, st.booleans())
@settings(max_examples=150, deadline=None)
def test_summary_on_arbitrary_bytes_exits_cleanly(data, wrap_in_gzip):
    _exits_cleanly("summary", data, wrap_in_gzip)


# sweep is left out: its cost grows with the input's time span, and one
# timestamp near 2**63 makes the span, and the windows to measure, too many.
@pytest.mark.parametrize("verb", ["distributions", "affiliation", "nullmodel"])
@given(data=_trace_bytes, wrap_in_gzip=st.booleans())
@settings(max_examples=150, deadline=None)
def test_reading_verbs_on_arbitrary_bytes_exit_cleanly(verb, data, wrap_in_gzip):
    _exits_cleanly(verb, data, wrap_in_gzip)


def test_missing_file_io_exit(tmp_path):
    missing = tmp_path / "nope.csv"
    assert main(["summary", str(missing), "-o", str(tmp_path / "out")]) == EXIT_IO


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["summary"])  # missing required --out and trace
    assert exc_info.value.code == 2


# --- synth ---

def test_synth_writes_parseable_deterministic_trace(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--users", "10", "--items", "20", "--requests", "100",
            "--seed", "5"]
    assert main(args + ["-o", str(out_a)]) == 0
    assert main(args + ["-o", str(out_b)]) == 0
    assert read(out_a / "trace.csv") == read(out_b / "trace.csv")
    expected = render_trace(generate_synthetic_trace(10, 20, 100, seed=5))
    assert read(out_a / "trace.csv") == expected


def test_synth_clustered(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--clustered", "--groups", "4", "--users-per-group", "3",
                 "--seed", "1", "-o", str(out)]) == 0
    lines = read(out / "trace.csv").splitlines()
    assert all(line.count(",") == 2 for line in lines)
    users = {line.split(",")[0] for line in lines}
    assert len(users) == 12


# --- sweep ---

def make_web_like_trace(tmp_path):
    trace = generate_synthetic_trace(60, 300, 20000, "zipf", seed=0,
                                     span_seconds=36000)
    path = tmp_path / "web.csv"
    path.write_text(render_trace(trace))
    return path


def test_sweep_row_counts_and_determinism(tmp_path):
    path = make_web_like_trace(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", str(path), "--lengths", "1800", "--thresholds", "1,10,100",
            "--origin", "0", "--system", "web"]
    assert main(args + ["-o", str(out_a)]) == 0
    assert main(args + ["-o", str(out_b)]) == 0
    rows = read(out_a / "metrics.csv").splitlines()
    assert rows[0] == (
        "system,interval_seconds,threshold,nodes,edges,components,lcc_nodes,"
        "lcc_edges,cc1,cc2,avg_path_length,cc_random,l_random,ratio_cc,ratio_l,"
        "window_index,window_start,window_end,path_length_method,flags"
    )
    assert len(rows) == 1 + 20 * 3  # header + 20 windows x 3 thresholds
    assert read(out_a / "metrics.csv") == read(out_b / "metrics.csv")
    assert read(out_a / "scatter.csv") == read(out_b / "scatter.csv")


def test_sweep_worker_count_does_not_change_output(tmp_path):
    path = make_web_like_trace(tmp_path)
    out_1, out_2 = tmp_path / "w1", tmp_path / "w2"
    base = ["sweep", str(path), "--lengths", "3600,7200", "--thresholds", "1,5",
            "--origin", "0"]
    assert main(base + ["-o", str(out_1), "--workers", "1"]) == 0
    assert main(base + ["-o", str(out_2), "--workers", "2"]) == 0
    assert read(out_1 / "metrics.csv") == read(out_2 / "metrics.csv")


def test_sweep_workers_fork_after_a_gzip_load(tmp_path, monkeypatch):
    # The parse inflates gzip input on a helper thread; a pool must not fork
    # while it runs.
    path = tmp_path / "web.csv.gz"
    path.write_bytes(gzip.compress(make_web_like_trace(tmp_path).read_bytes()))
    threads = set(threading.enumerate())
    trace = load_trace(path, sort=True).trace
    threads_at_fork, fork = [], os.fork

    def recording_fork():
        threads_at_fork.append(set(threading.enumerate()))
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    spec = pipeline.SweepSpec(window_lengths=(3600, 7200), thresholds=(1, 5), origin=0)
    pooled = pipeline.run_sweep(trace, spec, workers=2)
    assert threads_at_fork == [threads, threads]  # fork, Linux's start method
    assert (render_csv(METRICS_COLUMNS, metrics_rows("web", pooled))
            == render_csv(METRICS_COLUMNS, metrics_rows("web", pipeline.run_sweep(trace, spec))))


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_sweep_workers_give_the_same_output_under_every_start_method(tmp_path, monkeypatch,
                                                                      method):
    # Python 3.14 makes forkserver Linux's default start method; a worker
    # must not rely on state that only a forked child inherits.
    trace = load_trace(make_web_like_trace(tmp_path), sort=True).trace
    spec = pipeline.SweepSpec(window_lengths=(3600, 7200), thresholds=(1, 5), origin=0)
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers, mp_context=multiprocessing.get_context(method))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    pooled = pipeline.run_sweep(trace, spec, workers=2)
    assert started == [2]
    assert (render_csv(METRICS_COLUMNS, metrics_rows("web", pooled))
            == render_csv(METRICS_COLUMNS, metrics_rows("web", pipeline.run_sweep(trace, spec))))


@pytest.mark.parametrize("length, pools", [("3", [2]), ("10", [])])
def test_sweep_starts_at_most_one_worker_per_window(fixture_trace, tmp_path, monkeypatch,
                                                    length, pools):
    # A pool forks all its workers at once; this one records how many and maps in-process.
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = ["sweep", str(fixture_trace), "--lengths", length, "--thresholds", "1,2",
            "--origin", "0"]
    assert main(base + ["--workers", "8", "-o", str(tmp_path / "many")]) == 0
    assert started == pools  # two windows of 3 s, or one of 10 s run in-process
    assert main(base + ["--workers", "1", "-o", str(tmp_path / "one")]) == 0
    for name in ("metrics.csv", "scatter.csv"):
        assert read(tmp_path / "many" / name) == read(tmp_path / "one" / name)


def test_importing_the_library_loads_no_multiprocessing_or_test_dependencies():
    # The process pool is imported only for a run with several workers, and
    # numpy is the only runtime dependency: the test extras stay unloaded.
    unwanted = ("multiprocessing", "scipy", "networkx", "hypothesis", "mpmath")
    code = ("import sys, sharegraph, sharegraph.pipeline, sharegraph.cli\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {unwanted!r}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_importing_the_library_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use. Loaded by an import-time
    # reference to it, it added about 16 ms to every process's set-up and
    # 6 MB to its resident set, also for verbs that shuffle nothing.
    code = ("import sys, sharegraph, sharegraph.pipeline, sharegraph.cli\n"
            "print('numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_sweep_empty_graphs_flagged_but_successful(fixture_trace, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", str(fixture_trace), "--lengths", "10",
                 "--thresholds", "999", "-o", str(out)]) == 0
    body = read(out / "metrics.csv").splitlines()[1:]
    assert body
    assert all("empty_graph" in line for line in body)


def test_sweep_sampled_mode_recorded(tmp_path):
    path = make_web_like_trace(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--lengths", "36000", "--thresholds", "1",
                 "--origin", "0", "--path-mode", "sampled",
                 "--path-fraction", "0.1", "-o", str(out)]) == 0
    assert "sampled(fraction=0.1" in read(out / "metrics.csv")


def test_sweep_sampled_metrics_csv_has_one_field_per_column(tmp_path):
    path = make_web_like_trace(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--lengths", "7200", "--thresholds", "1,2",
                 "--origin", "0", "--path-mode", "sampled", "-o", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 2
    for row in rows:
        assert None not in row and len(row) == 20  # no spilled-over fields
        assert row["path_length_method"].startswith("sampled(fraction=0.05,seed=")
        assert row["flags"] in ("", "l_random_unstable")


def test_metrics_csv_error_row_has_one_field_per_column():
    cell = SweepCell(window_index=3, window=TimeWindow(30, 40), threshold=1, path_seed=0)
    result = SweepCellResult(cell=cell, report=None, error="ValueError: boom")
    text = render_csv(METRICS_COLUMNS, metrics_rows("web", [result]))
    (row,) = csv.DictReader(io.StringIO(text))
    assert None not in row and len(row) == 20
    assert row["flags"].startswith("error:")
    assert (row["window_index"], row["window_start"], row["window_end"]) == ("3", "30", "40")


def test_sweep_results_hold_no_trace():
    # A worker sends its results back to the parent; the window's trace stays behind.
    trace = generate_synthetic_trace(30, 100, 2000, seed=4, span_seconds=3600)
    spec = pipeline.SweepSpec(window_lengths=(1200,), thresholds=(1, 2), origin=0)
    results = pipeline.run_sweep(trace, spec)
    assert len(results) == 3 * 2
    for result in results:
        assert not any(isinstance(value, Trace) for value in vars(result.cell).values())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_cell_that_raises_becomes_an_error_row(tmp_path, monkeypatch, workers):
    # A forked worker inherits the patched report; each threshold-2 cell raises.
    report = pipeline.small_world_report

    def failing_at_two(graph, **kwargs):
        if graph.threshold == 2:
            raise RuntimeError("boom")
        return report(graph, **kwargs)

    monkeypatch.setattr(pipeline, "small_world_report", failing_at_two)
    path = make_web_like_trace(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--lengths", "7200", "--thresholds", "1,2",
                 "--origin", "0", "--workers", workers, "-o", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["window_index"], row["threshold"]) for row in rows] == [
        (str(w), t) for w in range(5) for t in ("1", "2")]
    for row in rows:
        if row["threshold"] == "2":
            assert row["flags"] == "error:RuntimeError: boom"
            assert all(row[c] == "" for c in METRICS_COLUMNS[3:15])
        else:
            assert row["nodes"] and row["cc1"] and not row["flags"].startswith("error:")
    with open(out / "scatter.csv", newline="") as fh:
        scatter = list(csv.DictReader(fh))
    assert scatter and {row["threshold"] for row in scatter} == {"1"}


def test_sweep_grid_and_worker_count_are_validated():
    with pytest.raises(ValueError, match="non-empty"):
        pipeline.SweepSpec((), (1,))
    trace = generate_synthetic_trace(5, 5, 20, seed=1)
    with pytest.raises(ValueError, match="workers"):
        pipeline.run_sweep(trace, pipeline.SweepSpec((10,), (1,)), workers=0)


@pytest.mark.parametrize("fraction", ["0", "1.5", "nan"])
def test_sweep_rejects_path_fraction_outside_unit_interval(fixture_trace, tmp_path, fraction):
    out = tmp_path / "out"
    assert main(["sweep", str(fixture_trace), "--lengths", "10", "--thresholds", "1",
                 "--path-mode", "sampled", "--path-fraction", fraction,
                 "-o", str(out)]) == EXIT_PRECONDITION
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("lengths,thresholds", [("0", "1"), ("10", "0")],
                         ids=["length", "threshold"])
def test_sweep_rejects_a_zero_grid_value(fixture_trace, tmp_path, lengths, thresholds):
    out = tmp_path / "out"
    assert main(["sweep", str(fixture_trace), "--lengths", lengths, "--thresholds", thresholds,
                 "-o", str(out)]) == EXIT_PRECONDITION
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_worker_count_below_one(fixture_trace, tmp_path, workers):
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", str(fixture_trace), "--lengths", "10", "--thresholds", "1",
              "--workers", workers, "-o", str(tmp_path / "out")])
    assert exc_info.value.code == 2


# --- distributions ---

def test_distributions_single_point_popularity(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("u1,f1,0\nu1,f1,1\nu1,f1,2\n")
    out = tmp_path / "out"
    assert main(["distributions", str(path), "-o", str(out)]) == 0
    assert read(out / "popularity.csv") == "rank,item_id,requests\n1,f1,3\n"
    assert read(out / "user_activity.csv") == (
        "rank,user_id,requests_total,requests_distinct\n1,u1,3,1\n"
    )


def test_distributions_zipf_popularity_monotone(tmp_path):
    trace = generate_synthetic_trace(50, 200, 5000, "zipf", seed=2)
    path = tmp_path / "z.csv"
    path.write_text(render_trace(trace))
    out = tmp_path / "out"
    assert main(["distributions", str(path), "-o", str(out)]) == 0
    counts = [int(line.split(",")[2])
              for line in read(out / "popularity.csv").splitlines()[1:]]
    assert counts == sorted(counts, reverse=True)


def test_distributions_degree_and_weight_files(fixture_trace, tmp_path):
    out = tmp_path / "out"
    assert main(["distributions", str(fixture_trace), "--threshold", "1",
                 "-o", str(out)]) == 0
    assert read(out / "degree_hist.csv") == "degree,node_count\n2,3\n"
    assert read(out / "weight_hist.csv") == "weight,edge_count\n1,2\n2,1\n"


def test_distributions_window_slicing(fixture_trace, tmp_path):
    out = tmp_path / "out"
    assert main(["distributions", str(fixture_trace), "--window-start", "0",
                 "--window-length", "2", "-o", str(out)]) == 0
    activity = read(out / "user_activity.csv").splitlines()[1:]
    assert activity == ["1,u1,2,2"]


# --- affiliation ---

def test_affiliation_fixture_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("".join(f"u{k},f{j},{k * 2 + j}\n" for k in range(3) for j in range(2)))
    out = tmp_path / "out"
    assert main(["affiliation", str(path), "-o", str(out)]) == 0
    header, row = read(out / "affiliation.csv").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["users"] == "3"
    assert cells["items"] == "2"
    assert float(cells["clustering_theory"]) == 1 / 3
    assert float(cells["avg_degree_theory"]) == 4.0
    assert float(cells["clustering_measured"]) == 1.0


def test_affiliation_all_columns_populated_on_skewed_trace(tmp_path):
    # popularity-skewed window: every theory and measured cell gets a value
    trace = generate_synthetic_trace(40, 120, 3000, "zipf", seed=6)
    path = tmp_path / "t.csv"
    path.write_text(render_trace(trace))
    out = tmp_path / "out"
    assert main(["affiliation", str(path), "-o", str(out)]) == 0
    header, row = read(out / "affiliation.csv").splitlines()
    assert header == ("interval_seconds,users,items,users_sharing,"
                      "clustering_theory,clustering_measured,avg_degree_theory,"
                      "avg_degree_measured,avg_degree_measured_all_users,flags")
    cells = row.split(",")
    assert all(cells[1:9]), cells  # the 8 count/metric columns are non-empty


def test_affiliation_degenerate_flagged(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("u1,f1,0\nu2,f2,1\n")
    out = tmp_path / "out"
    assert main(["affiliation", str(path), "-o", str(out)]) == 0
    row = read(out / "affiliation.csv").splitlines()[1]
    assert "degenerate_model" in row
    assert row.split(",")[4] == ""  # clustering_theory cell is blank


def test_affiliation_two_disjoint_pairs_flag_both_sides(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("u1,i1,0\nu2,i1,1\nu3,i2,2\nu4,i2,3\n")
    out = tmp_path / "out"
    assert main(["affiliation", str(path), "-o", str(out)]) == 0
    row = read(out / "affiliation.csv").splitlines()[1].split(",")
    assert row[-1] == "degenerate_model;measured_no_triples"
    assert row[5] == ""  # clustering_measured cell is blank


def _affiliation_csv(path, out, *window):
    assert main(["affiliation", str(path), *window, "-o", str(out)]) == 0
    return read(out / "affiliation.csv")


def test_affiliation_window_defaults_to_the_trace_ends(tmp_path):
    # Records at 100..159: a lone --window-start runs to the last record, a
    # lone --window-length starts at the first.
    path = tmp_path / "t.csv"
    path.write_text("".join(f"u{k % 7},f{k % 5},{100 + k}\n" for k in range(60)))
    assert (_affiliation_csv(path, tmp_path / "a", "--window-start", "120")
            == _affiliation_csv(path, tmp_path / "b", "--window-start", "120",
                                "--window-length", "40"))
    assert (_affiliation_csv(path, tmp_path / "c", "--window-length", "30")
            == _affiliation_csv(path, tmp_path / "d", "--window-start", "100",
                                "--window-length", "30"))


def test_affiliation_window_of_an_empty_trace_exits_precondition(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["affiliation", str(path), "--window-length", "10",
                 "-o", str(tmp_path / "out")]) == EXIT_PRECONDITION


# --- nullmodel ---

def test_nullmodel_row_counts_and_reseeding(tmp_path):
    trace = generate_synthetic_trace(15, 25, 500, seed=3)
    path = tmp_path / "t.csv"
    path.write_text(render_trace(trace))
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["nullmodel", str(path), "--replicates", "2", "--threshold", "1"]
    assert main(base + ["--seed", "1", "-o", str(out_a)]) == 0
    assert main(base + ["--seed", "1", "-o", str(out_b)]) == 0
    assert main(base + ["--seed", "2", "-o", str(out_c)]) == 0
    rows_a = read(out_a / "nullmodel.csv").splitlines()
    assert len(rows_a) == 1 + 1 + 3 * 2  # header + real + 3 modes x 2 replicates
    assert read(out_a / "nullmodel.csv") == read(out_b / "nullmodel.csv")
    rows_c = read(out_c / "nullmodel.csv").splitlines()
    assert rows_a != rows_c
    assert rows_a[0] == rows_c[0]  # same schema
    summary = read(out_a / "nullmodel_summary.csv").splitlines()
    assert summary[0] == "source,ratio_cc_mean,ratio_cc_std,ratio_l_mean,ratio_l_std"
    assert [line.split(",")[0] for line in summary[1:]] == ["real", "ST1", "ST2", "ST3"]


def test_nullmodel_rejects_unknown_mode(tmp_path, fixture_trace):
    assert main(["nullmodel", str(fixture_trace), "--modes", "ST9",
                 "-o", str(tmp_path / "out")]) == EXIT_PRECONDITION


# --- failed runs ---

_EMPTY, _CORRUPT = "", _GZIP_TRACE[:len(_GZIP_TRACE) // 2]


@pytest.mark.parametrize("data, argv, code", [
    pytest.param(_CORRUPT, ["summary"], EXIT_PARSE, id="summary-parse"),
    pytest.param(_EMPTY, ["summary"], EXIT_PRECONDITION, id="summary-empty"),
    pytest.param(_CORRUPT, ["sweep", "--lengths", "10", "--thresholds", "1"], EXIT_PARSE,
                 id="sweep-parse"),
    pytest.param(SIX_RECORD_CSV, ["sweep", "--lengths", "0", "--thresholds", "1"],
                 EXIT_PRECONDITION, id="sweep-zero-length"),
    pytest.param(_CORRUPT, ["distributions"], EXIT_PARSE, id="distributions-parse"),
    pytest.param(_EMPTY, ["distributions", "--window-length", "10"], EXIT_PRECONDITION,
                 id="distributions-empty-window"),
    pytest.param(_CORRUPT, ["affiliation"], EXIT_PARSE, id="affiliation-parse"),
    pytest.param(SIX_RECORD_CSV, ["affiliation", "--window-start", "99"], EXIT_PRECONDITION,
                 id="affiliation-empty-window"),
    pytest.param(_CORRUPT, ["nullmodel"], EXIT_PARSE, id="nullmodel-parse"),
    pytest.param(SIX_RECORD_CSV, ["nullmodel", "--modes", "ST9"], EXIT_PRECONDITION,
                 id="nullmodel-unknown-mode"),
    pytest.param(None, ["synth", "--users", "0"], EXIT_PRECONDITION, id="synth-no-users"),
    pytest.param(None, ["synth", "--span", "0"], EXIT_PRECONDITION, id="synth-zero-span"),
    pytest.param(None, ["synth", "--clustered", "--groups", "2"], EXIT_PRECONDITION,
                 id="synth-two-groups"),
])
def test_a_failed_run_writes_no_file(tmp_path, capsys, data, argv, code):
    if data is not None:
        path = tmp_path / "t.csv"
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        argv = [argv[0], str(path), *argv[1:]]
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == code
    assert list(out.iterdir()) == []
    assert capsys.readouterr().out == ""


# --- module entry point ---

def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "sharegraph.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "sharegraph" in result.stdout
