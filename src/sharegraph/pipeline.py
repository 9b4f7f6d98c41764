"""Sweep orchestration, report schemas, and run manifests.

Every report is a plain CSV with a fixed, versioned column order; floats are
rendered with repr, NaN cells are left empty, and a cell holding a comma, a
double quote or a line break is quoted. All randomness derives from
a single master seed so a rerun with the same manifest parameters writes
byte-identical data files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .affiliation import compare_window
from .dsg import DataSharingGraph, build_dsg, weight_distribution
from .metrics import MetricsReport, _check_sample_fraction, degree_distribution, small_world_report
from .shuffle import PRNG_NAME, NullModelComparison, replicate_seed
from .trace import Trace, TimeWindow, summarize, window_slices

SCHEMA_VERSIONS = {
    "summary": "summary-v1",
    "metrics": "metrics-v1",
    "scatter": "scatter-v1",
    "distributions": "distributions-v1",
    "affiliation": "affiliation-v1",
    "nullmodel": "nullmodel-v1",
    "trace": "trace-csv-v1",
}

SUMMARY_COLUMNS = ["users", "requests_all", "requests_distinct", "duration_seconds"]

METRICS_COLUMNS = [
    "system", "interval_seconds", "threshold",
    "nodes", "edges", "components", "lcc_nodes", "lcc_edges",
    "cc1", "cc2", "avg_path_length", "cc_random", "l_random",
    "ratio_cc", "ratio_l",
    "window_index", "window_start", "window_end", "path_length_method", "flags",
]

SCATTER_COLUMNS = ["window_index", "window_start", "window_end", "threshold",
                   "ratio_cc", "ratio_l"]

AFFILIATION_COLUMNS = [
    "interval_seconds", "users", "items", "users_sharing",
    "clustering_theory", "clustering_measured",
    "avg_degree_theory", "avg_degree_measured", "avg_degree_measured_all_users",
    "flags",
]

NULLMODEL_COLUMNS = [
    "source", "replicate", "seed",
    "nodes", "edges", "components", "lcc_nodes", "lcc_edges",
    "weight_median", "weight_mean",
    "cc1", "cc2", "avg_path_length", "cc_random", "l_random",
    "ratio_cc", "ratio_l", "flags",
]

NULLMODEL_SUMMARY_COLUMNS = ["source", "ratio_cc_mean", "ratio_cc_std",
                             "ratio_l_mean", "ratio_l_std"]


def fmt_cell(value) -> str:
    """Render one CSV cell: NaN and None become empty, floats use repr."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _quoted(cell: str) -> str:
    """A cell holding a comma, a double quote or a line break, quoted as in RFC 4180."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_csv(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_quoted(fmt_cell(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def manifest_json(command: str, parameters: dict, master_seed: int,
                  input_sha256: str | None) -> str:
    """The manifest.json text: everything needed to reproduce a run's output bytes.

    ``created_utc`` is informational; all data outputs depend only on the
    input digest, seed, and parameters.
    """
    payload = {
        "command": command,
        "parameters": parameters,
        "master_seed": master_seed,
        "input_sha256": input_sha256,
        "tool_version": __version__,
        "prng": PRNG_NAME,
        "numpy_version": np.__version__,
        "schemas": SCHEMA_VERSIONS,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class SweepSpec:
    """Grid of window lengths and thresholds to measure."""

    window_lengths: tuple[int, ...]
    thresholds: tuple[int, ...]
    origin: int | None = None  # None: align windows to the earliest record
    sample_fraction: float | None = None
    master_seed: int = 0

    def __post_init__(self):
        if not self.window_lengths or not self.thresholds:
            raise ValueError("window_lengths and thresholds must be non-empty")
        if any(length <= 0 for length in self.window_lengths):
            raise ValueError("window lengths must be positive")
        if any(t < 1 for t in self.thresholds):
            raise ValueError("thresholds must be >= 1")
        _check_sample_fraction(self.sample_fraction)


@dataclass(frozen=True)
class SweepCell:
    """One cell of the grid: one window of one length, at one threshold."""

    window_index: int
    window: TimeWindow
    threshold: int
    path_seed: int


@dataclass(frozen=True)
class SweepCellResult:
    cell: SweepCell
    report: MetricsReport | None
    error: str | None = None


def _run_window(job: tuple[Trace, list[SweepCell], float | None]) -> list[SweepCellResult]:
    """Measure the cells of one window: (window trace, its cells, sample fraction).

    Pair weights are counted once, at the window's lowest threshold, and
    filtered for the others.
    """
    window_trace, cells, sample_fraction = job
    lowest = min(cell.threshold for cell in cells)
    base = None
    results = []
    for cell in cells:
        try:
            if base is None:
                base = build_dsg(window_trace, lowest)
            report = small_world_report(
                base.at_threshold(cell.threshold),
                sample_fraction=sample_fraction, seed=cell.path_seed,
            )
            results.append(SweepCellResult(cell=cell, report=report))
        except Exception as exc:  # flagged row; the sweep must keep going
            results.append(SweepCellResult(
                cell=cell, report=None, error=f"{type(exc).__name__}: {exc}"))
    return results


def run_sweep(trace: Trace, spec: SweepSpec, workers: int = 1) -> list[SweepCellResult]:
    """Measure every (window instance, threshold) cell of the grid.

    Cells are numbered before execution, each seeding its path sample from
    its number, and results are returned in that order, so the output is
    identical for any worker count. A failing cell becomes an error-flagged
    result instead of aborting the sweep. The unit of work is one window
    with all its thresholds.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs: list[tuple[Trace, list[SweepCell], float | None]] = []
    index = 0
    for length in spec.window_lengths:
        origin = spec.origin
        if origin is None:
            origin = int(trace.timestamps[0]) if len(trace) else 0
        for w_idx, (window, window_trace) in enumerate(window_slices(trace, length, origin)):
            cells = []
            for threshold in spec.thresholds:
                cells.append(SweepCell(
                    window_index=w_idx, window=window, threshold=threshold,
                    path_seed=replicate_seed(spec.master_seed, index),
                ))
                index += 1
            jobs.append((window_trace, cells, spec.sample_fraction))

    # Under fork, a pool starts all its workers at the first submit: no more than one per window.
    workers = min(workers, len(jobs))
    if workers <= 1:
        per_window = list(map(_run_window, jobs))
    else:
        # Imported here: multiprocessing takes tens of milliseconds to import,
        # which every in-process run would pay for nothing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_window = list(pool.map(_run_window, jobs, chunksize=1))
    return [result for results in per_window for result in results]


def summary_rows(trace: Trace) -> list[list]:
    s = summarize(trace)
    return [[s.user_count, s.request_count_all, s.request_count_distinct, s.duration]]


# The MetricsReport fields that metrics.csv and nullmodel.csv both list, in column order.
_REPORT_FIELDS = (
    "node_count", "edge_count", "component_count",
    "largest_component_nodes", "largest_component_edges",
    "cc1", "cc2", "avg_path_length", "cc_random", "l_random", "ratio_cc", "ratio_l",
)


def _report_cells(r: MetricsReport) -> list:
    return [getattr(r, name) for name in _REPORT_FIELDS]


def metrics_rows(system: str, results: list[SweepCellResult]) -> list[list]:
    rows = []
    for res in results:
        cell, r = res.cell, res.report
        prefix = [system, cell.window.end - cell.window.start, cell.threshold]
        suffix = [cell.window_index, cell.window.start, cell.window.end]
        if r is None:
            rows.append(prefix + [None] * len(_REPORT_FIELDS) + suffix + ["", f"error:{res.error}"])
        else:
            rows.append(prefix + _report_cells(r) + suffix + [r.path_length_method, ";".join(r.flags)])
    return rows


def scatter_rows(results: list[SweepCellResult]) -> list[list]:
    rows = []
    for res in results:
        if res.report is None:
            continue
        r = res.report
        if math.isnan(r.ratio_cc) or math.isnan(r.ratio_l):
            continue
        cell = res.cell
        rows.append([cell.window_index, cell.window.start, cell.window.end,
                     cell.threshold, r.ratio_cc, r.ratio_l])
    return rows


def _by_count(counts: np.ndarray) -> list[int]:
    """Codes with a non-zero count, by count descending, then code (id order)."""
    present = np.flatnonzero(counts)
    return present[np.argsort(-counts[present], kind="stable")].tolist()


def popularity_rows(trace: Trace) -> list[list]:
    counts = np.bincount(trace.item_codes, minlength=len(trace.item_ids))
    return [[rank, trace.item_ids[c], int(counts[c])]
            for rank, c in enumerate(_by_count(counts), start=1)]


def user_activity_rows(trace: Trace) -> list[list]:
    totals = np.bincount(trace.user_codes, minlength=len(trace.user_ids))
    distinct = np.bincount(trace.incidences()[1], minlength=len(trace.user_ids))
    return [[rank, trace.user_ids[c], int(totals[c]), int(distinct[c])]
            for rank, c in enumerate(_by_count(totals), start=1)]


def degree_hist_rows(graph: DataSharingGraph) -> list[list]:
    dist = degree_distribution(graph)
    return [[degree, count] for degree, count in dist.points()]


def weight_hist_rows(graph: DataSharingGraph) -> list[list]:
    dist = weight_distribution(graph)
    return [[weight, count] for weight, count in sorted(dist.counts.items())]


def affiliation_rows(window_trace: Trace, window: TimeWindow | None,
                     interval_seconds: int | None) -> list[list]:
    """The affiliation.csv row of one window trace. ``window`` is not read;
    it stays for callers that pass all three arguments by position."""
    bipartite, prediction, projection = compare_window(window_trace)
    return [[
        interval_seconds,
        bipartite.user_count,
        bipartite.item_count,
        projection.node_count,
        prediction.clustering_theory,
        prediction.clustering_measured,
        prediction.avg_degree_theory,
        prediction.avg_degree_measured,
        prediction.avg_degree_measured_all_users,
        ";".join(prediction.flags),
    ]]


def nullmodel_rows(comparison: NullModelComparison) -> list[list]:
    rows = []
    for row in comparison.rows:
        cells = _report_cells(row.report)
        rows.append([row.source, row.replicate, row.seed, *cells[:5],
                     row.weight_median, row.weight_mean, *cells[5:], ";".join(row.report.flags)])
    return rows


def nullmodel_summary_rows(comparison: NullModelComparison) -> list[list]:
    summary = comparison.summary()
    return [[source,
             stats["ratio_cc_mean"], stats["ratio_cc_std"],
             stats["ratio_l_mean"], stats["ratio_l_std"]]
            for source, stats in summary.items()]
