"""Permutation null models: break the user-item association in a trace.

Viewing a trace as a matrix with one row per request and columns (user,
item, time), each variant permutes whole columns with a seeded uniform
shuffle, so per-user request counts, per-item request counts, and the
multiset of timestamps are all preserved exactly:

    ST1  permute the user column and the item column independently
    ST2  permute only the user column (item-time pairing kept intact)
    ST3  permute only the item column (user-time pairing kept intact)

Comparing graphs built from real and shuffled traces shows how much of the
measured structure is forced by activity/popularity/timing patterns alone
and how much reflects correlated user preferences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dsg import build_dsg, weight_distribution
from .errors import EmptyTraceError
from .metrics import MetricsReport, _check_sample_fraction, small_world_report
from .trace import TimeWindow, Trace, slice_window

VARIANTS = ("ST1", "ST2", "ST3")

# PRNG used for every shuffle; recorded in manifests for reproducibility.
PRNG_NAME = "PCG64"


@dataclass(frozen=True)
class ShuffleMode:
    """Which trace columns get permuted, and with what seed."""

    variant: str
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def shuffle_trace(trace: Trace, mode: ShuffleMode, window: TimeWindow | None = None) -> Trace:
    """Return the seeded column permutation of a trace, or of its window.

    The time column is never moved, so row order (and time-sortedness) is
    preserved. ST1 derives two independent streams from the seed, one per
    permuted column; ST2 and ST3 use the seed's own stream. Only code
    columns move; the id tables are shared. Given a window, the whole trace
    is permuted but only the window's rows are gathered: the result is
    ``slice_window(shuffle_trace(trace, mode), window)``.
    """
    if not len(trace):
        raise EmptyTraceError("cannot shuffle an empty trace")
    rows = slice(None) if window is None else trace._window_rows(window)
    root = np.random.SeedSequence(mode.seed)
    if mode.variant == "ST1":
        streams = root.spawn(2)
    else:
        streams = [root, None] if mode.variant == "ST2" else [None, root]
    columns = [trace.user_codes, trace.item_codes]
    for k, stream in enumerate(streams):
        if stream is None:
            columns[k] = columns[k][rows]
        else:
            # The column's swaps are made on an arange and the window's rows
            # gathered through it: numpy shuffles 8-byte items on its fast
            # path, which the int32 code columns miss.
            order = np.arange(len(trace))
            np.random.default_rng(stream).shuffle(order)
            columns[k] = columns[k][order[rows]]
            del order
    return Trace(trace.user_ids, columns[0], trace.item_ids, columns[1], trace.timestamps[rows])


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Derive the integer seed for one replicate from a master seed."""
    state = np.random.SeedSequence([master_seed, replicate]).generate_state(2, np.uint64)
    return int(state[0])


@dataclass(frozen=True)
class NullModelRow:
    """Graph summary for one trace source (real, or one shuffle replicate)."""

    source: str
    replicate: int
    seed: int | None
    weight_median: float
    weight_mean: float
    report: MetricsReport


@dataclass(frozen=True)
class NullModelComparison:
    """The real trace's row, then each mode's replicate rows in order."""

    rows: tuple[NullModelRow, ...]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-source mean/std (over replicates) of the small-world ratios."""
        by_source: dict[str, list[NullModelRow]] = {}
        for row in self.rows:
            by_source.setdefault(row.source, []).append(row)
        out = {}
        for source, rows in by_source.items():
            out[source] = stats = {}
            for ratio in ("ratio_cc", "ratio_l"):
                values = np.array([getattr(r.report, ratio) for r in rows], dtype=float)
                undefined = np.all(np.isnan(values))
                stats[f"{ratio}_mean"] = math.nan if undefined else float(np.nanmean(values))
                stats[f"{ratio}_std"] = math.nan if undefined else float(np.nanstd(values))
        return out


def _row(source: str, replicate: int, seed: int | None, window_trace: Trace,
         threshold: int, sample_fraction: float | None, path_seed: int) -> NullModelRow:
    graph = build_dsg(window_trace, threshold)
    dist = weight_distribution(graph)
    report = small_world_report(graph, sample_fraction=sample_fraction, seed=path_seed)
    return NullModelRow(
        source=source, replicate=replicate, seed=seed,
        weight_median=dist.median, weight_mean=dist.mean, report=report,
    )


def null_model_comparison(
    trace: Trace,
    window: TimeWindow | None,
    threshold: int,
    modes: Iterable[ShuffleMode],
    replicates: int = 10,
    *,
    sample_fraction: float | None = None,
    path_seed: int = 0,
) -> NullModelComparison:
    """Compare the real trace's graph against shuffled-trace graphs.

    The full trace is shuffled (so column marginals are preserved globally),
    and the window's rows of the shuffle (``shuffle_trace`` with the window)
    are measured exactly as the real window. Each (mode, replicate) pair
    gets a seed derived from the mode's seed, recorded in its row.
    Replicates are shuffled and measured one after another, and each one's
    window is freed once its row is made.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    _check_sample_fraction(sample_fraction)
    if not len(trace):
        raise EmptyTraceError("cannot compare an empty trace")

    measure = (threshold, sample_fraction, path_seed)
    rows = [_row("real", 0, None, trace if window is None else slice_window(trace, window), *measure)]
    for mode in modes:
        for r in range(replicates):
            seed = replicate_seed(mode.seed, r)
            rows.append(_row(mode.variant, r, seed,
                             shuffle_trace(trace, ShuffleMode(mode.variant, seed), window), *measure))
    return NullModelComparison(rows=tuple(rows))
