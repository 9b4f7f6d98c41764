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
from .metrics import MetricsReport, small_world_report
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


def _permuted(codes: np.ndarray, seed_seq: np.random.SeedSequence) -> np.ndarray:
    # The swaps of codes[rng.permutation(len(codes))], without its int64 index array.
    return np.random.default_rng(seed_seq).permutation(codes)


def shuffle_trace(trace: Trace, mode: ShuffleMode) -> Trace:
    """Return the seeded column permutation of a trace.

    The time column is never moved, so row order (and time-sortedness) is
    preserved. ST1 derives two independent streams from the seed, one per
    permuted column. Only code columns move; the id tables are shared.
    """
    if not len(trace):
        raise EmptyTraceError("cannot shuffle an empty trace")
    users, items = trace.user_codes, trace.item_codes

    root = np.random.SeedSequence(mode.seed)
    if mode.variant == "ST1":
        user_seq, item_seq = root.spawn(2)
        users = _permuted(users, user_seq)
        items = _permuted(items, item_seq)
    elif mode.variant == "ST2":
        users = _permuted(users, root)
    else:  # ST3
        items = _permuted(items, root)

    return Trace(trace.user_ids, users, trace.item_ids, items, trace.timestamps)


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
            rc = np.array([r.report.ratio_cc for r in rows], dtype=float)
            rl = np.array([r.report.ratio_l for r in rows], dtype=float)
            out[source] = {
                "ratio_cc_mean": float(np.nanmean(rc)) if not np.all(np.isnan(rc)) else math.nan,
                "ratio_cc_std": float(np.nanstd(rc)) if not np.all(np.isnan(rc)) else math.nan,
                "ratio_l_mean": float(np.nanmean(rl)) if not np.all(np.isnan(rl)) else math.nan,
                "ratio_l_std": float(np.nanstd(rl)) if not np.all(np.isnan(rl)) else math.nan,
            }
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
    then the window is sliced and the graph built exactly as for the real
    trace. Each (mode, replicate) pair gets a seed derived from the mode's
    seed, recorded in its row.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if not len(trace):
        raise EmptyTraceError("cannot compare an empty trace")

    def windowed(t: Trace) -> Trace:
        return slice_window(t, window) if window is not None else t

    rows = [_row("real", 0, None, windowed(trace), threshold, sample_fraction, path_seed)]
    for mode in modes:
        for r in range(replicates):
            seed = replicate_seed(mode.seed, r)
            shuffled = shuffle_trace(trace, ShuffleMode(mode.variant, seed))
            rows.append(_row(mode.variant, r, seed, windowed(shuffled), threshold,
                             sample_fraction, path_seed))
    return NullModelComparison(rows=tuple(rows))
