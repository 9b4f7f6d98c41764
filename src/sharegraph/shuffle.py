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
from .trace import TimeWindow, Trace, _Helper, _window_rows

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


def _streams(trace: Trace, mode: ShuffleMode) -> dict[str, tuple[np.ndarray, np.random.SeedSequence]]:
    """The code columns a mode permutes: by column name, ``arange(len(trace))`` and its stream.

    ST1 spawns two independent streams from the seed, one per column; ST2
    and ST3 permute one column with the seed's own stream.
    """
    root = np.random.SeedSequence(mode.seed)
    if mode.variant == "ST1":
        user_seq, item_seq = root.spawn(2)
        return {"user_codes": (np.arange(len(trace)), user_seq),
                "item_codes": (np.arange(len(trace)), item_seq)}
    return {"user_codes" if mode.variant == "ST2" else "item_codes": (np.arange(len(trace)), root)}


def _shuffle(order: np.ndarray, seed_seq: np.random.SeedSequence) -> None:
    # In place, rng.permutation(len(order)) out of an arange: numpy shuffles
    # 8-byte items on its fast path, which the int32 code columns miss.
    np.random.default_rng(seed_seq).shuffle(order)


def _shuffle_all(streams: dict[str, tuple[np.ndarray, np.random.SeedSequence]]) -> None:
    """Shuffle each order of ``_streams``'s output in place with its own stream."""
    for order, seed_seq in streams.values():
        _shuffle(order, seed_seq)


def _permuted(trace: Trace, streams: dict[str, tuple[np.ndarray, np.random.SeedSequence]],
              rows: slice | np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Each shuffled column's codes at ``rows`` (all rows for None), by column name.

    Column ``name`` shuffled is ``getattr(trace, name)[order]``: the swaps
    that made ``order`` out of an arange, made on the column. Only the
    window's rows are gathered, so no full column is copied for a window.
    """
    return {name: getattr(trace, name)[order if rows is None else order[rows]]
            for name, (order, _) in streams.items()}


def _with_codes(trace: Trace, codes: dict[str, np.ndarray]) -> Trace:
    """The trace with the code columns named in ``codes`` replaced."""
    return Trace(trace.user_ids, codes.get("user_codes", trace.user_codes),
                 trace.item_ids, codes.get("item_codes", trace.item_codes), trace.timestamps)


def shuffle_trace(trace: Trace, mode: ShuffleMode) -> Trace:
    """Return the seeded column permutation of a trace.

    The time column is never moved, so row order (and time-sortedness) is
    preserved. ST1 derives two independent streams from the seed, one per
    permuted column. Only code columns move; the id tables are shared.
    """
    if not len(trace):
        raise EmptyTraceError("cannot shuffle an empty trace")
    streams = _streams(trace, mode)
    _shuffle_all(streams)
    return _with_codes(trace, _permuted(trace, streams))


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
    then the window is sliced and the graph built exactly as for the real
    trace. Each (mode, replicate) pair gets a seed derived from the mode's
    seed, recorded in its row.

    The next replicate's columns are shuffled on one helper thread (see
    trace._Helper, which also reads gzip input ahead) while the current
    graph is measured, so at most one replicate's orders are in flight.
    For each column it permutes, the calling thread makes the order, an
    arange, and the helper only shuffles it in place, so that its allocator
    arena holds no blocks; the window's codes are then gathered through the
    order, and no full code column is copied. The rows are those of
    ``shuffle_trace`` and ``slice_window`` run one replicate after another;
    there is no option to turn the helper off.
    It is started only when there are replicates. It is joined before this
    returns or raises an ``Exception``, once the shuffle in flight is done;
    an interrupt is raised without waiting for that shuffle.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if not len(trace):
        raise EmptyTraceError("cannot compare an empty trace")

    rows_of = None if window is None else _window_rows(trace, window)
    real = trace if rows_of is None else trace._take(rows_of)
    shuffles = [(mode.variant, r, replicate_seed(mode.seed, r))
                for mode in modes for r in range(replicates)]

    def measured(source: str, replicate: int, seed: int | None, t: Trace) -> NullModelRow:
        return _row(source, replicate, seed, t, threshold, sample_fraction, path_seed)

    if not shuffles:
        return NullModelComparison(rows=(measured("real", 0, None, real),))

    def requested(k: int) -> dict[str, tuple[np.ndarray, np.random.SeedSequence]]:
        variant, _, seed = shuffles[k]
        streams = _streams(trace, ShuffleMode(variant, seed))
        helper.submit(_shuffle_all, streams)
        return streams

    with _Helper() as helper:
        streams = requested(0)
        rows = [measured("real", 0, None, real)]
        for k, (variant, r, seed) in enumerate(shuffles):
            helper.result()
            codes = _permuted(trace, streams, rows_of)
            del streams  # a window's full orders go before the next replicate's are made
            if k + 1 < len(shuffles):
                streams = requested(k + 1)
            rows.append(measured(variant, r, seed, _with_codes(real, codes)))
    return NullModelComparison(rows=tuple(rows))
