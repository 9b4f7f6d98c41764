"""Weighted data-sharing graphs built from windowed request traces.

Nodes are users; an edge joins two users whose sets of distinct requested
items overlap by at least the threshold inside the window. Edge weight is the
size of that overlap. Zero-weight pairs and isolated users never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BLOCK, Graph, _ids_at, _readonly, _runs, drop_empty_rows, symmetric_csr
from .trace import Trace, _run_starts


class DataSharingGraph(Graph):
    """Weighted undirected user graph for one (window, threshold) pair.

    A CSR ``Graph`` plus ``weights``, a read-only array with one value per
    entry of ``indices``: the count of distinct items the entry's two users
    both requested. ``build_dsg`` and ``at_threshold`` make every weight >=
    ``threshold`` and every node's degree >= 1; the constructor takes the
    CSR arrays as given.
    """

    __slots__ = ("weights", "threshold")

    def __init__(self, nodes: tuple, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray, threshold: int):
        super().__init__(nodes, indptr, indices)
        self.weights = _readonly(weights)
        self.threshold = threshold

    def __eq__(self, other):
        equal = super().__eq__(other)
        if equal is NotImplemented or not equal:
            return equal
        return np.array_equal(self.weights, other.weights) and self.threshold == other.threshold

    __hash__ = None

    def at_threshold(self, threshold: int) -> "DataSharingGraph":
        """The graph of the same window at a threshold no lower than this one's.

        Edges lighter than ``threshold`` go, and so do the users they leave
        isolated; the weights need no recount.
        """
        if threshold < self.threshold:
            raise ValueError(f"threshold {threshold} is below this graph's {self.threshold}")
        if threshold == self.threshold:
            return self
        kept = np.flatnonzero(self.weights >= threshold)
        # A row's first kept entry is the number of kept entries before the
        # row. Both entries of an edge hold its weight, so no kept entry
        # points at a row left empty.
        linked, indptr, indices = drop_empty_rows(np.searchsorted(kept, self.indptr),
                                                  self.indices[kept])
        return DataSharingGraph(_ids_at(self.nodes, np.flatnonzero(linked)), indptr, indices,
                                self.weights[kept], threshold)


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of edge weights with median and mean (NaN when empty)."""

    counts: dict[int, int]
    mean: float
    median: float


def _row_counts(item: np.ndarray, user_code: np.ndarray, threshold: int):
    """The distinct user codes, and (a, b, count) of the pairs a < b of their
    indices sharing >= ``threshold`` items, sorted by (a, b).

    ``item`` and ``user_code`` list the distinct (item, user) incidences by
    item, then user. Row a of the upper triangle of the user x user product
    holds, for every later user b who requested one of a's items, the number
    of items both requested: Gustavson's row-wise sparse product, restricted
    to one triangle as BLAS ``xSYRK`` computes one triangle of A * A^T. One
    in-place sort of the uint64 words (user code << 32) | incidence position
    orders the incidences by user, and so gives the users and each one's
    index. In that order each incidence pairs its user with the item's later
    users, the incidences after it in its item's run, so each pair is
    expanded once. Whole rows are taken in runs of at most BLOCK pairs (one
    row, if it alone has more), split by ``graph._runs``; each run's keys
    (a << s) | b are sorted in place, counted and thresholded, so the runs'
    counts are final and in key order. Keys are uint32 with s = 16 when the
    users fit in 16 bits, else uint64 with s = 32; a and b come back as
    uint16 or uint32. Codes and incidences number below 2^32. Beyond the
    result and the per-incidence columns, no temporary array holds more than
    one run's pairs.
    """
    by_user = user_code.astype(np.uint64) << np.uint64(32)
    by_user |= np.arange(len(item), dtype=np.uint64)
    by_user.sort()
    order = (by_user & np.uint64(0xFFFFFFFF)).astype(np.intp)  # incidences in user order
    by_user >>= np.uint64(32)
    first = _run_starts(by_user)
    codes = by_user[first]
    wide = len(codes) > 1 << 16
    key_type, user_type, shift = (np.uint64, np.uint32, 32) if wide else (np.uint32, np.uint16, 16)
    high = np.cumsum(first, dtype=key_type) - key_type(1)  # user index, in user order
    low = np.empty_like(high)
    low[order] = high  # user index, in item order
    high <<= key_type(shift)
    later = (np.searchsorted(item, item, side="right") - np.arange(len(item)) - 1)[order]
    bound = np.append(np.flatnonzero(first), len(item))  # where each row starts
    done = np.concatenate(([0], np.cumsum(later)))[bound]  # pairs of the rows before each row
    keys, counts = [np.zeros(0, key_type)], [np.zeros(0, np.int64)]
    for row, stop in _runs(done, BLOCK, len(codes)):
        taken = slice(bound[row], bound[stop])
        run = later[taken]
        before = np.cumsum(run) - run
        # incidence j's k-th partner is incidence j + 1 + k
        partner = np.arange(done[stop] - done[row]) + np.repeat(order[taken] + 1 - before, run)
        pair = np.repeat(high[taken], run)
        pair |= low[partner]
        del partner  # freed before the run is sorted and counted
        pair.sort()
        start = np.flatnonzero(_run_starts(pair))
        c = np.diff(start, append=len(pair))
        heavy = c >= threshold
        keys.append(pair[start[heavy]])
        counts.append(c[heavy])
    key = np.concatenate(keys)
    # a cast to the narrower type keeps the low bits, b
    return codes, (key >> key_type(shift)).astype(user_type), key.astype(user_type), np.concatenate(counts)


def build_dsg(window_trace: Trace, threshold: int) -> DataSharingGraph:
    """Build the data-sharing graph of a window trace.

    Pair weights are counted row by row over the upper triangle: user a's
    row holds, for every later user b who requested one of a's items, the
    number of items both requested. The rows are expanded with array
    operations over the window's distinct (user, item) incidences, which
    never touches the quadratically many user pairs that share nothing, and
    pairs below ``threshold`` are dropped as each run of rows is counted
    (``_row_counts``). The counted pairs are the upper half of the graph's
    CSR; ``symmetric_csr`` mirrors them into the lower half, and only users
    left without entries go. Memory beyond the graph is one run of
    ``graph.BLOCK`` pairs plus arrays over the incidences and the edges.
    Repeat requests by the same user do not raise weights. For several
    thresholds of one window, build at the lowest and take ``at_threshold``
    for the others.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    codes, *upper = _row_counts(*window_trace.incidences(), threshold)
    indptr, indices, weights = symmetric_csr(len(codes), *upper)
    linked, indptr, indices = drop_empty_rows(indptr, indices)
    nodes = _ids_at(window_trace.user_ids, codes[linked])
    return DataSharingGraph(nodes, indptr, indices, weights, threshold)


def weight_distribution(g: DataSharingGraph) -> WeightDistribution:
    """Histogram the edge weights; median/mean are NaN for an empty graph.

    Each edge's weight sits in both of its entries, so the entries hold every
    weight twice: the counts are halved, and the mean and median (the mean of
    the two middle entries) of the doubled multiset are those of the edges.
    """
    weights = g.weights
    if not len(weights):
        return WeightDistribution(counts={}, mean=math.nan, median=math.nan)
    counts = np.bincount(weights)
    values = np.flatnonzero(counts)
    middle = np.searchsorted(np.cumsum(counts), [len(weights) // 2 - 1, len(weights) // 2], side="right")
    return WeightDistribution(
        counts=dict(zip(values.tolist(), (counts[values] // 2).tolist())),
        mean=int(weights.sum()) / len(weights),
        median=float(middle.mean()),
    )
