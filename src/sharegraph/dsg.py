"""Weighted data-sharing graphs built from windowed request traces.

Nodes are users; an edge joins two users whose sets of distinct requested
items overlap by at least the threshold inside the window. Edge weight is the
size of that overlap. Zero-weight pairs and isolated users never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BLOCK, Graph, _readonly, symmetric_csr
from .trace import Trace


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

    def edge_weights(self) -> np.ndarray:
        """The weight of every edge, once each, in sorted edge order."""
        return self.weights[self._upper()[2]]

    def at_threshold(self, threshold: int) -> "DataSharingGraph":
        """The graph of the same window at a threshold no lower than this one's.

        Edges lighter than ``threshold`` go, and so do the users they leave
        isolated; the weights need no recount.
        """
        if threshold < self.threshold:
            raise ValueError(f"threshold {threshold} is below this graph's {self.threshold}")
        if threshold == self.threshold:
            return self
        heavy = self.weights >= threshold
        linked = np.bincount(self.entry_rows()[heavy], minlength=self.node_count) > 0
        # Both ends of a heavy entry are linked, so heavy is the kept-entry mask.
        return DataSharingGraph(*self._restrict(linked, heavy), self.weights[heavy], threshold)


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of edge weights with median and mean (NaN when empty)."""

    counts: dict[int, int]
    mean: float
    median: float


def _row_counts(item: np.ndarray, user: np.ndarray, n_users: int, threshold: int):
    """(a, b, count) of the user pairs a < b sharing >= ``threshold`` items, sorted by (a, b).

    ``item`` and ``user`` list the distinct (item, user) incidences by item,
    then user. Row a of the upper triangle of the user x user product holds,
    for every later user b who requested one of a's items, the number of
    items both requested: Gustavson's row-wise sparse product, restricted to
    one triangle as BLAS ``xSYRK`` computes one triangle of A * A^T. Taken in
    user order, each incidence pairs its user with the incidences that follow
    it in its item's run, the item's later users, so each unordered pair is
    expanded once. Rows are taken whole in runs of at most BLOCK pairs (one
    row, if it alone has more), and each run's keys (a << s) | b are sorted,
    counted and thresholded there. So every run's counts are final and the
    runs follow one another in key order. Keys are uint32 with s = 16 when
    the users fit in 16 bits, else uint64 with s = 32; a and b come back in
    the matching uint16 or uint32. Apart from the result and the
    per-incidence columns, no temporary array holds more than one run's
    pairs.
    """
    wide = n_users > 1 << 16
    key_type, user_type, shift = (np.uint64, np.uint32, 32) if wide else (np.uint32, np.uint16, 16)
    later = np.searchsorted(item, item, side="right") - np.arange(len(item)) - 1
    order = np.argsort(user, kind="stable")
    later = later[order]
    low = user.astype(key_type)
    high = low[order] << key_type(shift)
    bound = np.searchsorted(user[order], np.arange(n_users + 1))  # where each row starts
    done = np.concatenate(([0], np.cumsum(later)))[bound]  # pairs of the rows before each row
    keys, counts = [np.zeros(0, key_type)], [np.zeros(0, np.int64)]
    row = 0
    while row < n_users:
        stop = max(row + 1, int(np.searchsorted(done, done[row] + BLOCK, side="right")) - 1)
        taken = slice(bound[row], bound[stop])
        run = later[taken]
        before = np.cumsum(run) - run
        # incidence j's k-th partner is incidence j + 1 + k
        partner = np.arange(done[stop] - done[row]) + np.repeat(order[taken] + 1 - before, run)
        pair = np.repeat(high[taken], run)
        pair |= low[partner]
        del partner  # freed before np.unique copies the keys
        k, c = np.unique(pair, return_counts=True)
        heavy = c >= threshold
        keys.append(k[heavy])
        counts.append(c[heavy])
        row = stop
    key = np.concatenate(keys)
    # a cast to the narrower type keeps the low bits, b
    return (key >> key_type(shift)).astype(user_type), key.astype(user_type), np.concatenate(counts)


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
    item, user_code = window_trace.incidences()
    codes, user = np.unique(user_code, return_inverse=True)
    n = len(codes)
    indptr, indices, weights = symmetric_csr(n, *_row_counts(item, user, n, threshold))
    linked = indptr[1:] > indptr[:-1]
    if not linked.all():
        indptr = indptr[np.concatenate(([True], linked))]
        indices = (np.cumsum(linked) - 1)[indices]
    users = window_trace.user_ids
    nodes = tuple(users[c] for c in codes[linked].tolist())
    return DataSharingGraph(nodes, indptr, indices, weights, threshold)


def weight_distribution(g: DataSharingGraph) -> WeightDistribution:
    """Histogram the edge weights; median/mean are NaN for an empty graph."""
    weights = g.edge_weights()
    if not len(weights):
        return WeightDistribution(counts={}, mean=math.nan, median=math.nan)
    values, counts = np.unique(weights, return_counts=True)
    return WeightDistribution(
        counts=dict(zip(values.tolist(), counts.tolist())),
        mean=int(weights.sum()) / len(weights),
        median=float(np.median(weights)),
    )
