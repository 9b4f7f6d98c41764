"""Weighted data-sharing graphs built from windowed request traces.

Nodes are users; an edge joins two users whose sets of distinct requested
items overlap by at least the threshold inside the window. Edge weight is the
size of that overlap. Zero-weight pairs and isolated users never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BLOCK, Graph, _readonly
from .trace import TimeWindow, Trace


class DataSharingGraph(Graph):
    """Weighted undirected user graph for one (window, threshold) pair.

    A CSR ``Graph`` plus ``weights``, a read-only array with one value per
    entry of ``indices``: the count of distinct items the entry's two users
    both requested. ``build_dsg`` and ``at_threshold`` make every weight >=
    ``threshold`` and every node's degree >= 1; the constructor takes the
    CSR arrays as given.
    """

    __slots__ = ("weights", "threshold", "window")

    def __init__(self, nodes: tuple, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray, threshold: int, window: TimeWindow | None = None):
        super().__init__(nodes, indptr, indices)
        self.weights = _readonly(weights)
        self.threshold = threshold
        self.window = window

    def __eq__(self, other):
        equal = super().__eq__(other)
        if equal is NotImplemented or not equal:
            return equal
        return (np.array_equal(self.weights, other.weights)
                and self.threshold == other.threshold and self.window == other.window)

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
        return DataSharingGraph(*self._restrict(linked, heavy), self.weights[heavy],
                                threshold, self.window)


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of edge weights with median and mean (NaN when empty)."""

    counts: dict[int, int]
    mean: float
    median: float


def _row_counts(item: np.ndarray, user: np.ndarray, n_users: int, threshold: int):
    """Keys a * n_users + b of the user pairs sharing >= ``threshold`` items, and those counts.

    ``item`` and ``user`` list the distinct (item, user) incidences by item,
    then user. Taken in user order, each incidence pairs its user a with
    every other user b of its item, so row a of the user x user product
    gathers all its pairs (a, b) (Gustavson's row-wise sparse product).
    Rows are taken whole in runs of at most BLOCK pairs (one row, if it alone
    has more), and each run's keys are counted and thresholded there. So every
    run's counts are final, the runs follow one another in key order, and the
    result, both directions of every edge, is already in CSR order. Apart
    from the result and the per-incidence columns, no temporary array holds
    more than one run's pairs.
    """
    start = np.searchsorted(item, item)
    order = np.argsort(user, kind="stable")
    others = np.searchsorted(item, item, side="right")[order] - start[order] - 1
    bound = np.searchsorted(user[order], np.arange(n_users + 1))  # where each row starts
    done = np.concatenate(([0], np.cumsum(others)))[bound]  # pairs of the rows before each row
    keys, counts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    row = 0
    while row < n_users:
        stop = max(row + 1, int(np.searchsorted(done, done[row] + BLOCK, side="right")) - 1)
        taken = slice(bound[row], bound[stop])
        run = others[taken]
        first = np.repeat(order[taken], run)
        # incidence j's k-th partner sits at start[j] + k, or one further once past j
        partner = start[first] + np.arange(len(first)) - np.repeat(np.cumsum(run) - run, run)
        partner += partner >= first
        pair = user[first] * n_users + user[partner]
        del first, partner  # freed before np.unique copies the keys
        k, c = np.unique(pair, return_counts=True)
        heavy = c >= threshold
        keys.append(k[heavy])
        counts.append(c[heavy])
        row = stop
    return np.concatenate(keys), np.concatenate(counts)


def build_dsg(window_trace: Trace, threshold: int, window: TimeWindow | None = None) -> DataSharingGraph:
    """Build the data-sharing graph of a window trace.

    Pair weights are counted row by row: user a's row holds, for every other
    user b who requested one of a's items, the number of items both
    requested. The rows are expanded with array operations over the window's
    distinct (user, item) incidences, which never touches the quadratically
    many user pairs that share nothing, and pairs below ``threshold`` are
    dropped as each run of rows is counted (``_row_counts``). The counted
    rows are the graph's CSR rows; only users left without entries go.
    Memory beyond the graph is one run of ``graph.BLOCK`` pairs plus arrays
    over the incidences. Repeat requests by the same user do not raise
    weights. For several thresholds of one window, build at the lowest and
    take ``at_threshold`` for the others.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    item, user_code = window_trace.incidences()
    codes, user = np.unique(user_code, return_inverse=True)
    n = len(codes)
    key, weights = _row_counts(item, user, n, threshold)

    degree = np.diff(np.searchsorted(key, np.arange(n + 1) * n))
    linked = degree > 0
    indptr = np.zeros(int(linked.sum()) + 1, dtype=np.int64)
    np.cumsum(degree[linked], out=indptr[1:])
    indices = (np.cumsum(linked) - 1)[key % max(n, 1)]
    users = window_trace.user_ids
    nodes = tuple(users[c] for c in codes[linked].tolist())
    return DataSharingGraph(nodes, indptr, indices, weights, threshold, window)


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
