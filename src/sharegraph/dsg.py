"""Weighted data-sharing graphs built from windowed request traces.

Nodes are users; an edge joins two users whose sets of distinct requested
items overlap by at least the threshold inside the window. Edge weight is the
size of that overlap. Zero-weight pairs and isolated users never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BLOCK, Graph, symmetric_csr
from .trace import TimeWindow, Trace


class DataSharingGraph(Graph):
    """Weighted undirected user graph for one (window, threshold) pair.

    A CSR ``Graph`` whose ``weights`` hold, for each edge, the count of
    distinct items its two users both requested. ``build_dsg`` and
    ``at_threshold`` make every weight >= ``threshold`` and every node's
    degree >= 1; the constructor takes the CSR arrays as given. Unlike
    ``Graph.edges()``, ``edges`` here is the mapping (u, v) -> weight with
    u < v.
    """

    __slots__ = ("threshold", "window")

    def __init__(self, nodes: tuple, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray, threshold: int, window: TimeWindow | None = None):
        super().__init__(nodes, indptr, indices, weights)
        self.threshold = threshold
        self.window = window

    def _derived(self, nodes, indptr, indices, weights) -> "DataSharingGraph":
        return DataSharingGraph(nodes, indptr, indices, weights, self.threshold, self.window)

    def __eq__(self, other):
        equal = super().__eq__(other)
        if equal is NotImplemented or not equal:
            return equal
        return self.threshold == other.threshold and self.window == other.window

    __hash__ = None

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        rows, cols, keep = self._upper()
        nodes = self.nodes
        return {(nodes[a], nodes[b]): w
                for a, b, w in zip(rows.tolist(), cols.tolist(), self.weights[keep].tolist())}

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
        return DataSharingGraph(*self._restrict(linked, heavy), threshold, self.window)


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of edge weights with median and mean (NaN when empty)."""

    counts: dict[int, int]
    mean: float
    median: float

    @property
    def edge_count(self) -> int:
        return sum(self.counts.values())


def _pair_weights(user: np.ndarray, group_end: np.ndarray, n_users: int):
    """Distinct user pairs (as a * n_users + b, a < b) and their shared-item counts.

    ``user`` lists the distinct (item, user) incidences grouped by item with
    users ascending inside a group; ``group_end[j]`` is the end of
    incidence j's group. Incidence j pairs with every later one of its group.
    Incidences are taken in runs of at most BLOCK pairs, so no temporary
    array holds more than one run's pairs (or one incidence's, if more).
    """
    if not len(user):
        return user, user
    later = group_end - np.arange(len(user)) - 1
    done = np.cumsum(later)
    keys, counts = [], []
    start = 0
    while start < len(user):
        before = int(done[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(done, before + BLOCK, side="right")))
        run = later[start:stop]
        first = np.repeat(np.arange(start, stop), run)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(run) - run, run)
        pair = user[first] * n_users + user[first + 1 + offset]
        k, c = np.unique(pair, return_counts=True)
        keys.append(k)
        counts.append(c)
        start = stop
    if len(keys) == 1:
        return keys[0], counts[0]
    pair, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    return pair, np.bincount(inverse, weights=np.concatenate(counts)).astype(np.int64)


def build_dsg(window_trace: Trace, threshold: int, window: TimeWindow | None = None) -> DataSharingGraph:
    """Build the data-sharing graph of a window trace.

    Pair weights are counted item by item: every pair of distinct users of
    one item shares it. The pairs are expanded with array operations over the
    window's distinct (user, item) incidences, which never touches the
    quadratically many user pairs that share nothing. Repeat requests by the
    same user do not raise weights. For several thresholds of one window,
    build at the lowest and take ``at_threshold`` for the others.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    item, user_code = window_trace.incidences()
    codes, user = np.unique(user_code, return_inverse=True)
    n = len(codes)
    pair, weight = _pair_weights(user, np.searchsorted(item, item, side="right"), n)

    heavy = weight >= threshold
    a, b = np.divmod(pair[heavy], max(n, 1))
    linked = np.zeros(n, dtype=bool)
    linked[a] = linked[b] = True
    new_index = np.cumsum(linked) - 1
    users = window_trace.user_ids
    nodes = tuple(users[c] for c in codes[linked].tolist())
    csr = symmetric_csr(len(nodes), new_index[a], new_index[b], weight[heavy])
    return DataSharingGraph(nodes, *csr, threshold, window)


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
