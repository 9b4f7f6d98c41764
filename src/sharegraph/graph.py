"""Immutable undirected simple graphs in compressed sparse row (CSR) form.

Node ids are interned in sorted order: node index i is the i-th smallest id,
so index order is id order and every row lists its neighbours by ascending
id. Each undirected edge is stored once in each endpoint's row.
"""

from __future__ import annotations

import operator

import numpy as np

# Entries per temporary array in the chunked passes over pairs, paths and
# packed adjacency rows (metrics triangle counting and dsg.build_dsg), each
# taking its runs of whole rows from ``_runs``, the one chunking rule: 0.5 MB
# per int64 or uint64 array, so a dense window costs time in proportion to
# its work but no more memory beyond its result.
BLOCK = 1 << 16


def _runs(before: np.ndarray, budget: int, most: int):
    """Consecutive runs [lo, hi) over the len(before) - 1 rows, in order.

    ``before[r]`` counts the items of the rows before row r. A run holds at
    most ``most`` rows and ``budget`` items, but at least one row.
    """
    n = len(before) - 1
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(before, before[lo] + budget, side="right")) - 1
        hi = min(max(hi, lo + 1), lo + most)
        yield lo, hi
        lo = hi


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def symmetric_csr(n: int, a: np.ndarray, b: np.ndarray, values: np.ndarray | None = None):
    """(indptr, indices) of the undirected edges a[k]-b[k] on n nodes, and entry values.

    The pairs must be distinct, with a < b, and sorted by (a, b): they are
    the upper half of the CSR, in order. Row r lists its lower entries, the
    pairs (a, r), before its upper entries (r, b). The pairs sorted by b,
    ties kept in order, are the lower entries in that order, so the lower
    half is the upper half mirrored, not sorted again. That sort runs on one
    uint64 word per pair, b above the pair's number, which numpy sorts
    faster than a stable argsort of b alone; so n and the number of pairs
    must be below 2^32. Each row's lower and upper counts are found by a
    ``searchsorted`` of the n row numbers among those words and among a:
    on a dense window (2,530 rows, 71,870 pairs) that took 0.08 ms each,
    against 0.10 and 0.19 ms for a ``bincount`` of b and of a. Given ``values``,
    one per pair, a third array gives each entry its pair's value.
    """
    e = len(a)
    mirror = b.astype(np.uint64) << np.uint64(32)
    mirror |= np.arange(e, dtype=np.uint64)
    mirror.sort()
    lower = np.diff(np.searchsorted(mirror, np.arange(n, dtype=np.uint64) << np.uint64(32)), append=e)
    upper = np.diff(np.searchsorted(a, np.arange(n, dtype=a.dtype)), append=e)
    mirror &= np.uint64(0xFFFFFFFF)
    mirror = mirror.view(np.int64)  # the pair numbers in lower-half order
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(upper + lower, out=indptr[1:])
    is_lower = np.repeat(np.tile([True, False], n), np.column_stack((lower, upper)).ravel())
    is_upper = ~is_lower
    indices = np.empty(len(is_lower), dtype=np.int64)
    indices[is_lower] = a[mirror]
    indices[is_upper] = b
    if values is None:
        return indptr, indices
    entry_values = np.empty(len(is_lower), dtype=values.dtype)
    entry_values[is_lower] = values[mirror]
    entry_values[is_upper] = values
    return indptr, indices, entry_values


def drop_empty_rows(indptr: np.ndarray, indices: np.ndarray):
    """(linked, indptr, indices) with the rows that have no entries removed.

    ``linked`` marks the rows kept. No entry may point at a dropped row; the
    kept rows are relabelled in order.
    """
    linked = indptr[1:] > indptr[:-1]
    if not linked.all():
        indptr = indptr[np.concatenate(([True], linked))]
        indices = (np.cumsum(linked) - 1)[indices]
    return linked, indptr, indices


def _ids_at(ids: tuple, index: np.ndarray) -> tuple:
    """The ids at the given positions, in order, gathered by one C-level call."""
    index = index.tolist()
    return operator.itemgetter(*index)(ids) if len(index) > 1 else tuple(ids[i] for i in index)


class Graph:
    """Undirected simple graph over sortable hashable node ids.

    ``nodes`` is the tuple of ids in sorted order. ``indptr`` (length V + 1)
    and ``indices`` (length 2E) are int64 arrays, made read-only here: the
    neighbours of node index i are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending; ``symmetric_csr`` builds them from index pairs. The arrays
    never change after construction, so instances are safe to share across
    threads for concurrent read-only traversal.
    """

    __slots__ = ("nodes", "indptr", "indices")

    def __init__(self, nodes: tuple, indptr: np.ndarray, indices: np.ndarray):
        self.nodes = nodes
        self.indptr = _readonly(indptr)
        self.indices = _readonly(indices)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.nodes == other.nodes
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.node_count}, edges={self.edge_count})"

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every node, in index order."""
        return np.diff(self.indptr)

    def _component_labels(self) -> np.ndarray:
        """Each node's label: the index of the smallest node of its component.

        Labels start as the node's own index and repeatedly take the smallest
        label among the node's neighbours, with pointer jumping
        (label = label[label]) in between. A label is always a node of the
        same component and never increases; at the fixed point it is equal
        across every edge, hence constant on a component and equal to its
        smallest index.
        """
        label = np.arange(self.node_count)
        linked = np.flatnonzero(self.degrees())
        starts = self.indptr[linked]
        while linked.size:
            new = label.copy()
            new[linked] = np.minimum(label[linked], np.minimum.reduceat(label[self.indices], starts))
            jumped = new[new]
            while not np.array_equal(jumped, new):
                new, jumped = jumped, jumped[jumped]
            if np.array_equal(new, label):
                break
            label = new
        return label

    def largest_component(self) -> tuple[int, "Graph"]:
        """Component count and the induced subgraph of the largest component.

        An empty graph yields (0, itself); a connected one, (1, itself).
        Otherwise the component is a plain ``Graph``: a data-sharing graph's
        weights do not come with it, since no metric reads them. Ties on size
        go to the component whose smallest member sorts first: ``argmax``
        takes the first largest over the roots in ascending order.
        """
        if self.node_count == 0:
            return 0, self
        label = self._component_labels()
        roots, sizes = np.unique(label, return_counts=True)
        if len(roots) == 1:
            return 1, self
        keep = label == roots[np.argmax(sizes)]
        # A component is closed: its rows keep all their entries and no others.
        degrees = self.degrees()
        indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
        np.cumsum(degrees[keep], out=indptr[1:])
        indices = (np.cumsum(keep) - 1)[self.indices[np.repeat(keep, degrees)]]
        return len(roots), Graph(_ids_at(self.nodes, np.flatnonzero(keep)), indptr, indices)


def gnm_random_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Uniform random graph with n integer nodes and exactly m edges.

    Edge k of the row-major upper triangle is (i, j) with i the row whose
    first edge number is the largest one <= k.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"m must be in [0, {total}], got {m}")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(total, size=m, replace=False))  # row-major is (row, col) order
    i = np.arange(n, dtype=np.int64)
    row_start = i * (2 * n - i - 1) // 2
    row = np.searchsorted(row_start, chosen, side="right") - 1
    col = chosen - row_start[row] + row + 1
    return Graph(tuple(range(n)), *symmetric_csr(n, row, col))
