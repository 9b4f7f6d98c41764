"""Immutable undirected simple graphs in compressed sparse row (CSR) form.

Node ids are interned in sorted order: node index i is the i-th smallest id,
so index order is id order and every row lists its neighbours by ascending
id. Each undirected edge is stored once in each endpoint's row.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

Node = Hashable

# Entries per temporary array in the chunked passes over pairs, paths and
# packed adjacency rows (metrics triangle counting, and dsg.build_dsg, which
# counts whole rows of user pairs in runs of at most this many, or one row if
# it alone has more, and thresholds each run as it goes): 0.5 MB per int64 or
# uint64 array, so a dense window costs time in proportion to its work but no
# more memory beyond its result.
BLOCK = 1 << 16


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def symmetric_csr(n: int, a: np.ndarray, b: np.ndarray):
    """(indptr, indices) of the undirected edges a[k]-b[k] on n nodes.

    Repeated edges collapse into one.
    """
    key = np.unique(np.concatenate([a, b]) * n + np.concatenate([b, a]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // max(n, 1), minlength=n), out=indptr[1:])
    return indptr, key % max(n, 1)


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

    def entry_rows(self) -> np.ndarray:
        """The row (source node index) of every entry of ``indices``."""
        return np.repeat(np.arange(self.node_count), self.degrees())

    def _upper(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, entry mask) of the entries with row < column.

        That is each edge once, in sorted order.
        """
        rows = self.entry_rows()
        keep = rows < self.indices
        return rows[keep], self.indices[keep], keep

    def edges(self) -> list[tuple[Node, Node]]:
        """Each edge once, endpoints ordered, list sorted."""
        rows, cols, _ = self._upper()
        nodes = self.nodes
        return [(nodes[a], nodes[b]) for a, b in zip(rows.tolist(), cols.tolist())]

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

    def _components(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, component labels largest first).

        Ties on size break toward the component whose smallest member sorts
        first, so the ordering is deterministic.
        """
        label = self._component_labels()
        roots, sizes = np.unique(label, return_counts=True)
        return label, roots[np.argsort(-sizes, kind="stable")]

    def largest_component(self) -> tuple[int, "Graph"]:
        """Component count and the induced subgraph of the largest component.

        An empty graph yields (0, itself); a connected one, (1, itself).
        Otherwise the component is a plain ``Graph``: a data-sharing graph's
        weights do not come with it, since no metric reads them.
        """
        if self.node_count == 0:
            return 0, self
        label, roots = self._components()
        if len(roots) == 1:
            return 1, self
        return len(roots), Graph(*self._restrict(label == roots[0]))

    def _restrict(self, node_keep: np.ndarray, entry_keep: np.ndarray | None = None) -> tuple:
        """Subgraph on the kept nodes and entries, relabelled in index order.

        Returns its (nodes, indptr, indices), the constructor's arguments.
        """
        rows = self.entry_rows()
        keep = node_keep[rows] & node_keep[self.indices]
        if entry_keep is not None:
            keep &= entry_keep
        new_index = np.cumsum(node_keep) - 1
        indptr = np.zeros(int(node_keep.sum()) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=self.node_count)[node_keep], out=indptr[1:])
        nodes = self.nodes
        return (
            tuple(nodes[i] for i in np.flatnonzero(node_keep).tolist()),
            indptr,
            new_index[self.indices[keep]],
        )


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
    chosen = rng.choice(total, size=m, replace=False)
    i = np.arange(n, dtype=np.int64)
    row_start = i * (2 * n - i - 1) // 2
    row = np.searchsorted(row_start, chosen, side="right") - 1
    col = chosen - row_start[row] + row + 1
    return Graph(tuple(range(n)), *symmetric_csr(n, row, col))
