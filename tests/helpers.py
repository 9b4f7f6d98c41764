"""Independent oracles and graph/trace builders used across the test suite.

Everything here deliberately takes the slow, direct route (all-pairs set
intersections, node-triple enumeration, union-find, finite differences) so
the fast implementations are checked against a different algorithm.
"""

from __future__ import annotations

import gzip
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sharegraph import DataSharingGraph, Graph, Trace
from sharegraph.graph import symmetric_csr


# ---------------------------------------------------------------------------
# trace inputs

SIX_RECORD_CSV = "u1,f1,0\nu1,f2,1\nu2,f2,2\nu2,f3,3\nu3,f1,4\nu3,f2,5\n"

GZIP_TRACE = gzip.compress(SIX_RECORD_CSV.encode() * 20)

# The same trace, corrupted in each way the parse reports as corrupt gzip input.
CORRUPT_GZIP = [
    pytest.param(GZIP_TRACE[:len(GZIP_TRACE) // 2], id="truncated"),
    pytest.param(GZIP_TRACE[:10] + b"\xff" * 20, id="bad-deflate"),
    pytest.param(GZIP_TRACE[:-8] + b"\0" * 8, id="bad-crc"),
    pytest.param(GZIP_TRACE + b"garbage", id="trailing-garbage"),
    pytest.param(GZIP_TRACE + b"\x1f", id="stray-magic-byte"),
    pytest.param(GZIP_TRACE[:-4] + (len(SIX_RECORD_CSV) * 20 + 1).to_bytes(4, "little"),
                 id="wrong-isize"),
    pytest.param(GZIP_TRACE[:-3], id="truncated-trailer"),
    pytest.param(GZIP_TRACE[:10], id="header-only"),
    # Bytes that zlib checks in a member's header: its CRC when FHCRC (2)
    # is set, and the reserved flag bits.
    pytest.param(GZIP_TRACE[:3] + b"\x02" + GZIP_TRACE[4:10] + b"\0\0" + GZIP_TRACE[10:],
                 id="bad-header-crc"),
    pytest.param(GZIP_TRACE[:3] + b"\x20" + GZIP_TRACE[4:], id="reserved-flag"),
]


# ---------------------------------------------------------------------------
# edge lists

def entry_rows(g: Graph) -> np.ndarray:
    """The row (source node index) of every entry of ``g.indices``."""
    return np.repeat(np.arange(g.node_count), g.degrees())


def edges(g: Graph) -> list[tuple]:
    """Each edge once, endpoints ordered, list sorted: the entries with row < column."""
    rows = entry_rows(g)
    upper = rows < g.indices
    nodes = g.nodes
    return [(nodes[a], nodes[b]) for a, b in zip(rows[upper].tolist(), g.indices[upper].tolist())]


def edge_weights(g: DataSharingGraph) -> np.ndarray:
    """The weight of every edge, once each, in the order of ``edges``."""
    return g.weights[entry_rows(g) < g.indices]


# ---------------------------------------------------------------------------
# clustering oracles

def _adjacency(graph: Graph) -> dict:
    """Each node's set of neighbours, from the sorted edge list."""
    adj = {u: set() for u in graph.nodes}
    for u, v in edges(graph):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def oracle_cc1(graph: Graph) -> float:
    if graph.node_count == 0:
        return float("nan")
    adj = _adjacency(graph)
    total = 0.0
    for u in graph.nodes:
        nb = sorted(adj[u])
        k = len(nb)
        if k < 2:
            continue
        links = sum(1 for a, b in combinations(nb, 2) if b in adj[a])
        total += links / (k * (k - 1) / 2)
    return total / graph.node_count


def oracle_cc2(graph: Graph) -> float:
    """Triangles and connected triples by explicit node-triple enumeration."""
    adj = _adjacency(graph)
    triangles = 0
    triples = 0
    for a, b, c in combinations(graph.nodes, 3):
        edges = (b in adj[a]) + (c in adj[b]) + (c in adj[a])
        if edges == 3:
            triangles += 1
            triples += 3
        elif edges == 2:
            triples += 1
    if triples == 0:
        return float("nan")
    return 3 * triangles / triples


def oracle_node_triangles(graph: Graph) -> list[int]:
    """Triangles through each node, in index order, by node-triple enumeration."""
    adj = _adjacency(graph)
    count = dict.fromkeys(graph.nodes, 0)
    for a, b, c in combinations(graph.nodes, 3):
        if b in adj[a] and c in adj[b] and c in adj[a]:
            count[a] += 1
            count[b] += 1
            count[c] += 1
    return list(count.values())


def oracle_triangles(graph: Graph) -> int:
    return sum(oracle_node_triangles(graph)) // 3


# ---------------------------------------------------------------------------
# data-sharing graph oracle: all-pairs distinct-item-set intersection

def oracle_dsg_edges(trace: Trace, threshold: int) -> dict[tuple[str, str], int]:
    items: dict[str, set[str]] = {}
    for r in trace.records:
        items.setdefault(r.user_id, set()).add(r.item_id)
    edges = {}
    for u, v in combinations(sorted(items), 2):
        shared = len(items[u] & items[v])
        if shared >= threshold:
            edges[(u, v)] = shared
    return edges


# ---------------------------------------------------------------------------
# union-find component oracle

class UnionFind:
    def __init__(self, elements):
        self.parent = {e: e for e in elements}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def oracle_components(nodes, edges) -> list[frozenset]:
    uf = UnionFind(nodes)
    for u, v in edges:
        uf.union(u, v)
    groups: dict = {}
    for n in nodes:
        groups.setdefault(uf.find(n), set()).add(n)
    return sorted((frozenset(g) for g in groups.values()),
                  key=lambda c: (-len(c), min(c)))


# ---------------------------------------------------------------------------
# finite-difference derivative oracle for generating functions

def poly_eval(dist: dict[int, float], x: float) -> float:
    return sum(d * x ** j for j, d in sorted(dist.items()))


def central_d1(f, x: float, h: float = 1e-4) -> float:
    """Five-point central first derivative, O(h^4)."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def central_d2(f, x: float, h: float = 1e-4) -> float:
    """Five-point central second derivative, O(h^4)."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def central_d3(f, x: float, h: float = 1e-3) -> float:
    """Seven-point central third derivative, O(h^4).

    Uses a larger step than the lower orders: the h^-3 division amplifies
    round-off, which dominates below h ~ 1e-3.
    """
    return (-f(x + 3 * h) + 8 * f(x + 2 * h) - 13 * f(x + h)
            + 13 * f(x - h) - 8 * f(x - 2 * h) + f(x - 3 * h)) / (8 * h ** 3)


# ---------------------------------------------------------------------------
# graph builders

def _ids(edges, nodes=()) -> tuple[list, dict]:
    """The sorted ids of the edges and nodes, and each id's index."""
    ids = sorted({*nodes, *(x for pair in edges for x in pair)})
    return ids, {n: i for i, n in enumerate(ids)}


def graph(edges, nodes=()) -> Graph:
    """Graph over the edges' endpoints and the listed nodes; repeated edges collapse."""
    pairs = list(edges)
    ids, index = _ids(pairs, nodes)
    upper = sorted({tuple(sorted((index[u], index[v]))) for u, v in pairs})
    a, b = np.array(upper, dtype=np.int64).reshape(-1, 2).T
    return Graph(tuple(ids), *symmetric_csr(len(ids), a, b))


def dsg(mapping: dict, threshold: int = 1) -> DataSharingGraph:
    """DataSharingGraph from a mapping (u, v) -> weight with u < v."""
    ids, index = _ids(mapping)
    upper = sorted((index[u], index[v], w) for (u, v), w in mapping.items())
    a, b, weights = np.array(upper, dtype=np.int64).reshape(-1, 3).T
    return DataSharingGraph(tuple(ids), *symmetric_csr(len(ids), a, b, weights), threshold)


def weighted_edges(g: DataSharingGraph) -> dict:
    """The mapping (u, v) -> weight, u < v, of a data-sharing graph's edges."""
    return dict(zip(edges(g), edge_weights(g).tolist()))


def complete_graph(n: int) -> Graph:
    return graph(combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return graph((i, i + 1) for i in range(n - 1))


def star_graph(leaves: int) -> Graph:
    return graph(("c", f"x{i}") for i in range(leaves))


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Cliques joined in a ring by one edge between consecutive cliques."""
    edges = []
    for g in range(num_cliques):
        members = [(g, i) for i in range(clique_size)]
        edges.extend(combinations(members, 2))
        edges.append(((g, 0), ((g + 1) % num_cliques, 1)))
    return graph(edges)


def random_connected_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Connected graph: random spanning tree plus random extra edges."""
    assert m >= n - 1
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(n)]
    edges = set()
    for pos in range(1, n):
        anchor = order[int(rng.integers(0, pos))]
        edges.add(tuple(sorted((order[pos], anchor))))
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add(tuple(sorted((u, v))))
    return graph(edges, nodes=range(n))


def random_tree(n: int, seed: int = 0) -> Graph:
    return random_connected_graph(n, n - 1, seed)


# ---------------------------------------------------------------------------
# trace builders

def trace_of(rows) -> Trace:
    """Trace of (user, item, timestamp) tuples, in row order.

    The sorted id tables and the int32 code and int64 time columns are built
    here, not by the parse, and the rows are taken as given: which rows are
    valid is the parse's rule alone.
    """
    rows = list(rows)
    user_ids = tuple(sorted({u for u, _, _ in rows}))
    item_ids = tuple(sorted({i for _, i, _ in rows}))
    user_code = {u: k for k, u in enumerate(user_ids)}
    item_code = {i: k for k, i in enumerate(item_ids)}
    return Trace(
        user_ids, np.array([user_code[u] for u, _, _ in rows], dtype=np.int32),
        item_ids, np.array([item_code[i] for _, i, _ in rows], dtype=np.int32),
        np.array([t for _, _, t in rows], dtype=np.int64),
    )


def make_trace(rows) -> Trace:
    """Trace from (user, item[, timestamp]) tuples; timestamps default to row index."""
    return trace_of(row if len(row) == 3 else (*row, idx) for idx, row in enumerate(rows))


def random_trace(rng: np.random.Generator, users: int, items: int,
                 records: int, span: int = 1000) -> Trace:
    rows = sorted(
        (int(t), f"u{int(u)}", f"i{int(i)}")
        for u, i, t in zip(
            rng.integers(0, users, size=records),
            rng.integers(0, items, size=records),
            rng.integers(0, span, size=records),
        )
    )
    return trace_of((u, i, t) for t, u, i in rows)


# ---------------------------------------------------------------------------
# memory

def traced_peak(step):
    """The result of step() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
