"""Graph metrics: clustering coefficients, path lengths, random baselines.

Two clustering definitions are computed. cc1 averages, over every node, the
fraction of realized edges among that node's neighbors (nodes with degree
below 2 contribute 0). cc2 is 3 * triangles / connected triples, where a
connected triple is a node with an unordered pair of distinct neighbors.
The random-graph reference values are cc_r = 2|E| / (|V| (|V|-1)) and
l_r = log|V| / log(|E|/|V|); a graph is reported small-world when its
clustering far exceeds cc_r while its average path length stays near l_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError
from .graph import BLOCK, Graph


def _packed_is_cheaper(nodes: int, edges: int, paths: int) -> bool:
    """Whether E * ceil(V/64) word operations undercut the path pass's paths.

    A path costs about three word operations: measured on a 2.0 GHz Xeon,
    one path takes 19-68 ns and one packed word 9-31 ns.
    """
    return edges * -(-nodes // 64) < 3 * paths


def _packed_support(g: Graph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Number of triangles on each edge src[k]-dst[k], by packed-row AND.

    Row i of the packed adjacency has bit j set when j is a neighbour of i,
    in ceil(V/64) uint64 words, so an edge's triangles are
    popcount(row[a] & row[b]) (the edge-iterator with bit-set intersection of
    Schank and Wagner, WEA 2005). The rows are packed one slab of ``width``
    words at a time, V * width <= BLOCK words unless a single word per row
    already exceeds it, and the counts are summed over the slabs. A slab is
    filled from runs of BLOCK CSR entries and read for runs of BLOCK // width
    edges, so no temporary outgrows the slab.
    """
    n = g.node_count
    words = -(-n // 64)
    width = min(words, max(1, BLOCK // n))
    step = max(1, BLOCK // width)
    indptr, indices = g.indptr, g.indices
    support = np.zeros(len(src), dtype=np.int64)
    for w0 in range(0, words, width):
        w1 = min(w0 + width, words)
        slab = np.zeros(n * (w1 - w0), dtype=np.uint64)
        for e0 in range(0, len(indices), BLOCK):
            e1 = min(e0 + BLOCK, len(indices))
            r0 = int(np.searchsorted(indptr, e0, side="right")) - 1
            r1 = int(np.searchsorted(indptr, e1, side="left"))
            rows = np.repeat(np.arange(r0, r1), np.diff(np.clip(indptr[r0:r1 + 1], e0, e1)))
            cols = indices[e0:e1]
            word = cols >> 6
            keep = (word >= w0) & (word < w1)
            bit = np.left_shift(np.uint64(1), (cols[keep] & 63).astype(np.uint64))
            np.bitwise_or.at(slab, rows[keep] * (w1 - w0) + (word[keep] - w0), bit)
        slab = slab.reshape(n, w1 - w0)
        for s0 in range(0, len(src), step):
            a, b = src[s0:s0 + step], dst[s0:s0 + step]
            support[s0:s0 + step] += np.bitwise_count(slab[a] & slab[b]).sum(axis=1, dtype=np.int64)
    return support


def _triangles(g: Graph) -> np.ndarray:
    """Number of triangles through each node, by the cheaper of two kernels.

    Each edge is oriented from its lower to its higher (degree, index) rank,
    which leaves every node at most sqrt(2E) out-neighbours. The path pass
    walks every path a -> b -> c over the oriented edges; the packed kernel
    (``_packed_support``) ANDs two rows of ceil(V/64) words for each edge.
    Each graph goes to the kernel with the smaller cost, three per path
    against one per word of E * ceil(V/64) (``_packed_is_cheaper``): dense
    graphs to the packed kernel, sparse, wide ones to the path pass. The
    packed kernel counts each triangle on all three of its edges, so a
    node's count is half the sum over its incident edges.

    In the path pass a triangle with corners ranked a < b < c is found
    exactly once, as the path a -> b -> c closed by the edge a -> c, and
    credited to all three corners. Sources a are taken in runs of at most 64
    nodes and about BLOCK paths. Bit j of ``mark[c]`` says that c is an
    out-neighbour of the run's j-th node, so closing a path is one lookup in
    an array of V words.
    """
    n = g.node_count
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), g.degrees()))] = np.arange(n)
    rows = g.entry_rows()
    up = rank[rows] < rank[g.indices]
    src, dst = rows[up], g.indices[up]  # sorted by (src, dst)
    del rows, up  # freed before either kernel's temporaries
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=out_ptr[1:])
    head_start = out_ptr[dst]
    paths = out_ptr[dst + 1] - head_start  # paths a -> b -> c through each edge a -> b

    tri = np.zeros(n, dtype=np.int64)
    if _packed_is_cheaper(n, len(src), int(paths.sum())):
        del head_start, paths
        support = _packed_support(g, src, dst)
        np.add.at(tri, src, support)
        np.add.at(tri, dst, support)
        return tri // 2

    before = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum(paths, out=before[1:])
    node_before = before[out_ptr]
    support = np.zeros(len(src), dtype=np.int64)  # triangles closed over each edge a -> b
    mark = np.zeros(n, dtype=np.uint64)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(node_before, node_before[lo] + BLOCK, side="right")) - 1
        hi = min(max(hi, lo + 1), lo + 64)
        e0, e1 = out_ptr[lo], out_ptr[hi]
        run = paths[e0:e1]
        if run.sum():
            bit = np.left_shift(np.uint64(1), (src[e0:e1] - lo).astype(np.uint64))
            np.bitwise_or.at(mark, dst[e0:e1], bit)
            end = np.cumsum(run)
            c = dst[np.repeat(head_start[e0:e1] - (end - run), run) + np.arange(end[-1])]
            hit = (mark[c] & np.repeat(bit, run)) != 0
            closed = np.zeros(len(c) + 1, dtype=np.int64)
            np.cumsum(hit, out=closed[1:])
            support[e0:e1] = closed[end] - closed[end - run]
            tri += np.bincount(c[hit], minlength=n)
            mark[dst[e0:e1]] = 0
        lo = hi
    np.add.at(tri, src, support)
    np.add.at(tri, dst, support)
    return tri


def clustering(g: Graph) -> tuple[float, float, int]:
    """(cc1, cc2, triangles) of a graph, from one triangle pass.

    cc1 is the mean over all nodes of (edges among neighbours) / (k(k-1)/2),
    degree-0 and degree-1 nodes contributing 0, and NaN for an empty graph.
    cc2 is 3 * triangles / connected triples, NaN when there are no triples.
    """
    n = g.node_count
    deg = g.degrees()
    tri = _triangles(g)
    wedges = deg * (deg - 1) // 2
    triangles = int(tri.sum()) // 3
    triples = int(wedges.sum())
    if n == 0:
        cc1 = math.nan
    else:
        ratio = np.divide(tri, wedges, out=np.zeros(n), where=wedges > 0)
        # Summed one node after another in index order, as a plain loop would.
        cc1 = float(np.cumsum(ratio)[-1]) / n
    cc2 = 3 * triangles / triples if triples else math.nan
    return cc1, cc2, triangles


@dataclass(frozen=True)
class DegreeDistribution:
    """Histogram of node degrees."""

    counts: dict[int, int]

    def points(self) -> list[tuple[int, int]]:
        """(degree, count) pairs sorted by degree, ready for log-log plots."""
        return sorted(self.counts.items())


def degree_distribution(g: Graph) -> DegreeDistribution:
    degrees, counts = np.unique(g.degrees(), return_counts=True)
    return DegreeDistribution(counts=dict(zip(degrees.tolist(), counts.tolist())))


def _bfs_batch(g: Graph, sources: np.ndarray) -> tuple[int, np.ndarray]:
    """(sum of hop distances, seen words) of BFS from up to 64 sources at once.

    Bit j of a node's uint64 word is set once source j has reached it. One
    level ORs the frontier words of each node's neighbours together
    (bitwise_or.reduceat over the CSR rows) and keeps the bits not seen yet.
    """
    frontier = np.zeros(g.node_count, dtype=np.uint64)
    frontier[sources] = np.left_shift(np.uint64(1), np.arange(len(sources), dtype=np.uint64))
    seen = frontier.copy()
    linked = np.flatnonzero(g.degrees())
    starts = g.indptr[linked]
    total = 0
    depth = 0
    while linked.size:
        depth += 1
        reached = np.zeros_like(frontier)
        reached[linked] = np.bitwise_or.reduceat(frontier[g.indices], starts)
        reached &= ~seen
        new = int(np.bitwise_count(reached).sum())
        if new == 0:
            break
        total += depth * new
        seen |= reached
        frontier = reached
    return total, seen


def average_path_length(g: Graph, *, sample_fraction: float | None = None, seed: int = 0) -> float:
    """Mean shortest-path hop count of a connected graph.

    Exact mode (sample_fraction=None) runs BFS from every node. Sampled mode
    runs BFS from ceil(sample_fraction * |V|) sources chosen uniformly as
    ``default_rng(seed).choice(|V|, k, replace=False)`` over the nodes sorted
    by id, and averages over (source, other node) pairs; with fraction 1.0 it
    equals the exact mean. BFS runs from 64 sources at once; distance sums are
    accumulated in exact integer arithmetic.

    Raises:
        DisconnectedGraphError: if any BFS fails to reach the whole graph.
    """
    v = g.node_count
    if v < 2:
        raise ValueError("average path length needs at least 2 nodes")

    if sample_fraction is None:
        sources = np.arange(v)
    else:
        if not 0 < sample_fraction <= 1:
            raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
        k = math.ceil(sample_fraction * v)
        sources = np.random.default_rng(seed).choice(v, size=k, replace=False)

    total = 0
    for start in range(0, len(sources), 64):
        batch = sources[start:start + 64]
        dist_sum, seen = _bfs_batch(g, batch)
        missed = int(np.bitwise_or.reduce(~seen)) & ((1 << len(batch)) - 1)
        if missed:
            j = (missed & -missed).bit_length() - 1  # the first source that fell short
            reached = np.count_nonzero(seen & np.uint64(1 << j))
            raise DisconnectedGraphError(
                f"graph is disconnected: BFS from {g.nodes[int(batch[j])]!r} "
                f"reached {reached} of {v} nodes"
            )
        total += dist_sum
    return total / (len(sources) * (v - 1))


def random_baselines(v: int, e: int) -> tuple[float, float]:
    """Clustering and path-length reference values of a random graph.

    cc_r = 2e / (v(v-1)); l_r = log(v) / log(e/v). The log ratio is
    base-independent; natural logs are used. When e <= v the l_r denominator
    is non-positive, so l_r is returned as NaN.
    """
    if v < 2:
        raise ValueError(f"need v >= 2, got {v}")
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    cc_r = 2 * e / (v * (v - 1))
    l_r = math.log(v) / math.log(e / v) if e > v else math.nan
    return cc_r, l_r


@dataclass(frozen=True)
class MetricsReport:
    """All measured and baseline quantities for one graph.

    Clustering, path length, and the random baselines are computed on the
    largest connected component; ratio_cc = cc1/cc_random and
    ratio_l = avg_path_length/l_random are the small-world verdict
    coordinates. Undefined quantities are NaN, with a reason in ``flags``.
    """

    node_count: int
    edge_count: int
    component_count: int
    largest_component_nodes: int
    largest_component_edges: int
    cc1: float
    cc2: float
    avg_path_length: float
    cc_random: float
    l_random: float
    ratio_cc: float
    ratio_l: float
    path_length_method: str
    flags: tuple[str, ...] = ()


def _ratio(num: float, den: float) -> float:
    if math.isnan(num) or math.isnan(den) or den == 0:
        return math.nan
    return num / den


def small_world_report(g: Graph, *, sample_fraction: float | None = None,
                       seed: int = 0) -> MetricsReport:
    """Full metrics report for a graph (largest component for the metrics)."""
    method = "exact" if sample_fraction is None else f"sampled(fraction={sample_fraction},seed={seed})"
    flags: list[str] = []

    component_count, largest = g.largest_component()
    if component_count == 0:
        return MetricsReport(
            node_count=0, edge_count=0, component_count=0,
            largest_component_nodes=0, largest_component_edges=0,
            cc1=math.nan, cc2=math.nan, avg_path_length=math.nan,
            cc_random=math.nan, l_random=math.nan,
            ratio_cc=math.nan, ratio_l=math.nan,
            path_length_method=method, flags=("empty_graph",),
        )

    lv, le = largest.node_count, largest.edge_count

    cc1, cc2, _ = clustering(largest)
    if math.isnan(cc2):
        flags.append("cc2_no_triples")

    if lv >= 2:
        avg_l = average_path_length(largest, sample_fraction=sample_fraction, seed=seed)
        cc_random, l_random = random_baselines(lv, le)
        if math.isnan(l_random):
            flags.append("l_random_unstable")
    else:
        avg_l = cc_random = l_random = math.nan
        flags.append("single_node_component")

    return MetricsReport(
        node_count=g.node_count,
        edge_count=g.edge_count,
        component_count=component_count,
        largest_component_nodes=lv,
        largest_component_edges=le,
        cc1=cc1,
        cc2=cc2,
        avg_path_length=avg_l,
        cc_random=cc_random,
        l_random=l_random,
        ratio_cc=_ratio(cc1, cc_random),
        ratio_l=_ratio(avg_l, l_random),
        path_length_method=method,
        flags=tuple(flags),
    )
