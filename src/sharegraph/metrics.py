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
from typing import NamedTuple

import numpy as np

from .errors import DisconnectedGraphError
from .graph import BLOCK, Graph, _runs


def _packed_is_cheaper(nodes: int, edges: int, paths: int) -> bool:
    """Whether E * ceil(V/64) word operations undercut the path pass's paths.

    A path costs about three and a half word operations: measured on a
    2.0 GHz Xeon, one path takes 15-36 ns and one packed word 4-8 ns. On
    nine random graphs the kernels broke even at 3.2-6.1 words a path, and
    a weight of 3.5 sends all but one of them to the faster kernel.
    """
    return 2 * edges * -(-nodes // 64) < 7 * paths


def _pack_slab(g: Graph, slab: np.ndarray, w0: int, first: np.ndarray, last: np.ndarray) -> None:
    """Write words w0, w0 + 1, ... of every packed adjacency row into ``slab`` (V x w).

    Row r's columns in the slab are ``g.indices[first[r]:last[r]]``. The rows
    are written in dense boolean blocks of rows x 64 * w columns, each at
    most 8 * BLOCK bytes and BLOCK // 4 CSR entries but at least one row,
    packed by ``np.packbits``. A slab of every column reads each block's
    entries as one slice; a narrower one gathers each row's run. Which bit
    holds which column does not change a popcount as long as every row has
    the same layout, so the bytes are viewed as words in machine order.
    """
    n, w = slab.shape
    cols = 64 * w
    count = last - first
    before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(count, out=before[1:])
    whole = not w0 and cols >= n  # then first and before[:-1] are g.indptr[:-1]
    for r0, r1 in _runs(before, max(1, BLOCK // 4), max(1, 8 * BLOCK // cols)):
        if whole:
            col = g.indices[before[r0]:before[r1]]
        else:
            at = np.repeat(first[r0:r1] - before[r0:r1], count[r0:r1])
            at += np.arange(before[r0], before[r1])
            col = g.indices[at] - 64 * w0
        cell = np.repeat(np.arange(0, (r1 - r0) * cols, cols), count[r0:r1])
        cell += col
        block = np.zeros((r1 - r0, cols), dtype=bool)
        block.reshape(-1)[cell] = True
        slab[r0:r1] = np.packbits(block, axis=1, bitorder="little").view(np.uint64)


def _packed_triangles(g: Graph, src: np.ndarray, dst: np.ndarray, out_ptr: np.ndarray) -> np.ndarray:
    """Number of triangles through each node, by packed-row AND over the edges src[k]-dst[k].

    Row i of the packed adjacency has bit j set when j is a neighbour of i,
    in ceil(V/64) uint64 words, so an edge's triangles are
    popcount(row[a] & row[b]) (the edge-iterator with bit-set intersection of
    Schank and Wagner, WEA 2005). The rows are packed one slab of ``width``
    words at a time (``_pack_slab``), V * width <= BLOCK words unless a
    single word per row already exceeds it, and the counts are summed over
    the slabs. A row's columns ascend, so its columns in one slab are one
    run of its entries, found for every row by one ``searchsorted`` per slab
    over the entries keyed by (row, column). A slab is read for runs of
    BLOCK // width edges: the rows of each edge's ends are gathered into two
    buffers, ANDed in place, and the words' popcounts are written as float32
    and summed by a product with a vector of ones, exact because a sum is at
    most 64 * width <= 64 * BLOCK = 2^22 < 2^24. Each edge's count goes to
    its source, by one ``add.reduceat`` over the source's run of out-edges
    from ``out_ptr``, and to its destination; a triangle is counted on all
    three of its edges, so each node's sum counts it twice.
    """
    n = g.node_count
    tri = np.zeros(n, dtype=np.int64)
    if not len(src):
        return tri
    support = np.zeros(len(src), dtype=np.int64)
    words = -(-n // 64)
    width = min(words, max(1, BLOCK // n))
    step = min(len(src), max(1, BLOCK // width))
    first = g.indptr[:-1]
    if width < words:
        row_keys = np.arange(0, n * n, n)
        keys = np.repeat(row_keys, g.degrees())
        keys += g.indices
    for w0 in range(0, words, width):
        w = min(width, words - w0)
        # 64 * (w0 + w) < V unless this is the last slab, so the key stays in its row.
        last = g.indptr[1:] if w0 + w == words else np.searchsorted(keys, row_keys + 64 * (w0 + w))
        slab = np.empty((n, w), dtype=np.uint64)
        _pack_slab(g, slab, w0, first, last)
        first = last
        common, other = np.empty((2, step, w), dtype=np.uint64)
        counts = np.empty((step, w), dtype=np.float32)
        sums = np.empty(step, dtype=np.float32)
        ones = np.ones(w, dtype=np.float32)
        for s0 in range(0, len(src), step):
            k = min(step, len(src) - s0)
            # mode="clip" lets take write straight into out; every index is a row.
            np.take(slab, src[s0:s0 + k], axis=0, out=common[:k], mode="clip")
            np.take(slab, dst[s0:s0 + k], axis=0, out=other[:k], mode="clip")
            common[:k] &= other[:k]
            np.bitwise_count(common[:k], out=counts[:k], casting="unsafe")
            # One word needs no sum, and a product with one column is slower than a copy.
            total = counts[:k, 0] if w == 1 else np.matmul(counts[:k], ones, out=sums[:k])
            np.add(support[s0:s0 + k], total, out=support[s0:s0 + k], casting="unsafe")
    sources = np.flatnonzero(out_ptr[1:] > out_ptr[:-1])
    tri[sources] = np.add.reduceat(support, out_ptr[sources])
    np.add.at(tri, dst, support)
    return tri // 2


def _orient(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(src, dst, out_ptr, paths) of the edges oriented by (degree, index) rank.

    Each edge points from its lower to its higher ranked end, which leaves
    every node at most sqrt(2E) out-neighbours; the rank is the position in
    a stable ``argsort`` of the degrees. Rows are taken in runs of about
    BLOCK entries, and one comparison of each entry's rank with its row's
    marks the out-entries. Their positions give ``dst``, sorted by (src,
    dst), and a ``searchsorted`` of the row offsets among them gives each
    node's first out-edge, ``out_ptr``. ``paths`` is the number of paths
    a -> b -> c: each is an in-edge and an out-edge of its middle node b,
    whose in-degree is its degree less its out-degree.
    """
    n = g.node_count
    indptr, indices = g.indptr, g.indices
    deg = g.degrees()
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    up = np.empty(len(indices), dtype=bool)
    for r0, r1 in _runs(indptr, BLOCK, n):
        e0, e1 = indptr[r0], indptr[r1]
        np.greater(rank[indices[e0:e1]], np.repeat(rank[r0:r1], deg[r0:r1]), out=up[e0:e1])
    kept = np.flatnonzero(up)
    out_ptr = np.searchsorted(kept, indptr)
    out = np.diff(out_ptr)
    return np.repeat(np.arange(n), out), indices[kept], out_ptr, int((deg - out) @ out)


def _path_triangles(g: Graph, src: np.ndarray, dst: np.ndarray, out_ptr: np.ndarray) -> np.ndarray:
    """Number of triangles through each node, by the path pass over the oriented edges.

    A triangle with corners ranked a < b < c is found exactly once, as the
    path a -> b -> c closed by the edge a -> c, and all three corners are
    credited then. Sources a are taken in runs of at most 64 nodes and about
    BLOCK paths. Bit j of ``mark[c]`` says that c is an out-neighbour of the
    run's j-th node, so closing a path is one lookup in an array of V words.
    """
    tri = np.zeros(g.node_count, dtype=np.int64)
    head_start = out_ptr[dst]
    paths = out_ptr[dst + 1] - head_start  # paths a -> b -> c through each edge a -> b
    before = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum(paths, out=before[1:])
    mark = np.zeros(g.node_count, dtype=np.uint64)
    for lo, hi in _runs(before[out_ptr], BLOCK, 64):
        e0, e1 = out_ptr[lo], out_ptr[hi]
        run = paths[e0:e1]
        if run.sum():
            bit = np.left_shift(np.uint64(1), (src[e0:e1] - lo).astype(np.uint64))
            np.bitwise_or.at(mark, dst[e0:e1], bit)
            end = np.cumsum(run)
            c = dst[np.repeat(head_start[e0:e1] - (end - run), run) + np.arange(end[-1])]
            hit = np.flatnonzero(mark[c] & np.repeat(bit, run))
            e = e0 + np.searchsorted(end, hit, side="right")  # each closed path's first edge
            np.add.at(tri, np.concatenate((src[e], dst[e], c[hit])), 1)
            mark[dst[e0:e1]] = 0
    return tri


def _triangles(g: Graph) -> np.ndarray:
    """Number of triangles through each node, by the cheaper of two kernels.

    The edges are oriented by degree rank (``_orient``). The path pass
    (``_path_triangles``) walks every path a -> b -> c over the oriented
    edges; the packed kernel (``_packed_triangles``) ANDs two rows of
    ceil(V/64) words for each edge. Each graph goes to the kernel with the
    smaller cost, 3.5 per path against one per word of E * ceil(V/64)
    (``_packed_is_cheaper``): dense graphs to the packed kernel, sparse, wide
    ones to the path pass. The per-edge path arrays are built only when the
    path pass runs. Both kernels take the oriented edges and return every
    node's count.
    """
    src, dst, out_ptr, path_count = _orient(g)
    if _packed_is_cheaper(g.node_count, len(src), path_count):
        return _packed_triangles(g, src, dst, out_ptr)
    return _path_triangles(g, src, dst, out_ptr)


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


class DegreeDistribution(NamedTuple):
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


def _check_sample_fraction(sample_fraction: float | None) -> None:
    """Raise ValueError unless ``sample_fraction`` is None (exact) or in (0, 1]."""
    if sample_fraction is not None and not 0 < sample_fraction <= 1:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")


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
    _check_sample_fraction(sample_fraction)

    if sample_fraction is None:
        sources = np.arange(v)
    else:
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


class MetricsReport(NamedTuple):
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
    lv, le = largest.node_count, largest.edge_count
    cc1 = cc2 = avg_l = cc_random = l_random = math.nan
    if component_count == 0:
        flags.append("empty_graph")
    else:
        cc1, cc2, _ = clustering(largest)
        if math.isnan(cc2):
            flags.append("cc2_no_triples")
        if lv < 2:
            flags.append("single_node_component")
        else:
            avg_l = average_path_length(largest, sample_fraction=sample_fraction, seed=seed)
            cc_random, l_random = random_baselines(lv, le)
            if math.isnan(l_random):
                flags.append("l_random_unstable")

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
