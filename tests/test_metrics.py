import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sharegraph import (
    DisconnectedGraphError,
    MetricsReport,
    ShuffleMode,
    TimeWindow,
    average_path_length,
    build_dsg,
    clustering,
    compare_window,
    degree_distribution,
    generate_clustered_trace,
    generate_synthetic_trace,
    gnm_random_graph,
    null_model_comparison,
    random_baselines,
    slice_window,
    small_world_report,
)
from sharegraph import metrics as metrics_module
from sharegraph import pipeline
from helpers import (
    complete_graph,
    edges,
    graph,
    make_trace,
    oracle_cc1,
    oracle_cc2,
    oracle_triangles,
    path_graph,
    random_connected_graph,
    random_tree,
    ring_of_cliques,
    star_graph,
)

TRIANGLE = complete_graph(3)
PATH3 = path_graph(3)
K4_MINUS_EDGE = graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


# --- clustering, mean-of-node-ratios form ---

def test_cc1_triangle():
    assert clustering(TRIANGLE)[0] == 1.0


def test_cc1_path():
    assert clustering(PATH3)[0] == 0.0


def test_cc1_k4_minus_edge():
    assert clustering(K4_MINUS_EDGE)[0] == pytest.approx(5 / 6, abs=1e-15)


def test_cc1_empty_graph_is_nan():
    assert math.isnan(clustering(graph([]))[0])


# --- clustering, triangle-ratio form ---

def test_cc2_triangle():
    assert clustering(TRIANGLE)[1] == 1.0


def test_cc2_path():
    assert clustering(PATH3)[1] == 0.0


def test_cc2_k4_minus_edge():
    # triples: C(2,2)*2 + C(3,2)*2 = 1+1+3+3 = 8; triangles: 2
    _, cc2, triangles = clustering(K4_MINUS_EDGE)
    assert triangles == 2
    assert cc2 == 0.75


def test_cc2_no_triples_is_nan():
    single_edge = graph([(0, 1)])
    assert math.isnan(clustering(single_edge)[1])


def test_both_clusterings_one_on_complete_graphs():
    for n in (3, 5, 8):
        g = complete_graph(n)
        assert clustering(g)[:2] == (1.0, 1.0)


def test_both_clusterings_zero_on_trees():
    for seed in range(5):
        tree = random_tree(30, seed=seed)
        assert clustering(tree)[:2] == (0.0, 0.0)


def test_clusterings_match_oracles():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(0, max_m + 1))
        g = gnm_random_graph(n, m, seed=int(rng.integers(0, 2**31)))
        got1, got2, _ = clustering(g)
        assert got1 == pytest.approx(oracle_cc1(g), abs=1e-12)
        expected2 = oracle_cc2(g)
        if math.isnan(expected2):
            assert math.isnan(got2)
        else:
            assert got2 == pytest.approx(expected2, abs=1e-12)


def test_triangles_in_small_path_runs_match_oracles(monkeypatch):
    monkeypatch.setattr(metrics_module, "BLOCK", 4)  # many runs, some over budget
    monkeypatch.setattr(metrics_module, "_packed_is_cheaper", lambda *counts: False)
    for seed in range(10):
        g = gnm_random_graph(30, 150, seed=seed)
        cc1, _, triangles = clustering(g)
        assert triangles == oracle_triangles(g)
        assert cc1 == pytest.approx(oracle_cc1(g), abs=1e-12)


def _triangles_peak(g):
    tracemalloc.start()
    try:
        tri = metrics_module._triangles(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return tri, peak


def test_dense_graph_packed_kernel_peaks_below_the_path_pass(monkeypatch):
    # Shaped like the affiliation-1m window (V=1,499, E=73k): its packed rows
    # fit in one slab of 24 x 1,500 words. The packed kernel peaks at 3.30 MiB,
    # the path pass at 5.5 MiB. The bound leaves 0.15 MiB of margin, and an
    # orientation that holds int64 arrays over all 2E entries (3.57 MiB) fails it.
    g = gnm_random_graph(1500, 73_000, seed=0)
    packed, packed_peak = _triangles_peak(g)
    monkeypatch.setattr(metrics_module, "_packed_is_cheaper", lambda *counts: False)
    path, path_peak = _triangles_peak(g)
    assert np.array_equal(packed, path)
    assert packed_peak < path_peak
    assert packed_peak < 3.45 * 2**20


def test_packed_sums_stay_exact_at_the_widest_slab(monkeypatch):
    # Every packed word all ones, so each edge's AND keeps all 64 * 128 bits
    # of its rows, and BLOCK so large that one slab holds all 128 words: each
    # edge's float32 product sums to 8,192, past 2,048, where float16 stops
    # being exact, and each node gets half the sum over its edges. At the
    # real BLOCK a slab is at most BLOCK words wide, so a sum is at most
    # 64 * BLOCK, below 2^24, up to which float32 is exact.
    assert 64 * metrics_module.BLOCK < 2**24
    words = 128
    g = gnm_random_graph(64 * words, 300, seed=0)
    monkeypatch.setattr(metrics_module, "BLOCK", g.node_count * words)
    monkeypatch.setattr(metrics_module, "_pack_slab",
                        lambda g, slab, *runs: slab.fill(np.iinfo(np.uint64).max))
    tri = metrics_module._packed_triangles(g, *metrics_module._orient(g)[:3])
    assert tri.dtype == np.int64
    assert tri.tolist() == (g.degrees() * 64 * words // 2).tolist()


def test_kernel_rule_weighs_a_path_as_three_and_a_half_words():
    # Medians of 15 interleaved calls, each kernel forced. An LCC of the
    # nullmodel-shuffle workload (V=948, E=4,868): 73,020 words against 35,040
    # paths, packed 0.59 ms, path pass 1.27 ms. gnm_random_graph(2000, 30000):
    # 3.20 words a path, packed 3.8 ms, path pass 5.3 ms. On a
    # gnm_random_graph(3000, 60000), 3.53 words a path, the two tie (11.5 ms);
    # on a gnm_random_graph(5000, 150000), 3.97 words a path, the path pass
    # takes 41 ms and packed 51 ms.
    assert metrics_module._packed_is_cheaper(948, 4868, 35040)
    assert metrics_module._packed_is_cheaper(2000, 30000, 300089)
    assert not metrics_module._packed_is_cheaper(3000, 60000, 796387)
    assert not metrics_module._packed_is_cheaper(5000, 150000, 2985894)


def _brute_force_oriented_paths(g):
    """Paths a -> b -> c with every edge oriented from lower to higher (degree, index)."""
    nbrs = [g.indices[g.indptr[u]:g.indptr[u + 1]].tolist() for u in range(g.node_count)]
    rank = [(len(nbrs[u]), u) for u in range(g.node_count)]
    out = [[v for v in nbrs[u] if rank[v] > rank[u]] for u in range(g.node_count)]
    return sum(len(out[b]) for a in range(g.node_count) for b in out[a])


@pytest.mark.parametrize("packed", [False, True])
def test_kernel_rule_reads_the_oriented_path_count(monkeypatch, packed):
    seen = []

    def spy(nodes, edges, paths):
        seen.append((nodes, edges, paths))
        return packed

    monkeypatch.setattr(metrics_module, "_packed_is_cheaper", spy)
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 90))
        g = gnm_random_graph(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), seed=int(rng.integers(0, 2**31)))
        triangles = clustering(g)[2]
        assert seen.pop() == (n, g.edge_count, _brute_force_oriented_paths(g))
        assert triangles == oracle_triangles(g)


# sha256 of a sweep's metrics.csv, whose cells take both triangle kernels,
# of one window's affiliation.csv, and of a windowed null-model comparison's
# two reports (every replicate row, and its weight median and mean): a change
# to a triangle kernel, the build or the shuffles must leave every report
# byte as it was.
REPORT_DIGESTS = {
    "metrics.csv": "48d5dcd6d8bf4647d0577389e1fdbb6314629150421de3f8666291284e4d8024",
    "affiliation.csv": "d4c013aa1ab3a23f2d384a123bd1be93e76850b840655b76c42c2bddf7d2b994",
    "nullmodel.csv": "a2ea89ef607a43038450027c79c224f869bcd948e0e65c8d3ade7fbab247bbc3",
    "nullmodel_summary.csv": "f32733e37426a3a55b4dab749b6a1811cdadb854f2fd3de6b34a96dacc321dfa",
}


def test_report_golden_digests(monkeypatch):
    routes = []
    rule = metrics_module._packed_is_cheaper
    monkeypatch.setattr(metrics_module, "_packed_is_cheaper",
                        lambda *counts: routes.append(rule(*counts)) or routes[-1])
    trace = generate_synthetic_trace(400, 1000, 8000, seed=5, span_seconds=7200)
    spec = pipeline.SweepSpec(window_lengths=(3600,), thresholds=(1, 2), origin=0,
                              sample_fraction=0.5, master_seed=11)
    metrics_csv = pipeline.render_csv(pipeline.METRICS_COLUMNS,
                                      pipeline.metrics_rows("synthetic", pipeline.run_sweep(trace, spec)))
    assert sorted(set(routes)) == [False, True]  # cells on both kernels
    trace = generate_synthetic_trace(400, 3000, 20000, "zipf", seed=5, span_seconds=3600)
    window = TimeWindow(0, 600)
    affiliation_csv = pipeline.render_csv(
        pipeline.AFFILIATION_COLUMNS, pipeline.affiliation_rows(slice_window(trace, window), window, 600))
    trace = generate_clustered_trace(groups=10, users_per_group=8, pool_size=40,
                                     requests_per_user=40, seed=4, span_seconds=7200)
    modes = [ShuffleMode("ST1", 1), ShuffleMode("ST2", 2), ShuffleMode("ST3", 3)]
    comparison = null_model_comparison(trace, TimeWindow(1800, 5400), 2, modes, replicates=2,
                                       sample_fraction=0.5, path_seed=11)
    got = {
        "metrics.csv": metrics_csv,
        "affiliation.csv": affiliation_csv,
        "nullmodel.csv": pipeline.render_csv(pipeline.NULLMODEL_COLUMNS,
                                             pipeline.nullmodel_rows(comparison)),
        "nullmodel_summary.csv": pipeline.render_csv(pipeline.NULLMODEL_SUMMARY_COLUMNS,
                                                     pipeline.nullmodel_summary_rows(comparison)),
    }
    assert {name: hashlib.sha256(text.encode()).hexdigest() for name, text in got.items()} == REPORT_DIGESTS


def test_sparse_graph_takes_the_path_pass_in_bounded_memory(monkeypatch):
    # Full packed rows would take V^2/8 = 312 MB here. The path pass peaks at
    # 6.9 MiB; the bound leaves 1.1 MiB of margin.
    def refuse(*args):
        raise AssertionError("a sparse graph went to the packed kernel")

    monkeypatch.setattr(metrics_module, "_packed_triangles", refuse)
    g = gnm_random_graph(50_000, 100_000, seed=0)
    _, peak = _triangles_peak(g)
    assert peak < 8 * 2**20


def test_removing_an_edge_never_adds_triangles():
    rng = np.random.default_rng(43)
    g = gnm_random_graph(25, 90, seed=9)
    base = clustering(g)[2]
    assert base == oracle_triangles(g)
    all_edges = edges(g)
    for idx in rng.choice(len(all_edges), size=10, replace=False):
        reduced = [e for k, e in enumerate(all_edges) if k != idx]
        assert clustering(graph(reduced, nodes=g.nodes))[2] <= base


# --- degree distribution ---

def test_degree_distribution_examples():
    assert degree_distribution(TRIANGLE).counts == {2: 3}
    assert degree_distribution(star_graph(5)).counts == {1: 5, 5: 1}
    trace = make_trace([("u1", "f1"), ("u1", "f2"), ("u2", "f2"),
                        ("u2", "f3"), ("u3", "f1"), ("u3", "f2")])
    assert degree_distribution(build_dsg(trace, 1)).counts == {2: 3}


def test_degree_distribution_sums():
    g = gnm_random_graph(40, 100, seed=2)
    dist = degree_distribution(g)
    assert sum(dist.counts.values()) == g.node_count
    assert sum(d * c for d, c in dist.counts.items()) == 2 * g.edge_count
    assert dist.points() == sorted(dist.counts.items())


# --- average path length ---

def test_path_length_triangle():
    assert average_path_length(TRIANGLE) == 1.0


def test_path_length_path3():
    assert average_path_length(PATH3) == pytest.approx(4 / 3)


def test_path_length_star10():
    # 10 center-leaf pairs at 1 hop, C(10,2)=45 leaf-leaf pairs at 2 hops
    assert average_path_length(star_graph(10)) == pytest.approx(100 / 55)


def test_path_length_disconnected_raises():
    g = graph([(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        average_path_length(g)


def test_path_length_needs_two_nodes():
    with pytest.raises(ValueError):
        average_path_length(graph([], nodes=[0]))


def test_sampled_fraction_one_equals_exact():
    for seed in (0, 1, 2):
        g = random_connected_graph(60, 150, seed=seed)
        exact = average_path_length(g)
        sampled = average_path_length(g, sample_fraction=1.0, seed=seed)
        assert sampled == exact


def test_sampled_deterministic_for_fixed_seed():
    g = random_connected_graph(100, 250, seed=5)
    a = average_path_length(g, sample_fraction=0.05, seed=11)
    b = average_path_length(g, sample_fraction=0.05, seed=11)
    c = average_path_length(g, sample_fraction=0.05, seed=12)
    assert a == b
    assert a != c


def test_sampled_fraction_validated():
    g = random_connected_graph(10, 12, seed=0)
    with pytest.raises(ValueError):
        average_path_length(g, sample_fraction=0.0)
    with pytest.raises(ValueError):
        average_path_length(g, sample_fraction=1.5)


# --- random baselines ---

TABLE_ROWS = [
    # (lcc_nodes, lcc_edges, cc_r, l_r) for every measured community row
    (35, 142, 0.238, 2.538),
    (20, 88, 0.463, 2.021),
    (14, 43, 0.472, 2.351),
    (107, 757, 0.133, 2.388),
    (78, 438, 0.145, 2.524),
    (35, 226, 0.379, 1.906),
    (1805, 47256, 0.029, 2.296),
    (6049, 1866271, 0.102, 1.519),
    (102, 172, 0.033, 8.851),
    (548, 1690, 0.011, 5.599),
    (3403, 30555, 0.005, 3.705),
    (56, 78, 0.050, 12.148),
]


@pytest.mark.parametrize("v,e,cc_r,l_r", TABLE_ROWS)
def test_random_baselines_reference_rows(v, e, cc_r, l_r):
    got_cc, got_l = random_baselines(v, e)
    assert got_cc == pytest.approx(cc_r, abs=0.005)
    assert got_l == pytest.approx(l_r, abs=0.005)


def test_random_baselines_validation():
    with pytest.raises(ValueError):
        random_baselines(1, 5)
    with pytest.raises(ValueError):
        random_baselines(5, 0)


def test_random_baselines_unstable_when_sparse():
    cc_r, l_r = random_baselines(10, 10)
    assert cc_r == pytest.approx(20 / 90)
    assert math.isnan(l_r)


# --- full report ---

def test_report_on_triangle():
    report = small_world_report(TRIANGLE)
    assert report.cc1 == 1.0
    assert report.cc2 == 1.0
    assert report.avg_path_length == 1.0
    assert report.component_count == 1
    assert math.isfinite(report.ratio_cc)


def test_report_on_ring_of_cliques_is_small_world():
    g = ring_of_cliques(14, 6)
    report = small_world_report(g)
    assert report.component_count == 1
    assert report.ratio_cc > 10
    assert 0.5 <= report.ratio_l <= 2.0


def test_report_on_matched_random_graph_is_not_small_world():
    g = ring_of_cliques(14, 6)
    control = gnm_random_graph(g.node_count, g.edge_count, seed=7)
    report = small_world_report(control)
    assert 0.5 <= report.ratio_cc <= 2.0


_METHODS = ((None, "exact"), (0.5, "sampled(fraction=0.5,seed=4)"))


def _fields(report: MetricsReport) -> dict:
    """Every field of a report; repr() makes NaN equal NaN, and 0.0 unequal 0."""
    return {name: repr(value) for name, value in report._asdict().items()}


def test_report_empty_graph_flagged():
    nan = math.nan
    for fraction, method in _METHODS:
        report = small_world_report(graph([]), sample_fraction=fraction, seed=4)
        assert _fields(report) == _fields(MetricsReport(
            node_count=0, edge_count=0, component_count=0,
            largest_component_nodes=0, largest_component_edges=0,
            cc1=nan, cc2=nan, avg_path_length=nan, cc_random=nan, l_random=nan,
            ratio_cc=nan, ratio_l=nan, path_length_method=method, flags=("empty_graph",)))


def test_report_uses_largest_component():
    # triangle plus a far-away edge: metrics come from the triangle
    g = graph([(0, 1), (0, 2), (1, 2), (10, 11)])
    report = small_world_report(g)
    assert report.component_count == 2
    assert report.largest_component_nodes == 3
    assert report.cc1 == 1.0
    assert report.node_count == 5


def test_report_sampled_method_recorded():
    g = random_connected_graph(50, 120, seed=3)
    report = small_world_report(g, sample_fraction=0.5, seed=9)
    assert report.path_length_method == "sampled(fraction=0.5,seed=9)"


def test_report_of_one_edge_has_nan_cc2_and_its_flags():
    report = small_world_report(graph([(0, 1)]))  # no triples: cc2 is NaN
    assert math.isnan(report.cc2)
    assert report.node_count == 2
    assert report.flags == ("cc2_no_triples", "l_random_unstable")


def test_report_of_isolated_nodes_has_zero_cc1_and_its_flags():
    nan = math.nan
    for fraction, method in _METHODS:
        report = small_world_report(gnm_random_graph(5, 0), sample_fraction=fraction, seed=4)
        assert _fields(report) == _fields(MetricsReport(
            node_count=5, edge_count=0, component_count=5,
            largest_component_nodes=1, largest_component_edges=0,
            cc1=0.0, cc2=nan, avg_path_length=nan, cc_random=nan, l_random=nan,
            ratio_cc=nan, ratio_l=nan, path_length_method=method,
            flags=("cc2_no_triples", "single_node_component")))


def test_one_triangle_pass_per_report_and_per_window(monkeypatch):
    passes = []
    triangles = metrics_module._triangles
    monkeypatch.setattr(metrics_module, "_triangles", lambda g: passes.append(g) or triangles(g))
    small_world_report(ring_of_cliques(5, 4))
    assert len(passes) == 1
    trace = make_trace([("u1", "f1"), ("u2", "f1"), ("u3", "f1"), ("u3", "f2"), ("u4", "f2")])
    assert compare_window(trace)[1].clustering_measured == 0.6
    assert len(passes) == 2
