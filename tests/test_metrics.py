import math
import tracemalloc

import numpy as np
import pytest

from sharegraph import (
    DisconnectedGraphError,
    average_path_length,
    build_dsg,
    clustering,
    compare_window,
    degree_distribution,
    gnm_random_graph,
    random_baselines,
    small_world_report,
)
from sharegraph import metrics as metrics_module
from helpers import (
    complete_graph,
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
    # fit in one slab of 24 x 1,500 words. The packed kernel peaks at 4.5 MiB,
    # the path pass at 5.5 MiB; the bound leaves 0.5 MiB of margin.
    g = gnm_random_graph(1500, 73_000, seed=0)
    packed, packed_peak = _triangles_peak(g)
    monkeypatch.setattr(metrics_module, "_packed_is_cheaper", lambda *counts: False)
    path, path_peak = _triangles_peak(g)
    assert np.array_equal(packed, path)
    assert packed_peak < path_peak
    assert packed_peak < 5 * 2**20


def test_kernel_rule_weighs_a_path_as_three_words():
    # An LCC of the nullmodel-shuffle workload (V=948, E=4,868): 73,020 words
    # against 35,040 paths, and the packed kernel was measured faster. On a
    # gnm_random_graph(3000, 60000), 2.82 M words against about 0.8 M paths,
    # the path pass was measured faster.
    assert metrics_module._packed_is_cheaper(948, 4868, 35040)
    assert not metrics_module._packed_is_cheaper(3000, 60000, 796387)


def test_sparse_graph_takes_the_path_pass_in_bounded_memory(monkeypatch):
    # Full packed rows would take V^2/8 = 312 MB here. The path pass peaks at
    # 6.9 MiB; the bound leaves 1.1 MiB of margin.
    def refuse(*args):
        raise AssertionError("a sparse graph went to the packed kernel")

    monkeypatch.setattr(metrics_module, "_packed_support", refuse)
    g = gnm_random_graph(50_000, 100_000, seed=0)
    _, peak = _triangles_peak(g)
    assert peak < 8 * 2**20


def test_removing_an_edge_never_adds_triangles():
    rng = np.random.default_rng(43)
    g = gnm_random_graph(25, 90, seed=9)
    base = clustering(g)[2]
    assert base == oracle_triangles(g)
    edges = g.edges()
    for idx in rng.choice(len(edges), size=10, replace=False):
        reduced = [e for k, e in enumerate(edges) if k != idx]
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


def test_report_empty_graph_flagged():
    report = small_world_report(graph([]))
    assert report.flags == ("empty_graph",)
    assert report.node_count == 0
    assert math.isnan(report.cc1)


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


def test_one_triangle_pass_per_report_and_per_window(monkeypatch):
    passes = []
    triangles = metrics_module._triangles
    monkeypatch.setattr(metrics_module, "_triangles", lambda g: passes.append(g) or triangles(g))
    small_world_report(ring_of_cliques(5, 4))
    assert len(passes) == 1
    trace = make_trace([("u1", "f1"), ("u2", "f1"), ("u3", "f1"), ("u3", "f2"), ("u4", "f2")])
    assert compare_window(trace)[1].clustering_measured == 0.6
    assert len(passes) == 2
