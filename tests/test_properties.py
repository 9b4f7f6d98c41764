"""Property tests: the CSR graph algorithms against the brute-force oracles in
helpers.py and against networkx, on random graphs with disconnected parts,
isolated nodes, string ids and equal-size components."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharegraph import (
    DisconnectedGraphError,
    average_path_length,
    build_dsg,
    clustering,
    gnm_random_graph,
)
from sharegraph import metrics as metrics_module
from helpers import (
    edges,
    graph,
    make_trace,
    oracle_cc1,
    oracle_cc2,
    oracle_dsg_edges,
    oracle_node_triangles,
    oracle_triangles,
    star_graph,
    weighted_edges,
)


@st.composite
def graphs(draw):
    """(Graph, the same graph in networkx).

    String ids ("v10" sorts before "v2") make index order differ from
    creation order. With ``copies`` > 1 the edges are repeated on disjoint
    node sets, which gives components of equal size.
    """
    n = draw(st.integers(0, 12))
    copies = draw(st.integers(1, 3))
    text = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
                          .filter(lambda p: p[0] != p[1]), max_size=30)) if n >= 2 else []
    isolated = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)) if n else []
    name = (lambda c, i: f"v{c * n + i}") if text else (lambda c, i: c * n + i)
    edges = [(name(c, a), name(c, b)) for c in range(copies) for a, b in pairs]
    nodes = [name(c, i) for c in range(copies) for i in isolated]
    reference = nx.Graph(edges)
    reference.add_nodes_from(nodes)
    return graph(edges, nodes=nodes), reference


def close(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= 1e-12


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_clustering_and_counts_match_oracles(pair):
    g, reference = pair
    assert g.nodes == tuple(sorted(reference.nodes))
    assert g.edge_count == reference.number_of_edges()
    cc1, cc2, triangles = clustering(g)
    assert close(cc1, oracle_cc1(g))
    assert close(cc2, oracle_cc2(g))
    assert triangles == oracle_triangles(g)

    assert triangles == sum(nx.triangles(reference).values()) // 3
    if g.node_count:
        assert close(cc1, nx.average_clustering(reference))
    if any(d >= 2 for _, d in reference.degree()):
        assert close(cc2, nx.transitivity(reference))


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_components_match_oracle_order(pair):
    g, reference = pair
    count, largest = g.largest_component()
    assert count == nx.number_connected_components(reference)
    if count:
        want = min(nx.connected_components(reference), key=lambda c: (-len(c), min(c)))
        assert largest.nodes == tuple(sorted(want))
        assert largest.edge_count == reference.subgraph(want).number_of_edges()


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_path_length_matches_networkx(pair):
    g, reference = pair
    if g.node_count >= 2 and not nx.is_connected(reference):
        with pytest.raises(DisconnectedGraphError):
            average_path_length(g)
    _, largest = g.largest_component()
    if largest.node_count < 2:
        return
    exact = average_path_length(largest)
    assert average_path_length(largest, sample_fraction=1.0, seed=3) == exact
    want = nx.average_shortest_path_length(reference.subgraph(largest.nodes))
    assert abs(exact - want) <= 1e-12


@st.composite
def wide_graphs(draw):
    """(random graph on up to 150 nodes, a slab budget of one or two words per row).

    Over 64 nodes a packed row takes two or three words, so the budget splits
    the rows into several slabs, the last one narrower when three words go
    in slabs of two.
    """
    n = draw(st.one_of(st.integers(2, 64), st.integers(65, 128), st.integers(129, 150)))
    m = draw(st.integers(0, min(n * (n - 1) // 2, 1500)))
    g = gnm_random_graph(n, m, seed=draw(st.integers(0, 2**32 - 1)))
    return g, draw(st.integers(1, 2)) * n + draw(st.integers(0, n - 1))


# A budget so small that a slab is one word wide and a dense block of the
# packed fill holds at most five rows and ten CSR entries, or one row that
# has more entries.
TINY_BLOCK = 40


def assert_each_kernel_counts(g, want, small_budget):
    """Every route of ``_triangles`` gives ``want``: the path pass, and the
    packed kernel in one slab, in slabs of ``small_budget``, and in slabs
    filled from the dense blocks of TINY_BLOCK."""
    routes = [("path pass", False, metrics_module.BLOCK),
              ("packed, one slab", True, metrics_module.BLOCK),
              ("packed, small slabs", True, small_budget),
              ("packed, tiny blocks", True, TINY_BLOCK)]
    with pytest.MonkeyPatch.context() as mp:
        for name, packed, budget in routes:
            mp.setattr(metrics_module, "_packed_is_cheaper", lambda *counts, packed=packed: packed)
            mp.setattr(metrics_module, "BLOCK", budget)
            got = metrics_module._triangles(g)
            assert got.dtype == np.int64, name
            assert got.tolist() == want, name


@given(wide_graphs())
@settings(max_examples=60, deadline=None)
def test_each_triangle_kernel_matches_oracles(case):
    g, small_budget = case
    reference = nx.Graph(edges(g))
    reference.add_nodes_from(g.nodes)
    want = oracle_node_triangles(g)
    assert want == [nx.triangles(reference, u) for u in g.nodes]
    assert_each_kernel_counts(g, want, small_budget)


EDGE_CASE_GRAPHS = {
    "no nodes": graph([]),
    "one node": graph([], nodes=["a"]),
    "two nodes, no edge": graph([], nodes=["a", "b"]),
    "star of 100 leaves": star_graph(100),
    **{f"{n} nodes": gnm_random_graph(n, n * (n - 1) // 4, seed=n) for n in (63, 64, 65, 128, 129)},
}


@pytest.mark.parametrize("name", EDGE_CASE_GRAPHS)
def test_each_triangle_kernel_on_edge_case_graphs(name):
    # 63, 64, 65, 128 and 129 nodes end a row one short of, at and one past a
    # word boundary; the star's centre row alone outgrows a tiny block.
    g = EDGE_CASE_GRAPHS[name]
    assert_each_kernel_counts(g, oracle_node_triangles(g), g.node_count + 1)


_rows = st.tuples(st.sampled_from([f"u{i}" for i in range(8)]),
                  st.sampled_from([f"f{i}" for i in range(10)]))


@given(st.lists(_rows, max_size=60), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_filtering_a_lower_threshold_equals_building_at_it(rows, threshold):
    trace = make_trace(rows)
    base = build_dsg(trace, 1)
    assert base.at_threshold(threshold) == build_dsg(trace, threshold)
    assert weighted_edges(base.at_threshold(threshold)) == oracle_dsg_edges(trace, threshold)
