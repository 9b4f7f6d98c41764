import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharegraph import gnm_random_graph
from sharegraph.graph import _runs, symmetric_csr
from helpers import edges, graph, oracle_components


def test_parallel_edges_collapse():
    g = graph([(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_symmetric_csr_mirrors_the_upper_pairs_and_their_values():
    # upper pairs 0-1, 0-3, 1-2, 2-3 on five nodes; node 4 is isolated
    a, b, values = np.array([[0, 0, 1, 2], [1, 3, 2, 3], [5, 6, 7, 8]])
    indptr, indices, entry_values = symmetric_csr(5, a, b, values)
    assert indptr.tolist() == [0, 2, 4, 6, 8, 8]
    assert indices.tolist() == [1, 3, 0, 2, 1, 3, 0, 2]
    assert entry_values.tolist() == [5, 6, 5, 7, 7, 8, 6, 8]
    assert [x.tolist() for x in symmetric_csr(5, a, b)] == [indptr.tolist(), indices.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=30), st.integers(1, 40), st.integers(1, 8))
def test_runs_are_the_longest_that_keep_the_rules(sizes, budget, most):
    before = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    runs = list(_runs(before, budget, most))
    bounds = [0] + [hi for _, hi in runs]
    assert runs == list(zip(bounds[:-1], bounds[1:]))  # contiguous and in order
    assert bounds[-1] == len(sizes)  # every row
    for lo, hi in runs:
        assert 1 <= hi - lo <= most
        assert before[hi] - before[lo] <= budget or hi - lo == 1
        if hi < len(sizes):  # taking the next row too would break a rule
            assert hi + 1 - lo > most or before[hi + 1] - before[lo] > budget


def test_isolated_nodes_kept_when_listed():
    g = graph([(0, 1)], nodes=[0, 1, 2])
    assert g.nodes == (0, 1, 2)
    assert g.degrees().tolist() == [1, 1, 0]


def test_edges_listing_sorted_and_unique():
    g = graph([(2, 1), (0, 1), (2, 0)])
    assert edges(g) == [(0, 1), (0, 2), (1, 2)]


def test_component_ordering_deterministic():
    g = graph([("d", "e"), ("a", "b"), ("x", "y"), ("y", "z")])
    assert g.largest_component()[1].nodes == ("x", "y", "z")
    count, largest = graph([("d", "e"), ("a", "b")]).largest_component()
    assert count == 2
    assert largest.nodes == ("a", "b")


def test_components_match_union_find():
    g = gnm_random_graph(30, 25, seed=1)
    expected = oracle_components(g.nodes, edges(g))
    count, largest = g.largest_component()
    assert count == len(expected)
    assert frozenset(largest.nodes) == expected[0]


def test_subgraph_induces_edges():
    g = graph([(0, 1), (1, 2), (2, 0), (2, 3), (5, 6)])
    count, largest = g.largest_component()
    assert count == 2
    assert largest.nodes == (0, 1, 2, 3)
    assert edges(largest) == [(0, 1), (0, 2), (1, 2), (2, 3)]


def test_gnm_exact_edge_count_and_determinism():
    a = gnm_random_graph(20, 50, seed=9)
    b = gnm_random_graph(20, 50, seed=9)
    assert a.edge_count == 50
    assert edges(a) == edges(b)
    assert edges(gnm_random_graph(20, 50, seed=10)) != edges(a)


def test_gnm_validates_bounds():
    with pytest.raises(ValueError):
        gnm_random_graph(1, 0)
    with pytest.raises(ValueError):
        gnm_random_graph(5, 11)
