import math
import random

import numpy as np
import pytest

from sharegraph import (
    TimeWindow,
    Trace,
    build_dsg,
    slice_window,
    weight_distribution,
)
from sharegraph import dsg as dsg_module
from helpers import dsg, make_trace, oracle_dsg_edges, oracle_components, random_trace

SHARED_TRACE = make_trace([
    ("u1", "f1"), ("u1", "f2"), ("u2", "f2"),
    ("u2", "f3"), ("u3", "f1"), ("u3", "f2"),
])


# --- construction ---

def test_build_threshold_1():
    g = build_dsg(SHARED_TRACE, 1)
    assert g.edges == {("u1", "u2"): 1, ("u1", "u3"): 2, ("u2", "u3"): 1}
    assert g.nodes == ("u1", "u2", "u3")


def test_build_threshold_2_drops_isolated():
    g = build_dsg(SHARED_TRACE, 2)
    assert g.edges == {("u1", "u3"): 2}
    assert g.nodes == ("u1", "u3")


def test_disjoint_items_give_empty_graph():
    trace = make_trace([("u1", "f1"), ("u2", "f2"), ("u3", "f3")])
    for threshold in (1, 2, 5):
        g = build_dsg(trace, threshold)
        assert g.edge_count == 0
        assert g.node_count == 0


def test_empty_trace_gives_empty_graph():
    g = build_dsg(Trace(()), 1)
    assert g.node_count == 0


def test_threshold_below_one_rejected():
    with pytest.raises(ValueError):
        build_dsg(SHARED_TRACE, 0)


def test_repeat_requests_do_not_raise_weights():
    trace = make_trace([("u1", "f1"), ("u1", "f1"), ("u1", "f1"), ("u2", "f1")])
    g = build_dsg(trace, 1)
    assert g.edges == {("u1", "u2"): 1}


def test_record_order_does_not_matter():
    records = list(SHARED_TRACE.records)
    rng = random.Random(5)
    for _ in range(10):
        rng.shuffle(records)
        assert build_dsg(Trace(tuple(records)), 1) == build_dsg(SHARED_TRACE, 1)


# --- oracle equivalence and monotonicity ---

def test_matches_all_pairs_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        trace = random_trace(rng, users=int(rng.integers(2, 13)),
                             items=int(rng.integers(1, 31)),
                             records=int(rng.integers(1, 80)))
        for threshold in (1, 2, 3):
            g = build_dsg(trace, threshold)
            assert g.edges == oracle_dsg_edges(trace, threshold)


@pytest.mark.parametrize("block", [1, 5])
def test_pair_weights_in_small_blocks_match_oracle(monkeypatch, block):
    monkeypatch.setattr(dsg_module, "BLOCK", block)  # forces the multi-block merge
    rng = np.random.default_rng(37)
    for _ in range(20):
        trace = random_trace(rng, users=10, items=6, records=60)
        for threshold in (1, 2):
            assert build_dsg(trace, threshold).edges == oracle_dsg_edges(trace, threshold)


def test_threshold_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        trace = random_trace(rng, users=10, items=12, records=120)
        previous = build_dsg(trace, 1)
        for threshold in (2, 3, 4):
            current = build_dsg(trace, threshold)
            assert set(current.edges) <= set(previous.edges)
            previous = current


def test_window_monotonicity():
    rng = np.random.default_rng(29)
    trace = random_trace(rng, users=12, items=10, records=300, span=1000)
    inner = slice_window(trace, TimeWindow(200, 600))
    outer = slice_window(trace, TimeWindow(0, 1000))
    g_inner = build_dsg(inner, 1)
    g_outer = build_dsg(outer, 1)
    for pair, weight in g_inner.edges.items():
        assert g_outer.edges[pair] >= weight


# --- weight distribution ---

def test_weight_distribution_basic():
    g = dsg({("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 1})
    dist = weight_distribution(g)
    assert dist.counts == {1: 2, 2: 1}
    assert dist.mean == pytest.approx(4 / 3)
    assert dist.median == 1


def test_weight_distribution_constant_weights():
    edges = {(f"u{i:02d}", f"v{i:02d}"): 356 for i in range(9)}
    dist = weight_distribution(dsg(edges))
    assert dist.median == 356


def test_weight_distribution_single_edge():
    dist = weight_distribution(dsg({("a", "b"): 5}))
    assert dist.counts == {5: 1}
    assert dist.mean == 5
    assert dist.median == 5


def test_weight_distribution_empty_graph():
    dist = weight_distribution(dsg({}))
    assert dist.counts == {}
    assert math.isnan(dist.median)
    assert math.isnan(dist.mean)


# --- connected components ---

def test_components_two_triangles_tie_break():
    edges = {("d", "e"): 1, ("d", "f"): 1, ("e", "f"): 1,
             ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
    count, largest = dsg(edges).largest_component()
    assert count == 2
    assert largest.nodes == ("a", "b", "c")
    assert largest.edge_count == 3


def test_components_whole_graph_connected():
    g = build_dsg(SHARED_TRACE, 1)
    count, largest = g.largest_component()
    assert count == 1
    assert largest == g


def test_components_path_plus_pair_tie_break():
    edges = {("u1", "u2"): 1, ("u3", "u4"): 1}
    count, largest = dsg(edges).largest_component()
    assert count == 2
    assert largest.nodes == ("u1", "u2")
    assert largest.edge_count == 1


def test_components_empty():
    count, largest = dsg({}).largest_component()
    assert count == 0
    assert largest.node_count == 0


def test_components_match_union_find_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        trace = random_trace(rng, users=14, items=10, records=60)
        g = build_dsg(trace, 1)
        expected = oracle_components(g.nodes, g.edges)
        count, largest = g.largest_component()
        assert count == len(expected)
        if expected:
            assert set(largest.nodes) == set(expected[0])
