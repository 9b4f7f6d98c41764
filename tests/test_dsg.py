import math
import random
import statistics
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sharegraph import (
    Graph,
    TimeWindow,
    build_dsg,
    generate_synthetic_trace,
    slice_window,
    weight_distribution,
)
from sharegraph import dsg as dsg_module
from sharegraph.graph import BLOCK
from helpers import (
    dsg,
    edges,
    make_trace,
    oracle_components,
    oracle_dsg_edges,
    random_trace,
    trace_of,
    weighted_edges,
)

SHARED_TRACE = make_trace([
    ("u1", "f1"), ("u1", "f2"), ("u2", "f2"),
    ("u2", "f3"), ("u3", "f1"), ("u3", "f2"),
])


# --- construction ---

def test_build_threshold_1():
    g = build_dsg(SHARED_TRACE, 1)
    assert weighted_edges(g) == {("u1", "u2"): 1, ("u1", "u3"): 2, ("u2", "u3"): 1}
    assert g.nodes == ("u1", "u2", "u3")


def test_build_threshold_2_drops_isolated():
    g = build_dsg(SHARED_TRACE, 2)
    assert weighted_edges(g) == {("u1", "u3"): 2}
    assert g.nodes == ("u1", "u3")


def test_disjoint_items_give_empty_graph():
    trace = make_trace([("u1", "f1"), ("u2", "f2"), ("u3", "f3")])
    for threshold in (1, 2, 5):
        g = build_dsg(trace, threshold)
        assert g.edge_count == 0
        assert g.node_count == 0


def test_empty_trace_gives_empty_graph():
    g = build_dsg(trace_of(()), 1)
    assert g.node_count == 0


def test_threshold_below_one_rejected():
    with pytest.raises(ValueError):
        build_dsg(SHARED_TRACE, 0)


def test_repeat_requests_do_not_raise_weights():
    trace = make_trace([("u1", "f1"), ("u1", "f1"), ("u1", "f1"), ("u2", "f1")])
    g = build_dsg(trace, 1)
    assert weighted_edges(g) == {("u1", "u2"): 1}


def test_record_order_does_not_matter():
    records = list(SHARED_TRACE.records)
    rng = random.Random(5)
    for _ in range(10):
        rng.shuffle(records)
        assert build_dsg(trace_of(records), 1) == build_dsg(SHARED_TRACE, 1)


# --- oracle equivalence and monotonicity ---

def test_matches_all_pairs_oracle():
    # The weight distribution counts every weight in both of its entries;
    # its mean and median must be exactly those of the oracle's edge weights.
    rng = np.random.default_rng(17)
    middles = set()  # (edge count odd, middle weights distinct) seen
    for _ in range(60):
        trace = random_trace(rng, users=int(rng.integers(2, 13)),
                             items=int(rng.integers(1, 31)),
                             records=int(rng.integers(1, 80)))
        for threshold in (1, 2, 3):
            g = build_dsg(trace, threshold)
            oracle = oracle_dsg_edges(trace, threshold)
            assert weighted_edges(g) == oracle
            weights = sorted(oracle.values())
            if not weights:
                continue
            dist = weight_distribution(g)
            assert dist.counts == Counter(weights)
            assert dist.mean == sum(weights) / len(weights)
            assert dist.median == statistics.median(weights)
            m = len(weights)
            middles.add((m % 2 == 1, weights[(m - 1) // 2] != weights[m // 2]))
    assert {(True, False), (False, False), (False, True)} <= middles


def assert_csr_rows_sorted(g):
    assert np.all(np.diff(g.indptr) >= 0)
    for row in np.split(g.indices, g.indptr[1:-1]):
        assert np.all(np.diff(row) > 0)


@pytest.mark.parametrize("block", [1, 5])
def test_pair_weights_in_small_runs_match_oracle(monkeypatch, block):
    monkeypatch.setattr(dsg_module, "BLOCK", block)  # many runs of rows per build
    rng = np.random.default_rng(37)
    for _ in range(20):
        trace = random_trace(rng, users=10, items=6, records=60)
        for threshold in (1, 2):
            g = build_dsg(trace, threshold)
            assert weighted_edges(g) == oracle_dsg_edges(trace, threshold)
            assert_csr_rows_sorted(g)


def test_runs_of_several_rows_and_one_row_over_budget(monkeypatch):
    # A row counts a user's pairs with later users only. With BLOCK = 5, hub
    # u0's row has 8 pairs and is a run alone; u1-u4 have none and share a run
    # with u5 (4 pairs); u6 (2 pairs), u7 (1) and u8 (0) share the last run.
    monkeypatch.setattr(dsg_module, "BLOCK", 5)
    rows = [("u0", f"f{k}") for k in range(8)]
    rows += [(f"u{k + 1}", f"f{k}") for k in range(8)]
    rows += [(f"u{k}", "g") for k in range(5, 9)]
    rows += [("u5", "h"), ("u6", "h")]
    trace = make_trace(rows)
    row_pairs = dict.fromkeys(trace.user_ids, 0)
    for (u, _), w in oracle_dsg_edges(trace, 1).items():
        row_pairs[u] += w
    runs = [[]]
    for user, pairs in row_pairs.items():  # whole rows, at most 5 pairs a run unless one row has more
        if runs[-1] and sum(row_pairs[u] for u in runs[-1]) + pairs > 5:
            runs.append([])
        runs[-1].append(user)
    assert ["u0"] in runs and row_pairs["u0"] > 5
    assert any(sum(row_pairs[u] > 0 for u in run) > 1 for run in runs)
    for threshold in (1, 2):
        g = build_dsg(trace, threshold)
        assert weighted_edges(g) == oracle_dsg_edges(trace, threshold)
        assert_csr_rows_sorted(g)


@pytest.mark.parametrize("block", [1, 5, BLOCK])
def test_every_entry_weight_is_its_mirrors_and_the_oracles(monkeypatch, block):
    # weighted_edges reads the upper entries only; at_threshold filters all.
    monkeypatch.setattr(dsg_module, "BLOCK", block)
    rng = np.random.default_rng(41)
    for _ in range(20):
        trace = random_trace(rng, users=int(rng.integers(2, 13)),
                             items=int(rng.integers(1, 31)),
                             records=int(rng.integers(1, 80)))
        for threshold in (1, 2, 3):
            g = build_dsg(trace, threshold)
            oracle = oracle_dsg_edges(trace, threshold)
            entries = {(g.nodes[r], g.nodes[c]): w for r, c, w in
                       zip(g.entry_rows().tolist(), g.indices.tolist(), g.weights.tolist())}
            assert len(entries) == 2 * len(oracle)
            for (u, v), w in entries.items():
                assert entries[v, u] == w
                assert oracle[min(u, v), max(u, v)] == w


def test_more_users_than_sixteen_bits_hold():
    # Past 2^16 users the pair keys widen to 64 bits and the user columns to 32.
    rows = [(f"u{k:05d}", f"own{k}") for k in range(70_000)]
    rows += [("u00001", "f"), ("u69998", "f"), ("u69999", "f"), ("u69998", "g"), ("u69999", "g")]
    g = build_dsg(make_trace(rows), 1)
    assert weighted_edges(g) == {("u00001", "u69998"): 1, ("u00001", "u69999"): 1,
                                 ("u69998", "u69999"): 2}
    assert g.at_threshold(2).nodes == ("u69998", "u69999")


def _traced_peak(step):
    """The result of step() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("threshold", [1, 2])
def test_build_peaks_below_three_times_its_result(threshold):
    # The build holds its result, one run of rows and arrays over the
    # incidences: measured peaks were 2.2x the result at threshold 1
    # (E = 329k) and at threshold 2 (E = 107k), where counting item by item
    # and merging the runs at the end took 4.4x and 9.9x.
    trace = generate_synthetic_trace(1000, 10000, 10000, "zipf", seed=1)
    g, peak = _traced_peak(lambda: build_dsg(trace, threshold))
    assert g.edge_count > 0
    assert peak < 3 * (g.indices.nbytes + g.weights.nbytes)


def test_at_threshold_peaks_near_its_result():
    # The cut reads row offsets: the measured peak was 667 KiB where cutting
    # through an entry-row array of the base graph took 6,426 KiB.
    base = build_dsg(generate_synthetic_trace(800, 3000, 12000, "zipf", seed=1), 1)
    g, peak = _traced_peak(lambda: base.at_threshold(5))
    assert g.edge_count > 0
    result = g.indptr.nbytes + g.indices.nbytes + g.weights.nbytes
    assert peak < 2 * result + 2 * len(base.indices)


def test_largest_component_cut_peaks_below_two_and_a_half_times_its_result():
    # A component keeps its rows whole: the measured peak was 2.00x the
    # result, where cutting through an entry-row array took 3.13x.
    trace = generate_synthetic_trace(800, 3000, 12000, "zipf", seed=1)
    pair = [(user, "item-of-the-pair", 0) for user in ("pair-a", "pair-b")]
    base = build_dsg(trace_of([*trace.records, *pair]), 1)
    (count, g), peak = _traced_peak(base.largest_component)
    assert count == 2 and g.node_count == base.node_count - 2
    assert peak < 2.5 * (g.indptr.nbytes + g.indices.nbytes)


def test_edges_listing_is_the_graph_listing():
    g = build_dsg(SHARED_TRACE, 1)
    plain = Graph(g.nodes, g.indptr, g.indices)
    assert edges(g) == edges(plain) == [("u1", "u2"), ("u1", "u3"), ("u2", "u3")]


def test_at_threshold_takes_no_lower_threshold():
    g = build_dsg(SHARED_TRACE, 2)
    assert g.at_threshold(2) is g
    with pytest.raises(ValueError, match="below"):
        g.at_threshold(1)


def test_threshold_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        trace = random_trace(rng, users=10, items=12, records=120)
        previous = build_dsg(trace, 1)
        for threshold in (2, 3, 4):
            current = build_dsg(trace, threshold)
            assert set(edges(current)) <= set(edges(previous))
            previous = current


def test_window_monotonicity():
    rng = np.random.default_rng(29)
    trace = random_trace(rng, users=12, items=10, records=300, span=1000)
    inner = slice_window(trace, TimeWindow(200, 600))
    outer = slice_window(trace, TimeWindow(0, 1000))
    g_inner = build_dsg(inner, 1)
    g_outer = build_dsg(outer, 1)
    outer_weights = weighted_edges(g_outer)
    for pair, weight in weighted_edges(g_inner).items():
        assert outer_weights[pair] >= weight


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


def test_largest_component_of_a_dsg_is_a_plain_graph():
    edges = {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 1, ("d", "e"): 4}
    count, largest = dsg(edges).largest_component()
    assert count == 2
    assert type(largest) is Graph
    assert not hasattr(largest, "weights")
    assert largest == Graph(("a", "b", "c"), np.array([0, 2, 4, 6]),
                            np.array([1, 2, 0, 2, 0, 1]))


def test_dsg_equality_compares_weights():
    g = dsg({("a", "b"): 2, ("b", "c"): 1})
    assert g == dsg({("a", "b"): 2, ("b", "c"): 1})
    assert g != dsg({("a", "b"): 2, ("b", "c"): 3})
    assert g != dsg({("a", "b"): 2, ("b", "c"): 1}, threshold=2)


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
        expected = oracle_components(g.nodes, edges(g))
        count, largest = g.largest_component()
        assert count == len(expected)
        if expected:
            assert set(largest.nodes) == set(expected[0])
