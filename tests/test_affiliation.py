import math

import numpy as np
import pytest

from sharegraph import (
    EmptyTraceError,
    build_bipartite,
    build_dsg,
    compare_window,
    gf_moments,
    predict,
)
from sharegraph.affiliation import BipartiteAffiliation, projection_derivatives
from helpers import (
    central_d1,
    central_d2,
    central_d3,
    make_trace,
    oracle_dsg_edges,
    poly_eval,
    random_trace,
    trace_of,
    weighted_edges,
)


# --- bipartite construction ---

def test_uniform_fixture():
    trace = make_trace([(f"u{k}", f"f{j}") for k in range(3) for j in range(2)])
    b = build_bipartite(trace)
    assert (b.user_count, b.item_count) == (3, 2)
    assert b.p == {2: 1.0}
    assert b.q == {3: 1.0}


def test_six_record_trace():
    trace = make_trace([("u1", "f1"), ("u1", "f2"), ("u2", "f2"),
                        ("u2", "f3"), ("u3", "f1"), ("u3", "f2")])
    b = build_bipartite(trace)
    assert (b.user_count, b.item_count) == (3, 3)
    assert b.p == {2: 1.0}
    assert b.q == pytest.approx({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})


def test_repeats_collapse():
    trace = make_trace([("u1", "f1")] * 7)
    b = build_bipartite(trace)
    assert (b.user_count, b.item_count) == (1, 1)
    assert b.p == {1: 1.0}
    assert b.q == {1: 1.0}


def test_empty_window_raises():
    with pytest.raises(EmptyTraceError):
        build_bipartite(trace_of(()))


def test_distributions_normalized_and_consistent():
    rng = np.random.default_rng(51)
    for _ in range(25):
        trace = random_trace(rng, users=int(rng.integers(1, 20)),
                             items=int(rng.integers(1, 25)),
                             records=int(rng.integers(1, 150)))
        b = build_bipartite(trace)
        assert sum(b.p.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(b.q.values()) == pytest.approx(1.0, abs=1e-9)
        # both sides count the same incidence edges
        lhs = b.user_count * gf_moments(b.p)[0]
        rhs = b.item_count * gf_moments(b.q)[0]
        assert lhs == pytest.approx(rhs, rel=1e-9)


# --- generating-function moments ---

def test_moments_small_cases():
    assert gf_moments({2: 1.0}) == (2.0, 2.0, 0.0)
    assert gf_moments({3: 1.0}) == (3.0, 6.0, 6.0)


def test_moments_match_finite_differences():
    rng = np.random.default_rng(53)
    for _ in range(40):
        support = rng.choice(np.arange(1, 51), size=int(rng.integers(1, 9)),
                             replace=False)
        weights = rng.random(len(support))
        dist = {int(j): float(w) for j, w in zip(support, weights / weights.sum())}
        f = lambda x: poly_eval(dist, x)
        m1, m2, m3 = gf_moments(dist)
        assert math.isclose(central_d1(f, 1.0), m1, rel_tol=1e-6, abs_tol=1e-6)
        assert math.isclose(central_d2(f, 1.0), m2, rel_tol=1e-6, abs_tol=1e-6)
        assert math.isclose(central_d3(f, 1.0), m3, rel_tol=1e-6, abs_tol=1e-6)


# --- projection predictions ---

def test_predict_worked_fixture_exact():
    b = BipartiteAffiliation(user_count=3, item_count=2, p={2: 1.0}, q={3: 1.0})
    pred = predict(b)
    assert pred.avg_degree_theory == 4.0
    assert pred.clustering_theory == 1 / 3


def test_predict_degenerate_when_groups_are_singletons():
    b = BipartiteAffiliation(user_count=4, item_count=4, p={1: 1.0}, q={1: 1.0})
    pred = predict(b)
    assert pred.avg_degree_theory == 0.0
    assert math.isnan(pred.clustering_theory)
    assert "degenerate_model" in pred.flags


def test_projection_derivatives_reject_a_zero_mean_group_size():
    b = BipartiteAffiliation(user_count=1, item_count=1, p={0: 1.0}, q={0: 1.0})
    with pytest.raises(ValueError, match="zero mean"):
        projection_derivatives(b)


def test_projection_derivatives_match_composite_finite_differences():
    rng = np.random.default_rng(59)
    for _ in range(30):
        trace = random_trace(rng, users=int(rng.integers(2, 15)),
                             items=int(rng.integers(2, 20)),
                             records=int(rng.integers(5, 120)))
        b = build_bipartite(trace)
        g1 = gf_moments(b.q)[0]
        G0 = lambda x: poly_eval(b.p, poly_eval({k - 1: k * q for k, q in b.q.items()}, x) / g1)
        closed_d1, closed_d2 = projection_derivatives(b)
        assert math.isclose(closed_d1, central_d1(G0, 1.0), rel_tol=1e-6, abs_tol=1e-6)
        assert math.isclose(closed_d2, central_d2(G0, 1.0), rel_tol=1e-6, abs_tol=1e-6)
        pred = predict(b)
        # the clustering ratio is only well-conditioned away from 0/0
        if not math.isnan(pred.clustering_theory) and pred.clustering_theory > 1e-3:
            g3 = central_d3(lambda x: poly_eval(b.q, x), 1.0)
            c_numeric = (b.item_count / b.user_count) * g3 / central_d2(G0, 1.0)
            assert math.isclose(pred.clustering_theory, c_numeric, rel_tol=1e-5)


# --- projection equals the threshold-1 graph ---

def test_projection_is_threshold_one_graph():
    rng = np.random.default_rng(61)
    for _ in range(20):
        trace = random_trace(rng, users=10, items=8, records=50)
        projection = oracle_dsg_edges(trace, 1)
        g = build_dsg(trace, 1)
        assert weighted_edges(g) == projection
        sharing_users = {u for pair in projection for u in pair}
        assert set(g.nodes) == sharing_users


# --- measured-vs-theory comparison ---

def test_compare_window_fills_measured_side():
    trace = make_trace([("u1", "f1"), ("u1", "f2"), ("u2", "f2"),
                        ("u2", "f3"), ("u3", "f1"), ("u3", "f2")])
    bipartite, pred, projection = compare_window(trace)
    assert bipartite.user_count == 3
    assert projection.edge_count == 3
    assert pred.avg_degree_measured == pytest.approx(2.0)
    assert pred.avg_degree_measured_all_users == pytest.approx(2.0)
    assert pred.clustering_measured == 1.0
    assert math.isfinite(pred.avg_degree_theory)


def test_compare_window_disjoint_items():
    trace = make_trace([("u1", "f1"), ("u2", "f2")])
    _, pred, projection = compare_window(trace)
    assert projection.node_count == 0
    assert math.isnan(pred.avg_degree_measured)
    assert pred.avg_degree_measured_all_users == 0.0
    assert "empty_projection" in pred.flags


def test_compare_window_two_disjoint_pairs():
    # Every item has two users: the model has no triples (degenerate), and
    # the projection, two disjoint edges, has none either.
    trace = make_trace([("u1", "i1"), ("u2", "i1"), ("u3", "i2"), ("u4", "i2")])
    _, pred, projection = compare_window(trace)
    assert pred.flags == ("degenerate_model", "measured_no_triples")
    assert math.isnan(pred.clustering_measured)
    assert (projection.node_count, projection.edge_count) == (4, 2)
