"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned in the assertions, not configurable.
"""

import json
import math
from collections import Counter

import mpmath as mp
import numpy as np

from sharegraph import (
    ShuffleMode,
    build_dsg,
    clustering,
    generate_clustered_trace,
    gnm_random_graph,
    predict,
    projection_derivatives,
    random_baselines,
    average_path_length,
    shuffle_trace,
    small_world_report,
)
from sharegraph.affiliation import BipartiteAffiliation
from sharegraph.cli import main
from helpers import (
    oracle_cc1,
    oracle_cc2,
    oracle_dsg_edges,
    random_connected_graph,
    random_trace,
    weighted_edges,
)


def ok(line: str) -> None:
    print(f"PASS: {line}")


def test_criterion_1_random_baseline_reproduction():
    cases = [
        (35, 142, 0.238, 2.538, 0.005),
        (1805, 47256, 0.029, 2.296, 0.005),
        (548, 1690, 0.011, 5.599, 0.002),
    ]
    for v, e, want_cc, want_l, l_tol in cases:
        cc_r, l_r = random_baselines(v, e)
        assert abs(cc_r - want_cc) <= 0.005, (v, e, cc_r)
        assert abs(l_r - want_l) <= l_tol, (v, e, l_r)
    ok("criterion 1: random baselines reproduce all reference rows within tolerance")


def test_criterion_2_clustering_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for i in range(200):
        if i < 140:
            n = int(rng.integers(4, 61))
        elif i < 190:
            n = int(rng.integers(61, 151))
        else:
            n = int(rng.integers(151, 201))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(0, max_m + 1))
        g = gnm_random_graph(n, m, seed=int(rng.integers(0, 2**31)))
        cc1, got, _ = clustering(g)
        assert abs(oracle_cc1(g) - cc1) <= 1e-12, (n, m)
        expected = oracle_cc2(g)
        if math.isnan(expected):
            assert math.isnan(got), (n, m)
        else:
            assert abs(expected - got) <= 1e-12, (n, m)
    ok("criterion 2: cc1/cc2 match brute-force enumeration on 200 graphs (<= 1e-12)")


def test_criterion_3_dsg_oracle_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(500):
        trace = random_trace(
            rng,
            users=int(rng.integers(1, 13)),
            items=int(rng.integers(1, 31)),
            records=int(rng.integers(1, 120)),
        )
        for threshold in (1, 2, 3):
            built = build_dsg(trace, threshold)
            expected = oracle_dsg_edges(trace, threshold)
            assert weighted_edges(built) == expected
            expected_nodes = sorted({u for pair in expected for u in pair})
            assert list(built.nodes) == expected_nodes  # isolated users removed
    ok("criterion 3: build_dsg matches the all-pairs intersection oracle on 500 traces")


def test_criterion_4_generating_function_closed_forms():
    mp.mp.dps = 40
    rng = np.random.default_rng(4)

    def rel(a, b):
        return abs(a - b) / abs(b)

    for _ in range(100):
        p_support = rng.choice(np.arange(1, 51), size=int(rng.integers(1, 9)), replace=False)
        q_support = rng.choice(np.arange(3, 51), size=int(rng.integers(1, 9)), replace=False)
        pw = 0.05 + rng.random(len(p_support))
        qw = 0.05 + rng.random(len(q_support))
        p = {int(j): float(w) for j, w in zip(p_support, pw / pw.sum())}
        q = {int(k): float(w) for k, w in zip(q_support, qw / qw.sum())}
        n_users = int(rng.integers(2, 1000))
        m_items = int(rng.integers(2, 1000))
        b = BipartiteAffiliation(user_count=n_users, item_count=m_items, p=p, q=q)

        closed_d1, closed_d2 = projection_derivatives(b)
        closed_c = predict(b).clustering_theory

        def f0(x):
            return sum(w * x ** j for j, w in p.items())

        def g0(x):
            return sum(w * x ** k for k, w in q.items())

        def g0_prime(x):
            return sum(w * k * x ** (k - 1) for k, w in q.items())

        G0 = lambda x: f0(g0_prime(x) / g0_prime(1))
        numeric_d1 = float(mp.diff(G0, 1, 1))
        numeric_d2 = float(mp.diff(G0, 1, 2))
        numeric_g3 = float(mp.diff(g0, 1, 3))
        numeric_c = (m_items / n_users) * numeric_g3 / numeric_d2

        assert rel(numeric_d1, closed_d1) <= 1e-6
        assert rel(numeric_d2, closed_d2) <= 1e-6
        assert rel(numeric_c, closed_c) <= 1e-6

    fixture = BipartiteAffiliation(user_count=3, item_count=2, p={2: 1.0}, q={3: 1.0})
    pred = predict(fixture)
    assert pred.avg_degree_theory == 4.0
    assert pred.clustering_theory == 1 / 3
    ok("criterion 4: closed-form G0'(1), G0''(1), C match numerical differentiation "
       "(<= 1e-6 relative); worked fixture exact")


def test_criterion_5_shuffle_marginal_preservation():
    rng = np.random.default_rng(5)
    for i in range(100):
        trace = random_trace(
            rng,
            users=int(rng.integers(1, 15)),
            items=int(rng.integers(1, 20)),
            records=int(rng.integers(1, 150)),
        )
        for variant in ("ST1", "ST2", "ST3"):
            shuffled = shuffle_trace(trace, ShuffleMode(variant, seed=i)).records
            before = trace.records
            assert Counter(r.user_id for r in shuffled) == Counter(r.user_id for r in before)
            assert Counter(r.item_id for r in shuffled) == Counter(r.item_id for r in before)
            assert [r.timestamp for r in shuffled] == [r.timestamp for r in before]
            if variant == "ST2":
                assert [(r.item_id, r.timestamp) for r in shuffled] == \
                       [(r.item_id, r.timestamp) for r in before]
            if variant == "ST3":
                assert [(r.user_id, r.timestamp) for r in shuffled] == \
                       [(r.user_id, r.timestamp) for r in before]
    ok("criterion 5: ST1/ST2/ST3 preserve all column marginals and pairings exactly")


def test_criterion_6_sampled_path_length():
    graphs = [
        random_connected_graph(500, 2000, seed=60),
        random_connected_graph(400, 1200, seed=61),
        random_connected_graph(300, 900, seed=62),
    ]
    for g in graphs:
        exact = average_path_length(g)
        assert average_path_length(g, sample_fraction=1.0, seed=0) == exact
        hits = 0
        samples = []
        for seed in range(30):
            sampled = average_path_length(g, sample_fraction=0.05, seed=seed)
            samples.append(sampled)
            if abs(sampled - exact) / exact <= 0.10:
                hits += 1
        assert hits >= 28, (g.node_count, hits)
        assert abs(np.mean(samples) - exact) / exact <= 0.10
    ok("criterion 6: fraction-1.0 sampling equals exact; 5% sampling within 10% "
       "in >= 28/30 seeds")


def test_criterion_7_small_world_demonstration():
    trace = generate_clustered_trace(seed=0)
    real = small_world_report(build_dsg(trace, 1))
    assert real.ratio_cc > 10, real.ratio_cc
    assert 0.5 <= real.ratio_l <= 2.0, real.ratio_l

    shuffled_trace = shuffle_trace(trace, ShuffleMode("ST1", seed=7))
    shuffled = small_world_report(build_dsg(shuffled_trace, 1))
    assert shuffled.ratio_cc < real.ratio_cc

    control = gnm_random_graph(real.largest_component_nodes,
                               real.largest_component_edges, seed=77)
    control_report = small_world_report(control)
    assert control_report.ratio_cc <= 2.0, control_report.ratio_cc
    ok(f"criterion 7: clustered trace ratio_cc={real.ratio_cc:.1f} (>10), "
       f"ratio_l={real.ratio_l:.2f} (in [0.5,2]); ST1 ratio_cc={shuffled.ratio_cc:.2f} "
       f"(smaller); ER control ratio_cc={control_report.ratio_cc:.2f} (<=2)")


def _tree_digest(out_dir):
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        name = str(path.relative_to(out_dir))
        if name == "manifest.json":
            payload = json.loads(path.read_text())
            payload.pop("created_utc")  # wall-clock stamp, informational only
            files[name] = json.dumps(payload, sort_keys=True)
        else:
            files[name] = path.read_bytes()
    return files


def test_criterion_8_cli_determinism(tmp_path):
    trace_dir = tmp_path / "gen"
    assert main(["synth", "--clustered", "--groups", "6", "--users-per-group", "5",
                 "--seed", "3", "-o", str(trace_dir)]) == 0
    trace_path = trace_dir / "trace.csv"

    commands = {
        "synth": ["synth", "--users", "20", "--items", "50", "--requests", "400",
                  "--popularity", "zipf", "--seed", "9"],
        "summary": ["summary", str(trace_path)],
        "sweep": ["sweep", str(trace_path), "--lengths", "900,1800",
                  "--thresholds", "1,2", "--seed", "1"],
        "distributions": ["distributions", str(trace_path), "--threshold", "1"],
        "affiliation": ["affiliation", str(trace_path)],
        "nullmodel": ["nullmodel", str(trace_path), "--replicates", "2",
                      "--seed", "4"],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}_1"
        second = tmp_path / f"{name}_2"
        assert main(argv + ["-o", str(first)]) == 0
        assert main(argv + ["-o", str(second)]) == 0
        digest_1, digest_2 = _tree_digest(first), _tree_digest(second)
        assert set(digest_1) == set(digest_2)
        for fname in digest_1:
            assert digest_1[fname] == digest_2[fname], f"{name}/{fname} differs"
    ok("criterion 8: every CLI verb rerun writes byte-identical outputs")
