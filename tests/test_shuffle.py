import hashlib
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharegraph import (
    EmptyTraceError,
    ShuffleMode,
    TimeWindow,
    Trace,
    build_dsg,
    generate_clustered_trace,
    generate_synthetic_trace,
    null_model_comparison,
    render_trace,
    shuffle_trace,
    slice_window,
    weight_distribution,
)
from sharegraph import shuffle as shuffle_module
from sharegraph.pipeline import NULLMODEL_COLUMNS, nullmodel_rows, render_csv
from sharegraph.shuffle import NullModelComparison, replicate_seed
from helpers import edge_weights, make_trace, random_trace, trace_of, traced_peak


def columns(trace):
    return (
        [r.user_id for r in trace.records],
        [r.item_id for r in trace.records],
        [r.timestamp for r in trace.records],
    )


# --- mode basics ---

def test_mode_validates_variant():
    with pytest.raises(ValueError):
        ShuffleMode("ST4")


def test_empty_trace_rejected():
    with pytest.raises(EmptyTraceError):
        shuffle_trace(trace_of(()), ShuffleMode("ST1"))


def test_null_model_comparison_of_an_empty_trace_rejected():
    with pytest.raises(EmptyTraceError):
        null_model_comparison(trace_of(()), None, 1, [ShuffleMode("ST1")], replicates=1)


def test_single_user_st2_is_identity():
    trace = make_trace([("u1", "f1", 0), ("u1", "f2", 3), ("u1", "f3", 9)])
    shuffled = shuffle_trace(trace, ShuffleMode("ST2", seed=99))
    assert shuffled == trace


def test_two_record_st1_preserves_marginals_and_times():
    trace = make_trace([("u1", "f1", 10), ("u2", "f2", 20)])
    for seed in range(6):
        shuffled = shuffle_trace(trace, ShuffleMode("ST1", seed=seed))
        users, items, times = columns(shuffled)
        assert sorted(users) == ["u1", "u2"]
        assert sorted(items) == ["f1", "f2"]
        assert times == [10, 20]  # time column never moves


# --- marginal preservation, all modes ---

@pytest.mark.parametrize("variant", ["ST1", "ST2", "ST3"])
def test_marginals_preserved_on_random_traces(variant):
    rng = np.random.default_rng(67)
    for k in range(15):
        trace = random_trace(rng, users=int(rng.integers(1, 12)),
                             items=int(rng.integers(1, 15)),
                             records=int(rng.integers(1, 100)))
        shuffled = shuffle_trace(trace, ShuffleMode(variant, seed=k))
        users0, items0, times0 = columns(trace)
        users1, items1, times1 = columns(shuffled)
        assert Counter(users1) == Counter(users0)   # per-user request counts
        assert Counter(items1) == Counter(items0)   # per-item request counts
        assert times1 == times0                     # timestamp column untouched


_ids = st.text(alphabet="abcxyz123", min_size=1, max_size=4)
_records = st.tuples(_ids, _ids, st.integers(min_value=0, max_value=999))


@given(st.lists(_records, min_size=1, max_size=50),
       st.sampled_from(["ST1", "ST2", "ST3"]),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=80, deadline=None)
def test_marginals_preserved_property(records, variant, seed):
    trace = trace_of(records)
    shuffled = shuffle_trace(trace, ShuffleMode(variant, seed=seed))
    users0, items0, times0 = columns(trace)
    users1, items1, times1 = columns(shuffled)
    assert Counter(users1) == Counter(users0)
    assert Counter(items1) == Counter(items0)
    assert times1 == times0
    assert sorted(users1) == sorted(users0)  # permutation, nothing invented


def test_st2_keeps_item_time_pairs_positionally():
    rng = np.random.default_rng(71)
    trace = random_trace(rng, users=8, items=10, records=60)
    shuffled = shuffle_trace(trace, ShuffleMode("ST2", seed=5))
    assert [(r.item_id, r.timestamp) for r in shuffled.records] == \
           [(r.item_id, r.timestamp) for r in trace.records]


def test_st3_keeps_user_time_pairs_positionally():
    rng = np.random.default_rng(73)
    trace = random_trace(rng, users=8, items=10, records=60)
    shuffled = shuffle_trace(trace, ShuffleMode("ST3", seed=5))
    assert [(r.user_id, r.timestamp) for r in shuffled.records] == \
           [(r.user_id, r.timestamp) for r in trace.records]


def test_shuffle_preserves_time_sortedness():
    trace = generate_synthetic_trace(10, 20, 100, seed=1)
    shuffled = shuffle_trace(trace, ShuffleMode("ST1", seed=2))
    assert shuffled.time_sorted


def test_shuffle_deterministic():
    trace = generate_synthetic_trace(10, 20, 200, seed=1)
    a = shuffle_trace(trace, ShuffleMode("ST1", seed=7))
    b = shuffle_trace(trace, ShuffleMode("ST1", seed=7))
    c = shuffle_trace(trace, ShuffleMode("ST1", seed=8))
    assert render_trace(a) == render_trace(b)
    assert render_trace(a) != render_trace(c)


# sha256 of the rendered shuffles of one Zipf trace, recorded before the
# trace became columnar: the RNG streams and the permuted bytes must not move.
SHUFFLE_DIGESTS = {
    "ST1": "53b25c1d2cb186413498e6128bf15f241270929d5b242d99274b462138e70ed9",
    "ST2": "f0be6a94427c3ea856ea21437979402935eb25ce265bf5260da7f1f1ea42093a",
    "ST3": "89f030ecd7cec34501825ba77dcbd36719bd12c1af267d3b59191c699fe99894",
}


@pytest.mark.parametrize("variant", ["ST1", "ST2", "ST3"])
def test_shuffle_golden_digest(variant):
    trace = generate_synthetic_trace(300, 500, 5000, "zipf", seed=3)
    text = render_trace(shuffle_trace(trace, ShuffleMode(variant, 7)))
    assert hashlib.sha256(text.encode()).hexdigest() == SHUFFLE_DIGESTS[variant]


# Timestamps are even, so a window [2k+1, 2k+2) holds no row.
_even_records = st.tuples(_ids, _ids, st.integers(min_value=0, max_value=499).map(lambda t: 2 * t))
_windows = st.one_of(
    st.integers(min_value=0, max_value=499).map(lambda k: TimeWindow(2 * k + 1, 2 * k + 2)),  # empty
    st.integers(min_value=1, max_value=100).map(lambda d: TimeWindow(-d, 0)),  # before the trace
    st.integers(min_value=1000, max_value=1100).map(lambda s: TimeWindow(s, s + 50)),  # after it
    st.integers(min_value=1, max_value=100).map(lambda d: TimeWindow(-d, 1000 + d)),  # covering it
    st.tuples(st.integers(min_value=-10, max_value=1000), st.integers(min_value=1, max_value=1010))
    .map(lambda sd: TimeWindow(sd[0], sd[0] + sd[1])),
)


@given(st.lists(_even_records, min_size=1, max_size=60),
       st.sampled_from(["ST1", "ST2", "ST3"]),
       st.integers(min_value=0, max_value=2**31),
       st.booleans(),
       _windows)
@settings(max_examples=200, deadline=None)
def test_windowed_shuffle_is_the_window_of_the_shuffle(records, variant, seed, by_time, window):
    trace = trace_of(records)
    if by_time:
        trace = trace.sorted_by_time()
    mode = ShuffleMode(variant, seed)
    whole = shuffle_trace(trace, mode)
    want = slice_window(whole, window)
    got = shuffle_trace(trace, mode, window)
    assert got == want
    assert got.time_sorted == want.time_sorted
    for name in ("user_codes", "item_codes", "timestamps"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.user_ids, got.item_ids) == (trace.user_ids, trace.item_ids)
    assert shuffle_trace(trace, mode, None) == whole


def test_replicate_seed_deterministic_and_distinct():
    seeds = [replicate_seed(42, r) for r in range(10)]
    assert seeds == [replicate_seed(42, r) for r in range(10)]
    assert len(set(seeds)) == 10


# --- shuffling destroys heavy sharing ---

def make_heavy_sharing_trace(seed=0):
    """Three disjoint 5-user groups, each scanning its own 200-item pool."""
    rng = np.random.default_rng(seed)
    rows = []
    for g in range(3):
        for k in range(5):
            for j in range(200):
                rows.append((f"g{g}u{k}", f"g{g}i{j:03d}"))
    times = rng.integers(0, 10000, size=len(rows))
    order = np.argsort(times, kind="stable")
    return trace_of((rows[i][0], rows[i][1], int(times[i])) for i in order)


@pytest.mark.parametrize("variant", ["ST1", "ST2", "ST3"])
def test_shuffled_graphs_lose_heavy_edges(variant):
    trace = make_heavy_sharing_trace()
    real = build_dsg(trace, 1)
    shuffled = build_dsg(shuffle_trace(trace, ShuffleMode(variant, seed=3)), 1)
    real_median = weight_distribution(real).median
    shuffled_median = weight_distribution(shuffled).median
    assert real_median == 200  # every same-group pair shares the full pool
    assert shuffled_median < real_median
    heavy_real = int((edge_weights(real) >= 100).sum())
    heavy_shuffled = int((edge_weights(shuffled) >= 100).sum())
    assert heavy_shuffled < heavy_real


# --- comparison report ---

def test_comparison_row_counts_and_determinism():
    trace = generate_synthetic_trace(20, 30, 400, seed=9)
    modes = [ShuffleMode("ST1", 1), ShuffleMode("ST3", 2)]
    a = null_model_comparison(trace, None, 1, modes, replicates=2)
    b = null_model_comparison(trace, None, 1, modes, replicates=2)
    assert a == b
    assert len(a.rows) == 1 + 2 * 2
    assert [r.source for r in a.rows] == ["real", "ST1", "ST1", "ST3", "ST3"]
    assert a.rows[0].seed is None
    assert all(r.seed is not None for r in a.rows[1:])


def test_comparison_requires_replicates():
    trace = generate_synthetic_trace(5, 5, 20, seed=1)
    with pytest.raises(ValueError):
        null_model_comparison(trace, None, 1, [ShuffleMode("ST1")], replicates=0)


def test_clustered_trace_beats_its_shuffles():
    trace = generate_clustered_trace(groups=8, users_per_group=6, seed=4)
    comparison = null_model_comparison(
        trace, None, 1, [ShuffleMode("ST1", 11)], replicates=3)
    summary = comparison.summary()
    real_ratio = summary["real"]["ratio_cc_mean"]
    assert real_ratio > summary["ST1"]["ratio_cc_mean"]


def test_uniform_trace_statistically_indistinguishable_from_shuffles():
    # a trace with no preference structure: the real ratio sits inside the
    # replicate band (within 2 standard deviations, wide floor for tiny stds)
    trace = generate_synthetic_trace(30, 40, 1200, seed=13)
    comparison = null_model_comparison(
        trace, None, 1, [ShuffleMode("ST1", 17)], replicates=8)
    summary = comparison.summary()
    real = summary["real"]["ratio_cc_mean"]
    mean = summary["ST1"]["ratio_cc_mean"]
    band = max(2 * summary["ST1"]["ratio_cc_std"], 0.2 * mean)
    assert abs(real - mean) <= band


# --- the comparison against its serial oracle ---

def serial_comparison(trace, window, threshold, modes, replicates):
    """The rows of shuffle_trace and slice_window, one replicate after another."""
    def row(source, replicate, seed, t):
        t = t if window is None else slice_window(t, window)
        return shuffle_module._row(source, replicate, seed, t, threshold, None, 0)

    rows = [row("real", 0, None, trace)]
    for mode in modes:
        for r in range(replicates):
            seed = replicate_seed(mode.seed, r)
            rows.append(row(mode.variant, r, seed,
                            shuffle_trace(trace, ShuffleMode(mode.variant, seed))))
    return NullModelComparison(rows=tuple(rows))


def rendered(comparison):
    return render_csv(NULLMODEL_COLUMNS, nullmodel_rows(comparison))


def unsorted(trace, seed):
    order = np.random.default_rng(seed).permutation(len(trace))
    return Trace(trace.user_ids, trace.user_codes[order], trace.item_ids,
                 trace.item_codes[order], trace.timestamps[order])


OVERLAP_MODES = [ShuffleMode("ST1", 1), ShuffleMode("ST3", 2), ShuffleMode("ST1", 1)]


@pytest.mark.parametrize("case", ["no window", "sorted window", "unsorted window"])
def test_overlapped_rows_equal_the_serial_oracle(case):
    trace = generate_synthetic_trace(40, 60, 3000, "zipf", seed=21, span_seconds=10_000)
    window = None if case == "no window" else TimeWindow(2_000, 6_000)
    if case == "unsorted window":
        trace = unsorted(trace, 5)
        assert not trace.time_sorted
    got = null_model_comparison(trace, window, 1, OVERLAP_MODES, replicates=3)
    want = serial_comparison(trace, window, 1, OVERLAP_MODES, replicates=3)
    assert len(got.rows) == 1 + 3 * 3
    assert rendered(got) == rendered(want)


def test_a_replicates_full_columns_are_freed_before_the_next_is_copied(monkeypatch):
    # Each replicate's shuffle returns the window's own columns, gathered
    # from the permuted rows; they live until its row is made, and no longer.
    trace = generate_synthetic_trace(20, 30, 500, seed=3)
    columns, alive = [], []  # weak references; full columns alive as each replicate is shuffled
    real_shuffle_trace = shuffle_module.shuffle_trace

    def shuffle_trace(*args):
        alive.append(sum(ref() is not None for ref in columns))
        shuffled = real_shuffle_trace(*args)
        columns.extend(weakref.ref(c) for c in (shuffled.user_codes, shuffled.item_codes))
        return shuffled

    monkeypatch.setattr(shuffle_module, "shuffle_trace", shuffle_trace)
    null_model_comparison(trace, TimeWindow(0, 40_000), 1, [ShuffleMode("ST1", 1)], replicates=3)
    assert alive == [0, 0, 0]
    assert len(columns) == 6


def test_more_replicates_peak_no_higher_than_one():
    # One mode given three times makes three equal replicates, so anything
    # of one replicate kept while the next is made or measured raises the
    # peak. In the window each request is its user's only one, for an item
    # no one else requests, so the real graph is empty; shuffled, the window
    # draws the 300 users and 100 items requested over and over after it,
    # and measuring its graph outweighs shuffling: 0.8 MB of int32 codes
    # and an 0.8 MB int64 order per column. Shuffling the next replicate
    # while one is measured (two orders, 1.6 MB) fails this.
    rng = np.random.default_rng(1)
    inside, after = 10_000, 90_000

    def column(prefix, heavy):
        ids = tuple(f"{prefix}{k:06d}" for k in range(inside + heavy))
        codes = np.concatenate([np.arange(inside), inside + rng.integers(0, heavy, after)])
        return ids, codes.astype(np.int32)

    trace = Trace(*column("u", 300), *column("i", 100), np.arange(inside + after))

    def peak(copies):
        return traced_peak(lambda: null_model_comparison(
            trace, TimeWindow(0, inside), 1, [ShuffleMode("ST1", 1)] * copies, replicates=1))[1]

    assert peak(3) < peak(1) + 64 * 1024


def test_a_shuffled_window_holds_no_full_column():
    # A replicate holds one int64 order over the whole trace (8 bytes a row)
    # while it permutes a column; only the window's 1 % of the rows is
    # gathered, and measuring that window weighs about as much as measuring
    # the real one. A replicate that gathers whole int32 code columns before
    # it cuts the window holds 8 bytes a row more, and fails this.
    n = 100_000
    trace = generate_synthetic_trace(2000, 20_000, n, seed=3, span_seconds=n)

    def peak(modes):
        return traced_peak(lambda: null_model_comparison(
            trace, TimeWindow(40_000, 41_000), 1, modes, replicates=1))[1]

    assert peak([ShuffleMode("ST1", 1)]) < peak([]) + 8 * n + 64 * 1024


class Refused(Exception):
    pass


@pytest.mark.parametrize("where, at", [
    pytest.param("_row", 3, id="row"),
    pytest.param("shuffle_trace", 3, id="shuffle"),
    pytest.param("_row", 1, id="first-row"),  # the real window's row
])
def test_an_exception_reaches_the_caller_and_no_thread_is_left(monkeypatch, where, at):
    trace = generate_synthetic_trace(20, 30, 500, seed=3)
    refused = Refused(where)
    calls = []
    real = getattr(shuffle_module, where)

    def failing(*args):
        calls.append(args)
        if len(calls) == at:
            raise refused
        return real(*args)

    monkeypatch.setattr(shuffle_module, where, failing)
    threads = threading.enumerate()
    with pytest.raises(Refused) as raised:
        null_model_comparison(trace, TimeWindow(0, 40_000), 1,
                              [ShuffleMode("ST2", 1), ShuffleMode("ST3", 2)], replicates=2)
    assert raised.value is refused
    assert threading.enumerate() == threads


def test_no_modes_start_no_thread(monkeypatch):
    # Nor do modes and replicates: the comparison runs on the calling thread.
    def refuse(*args, **kwargs):
        raise AssertionError("the null model started a thread")

    trace = generate_synthetic_trace(20, 30, 500, seed=3)
    monkeypatch.setattr(threading, "Thread", refuse)
    got = null_model_comparison(trace, None, 1, [], replicates=3)
    assert [r.source for r in got.rows] == ["real"]
    got = null_model_comparison(trace, TimeWindow(0, 40_000), 1,
                                [ShuffleMode("ST1", 1), ShuffleMode("ST3", 2)], replicates=2)
    assert [r.source for r in got.rows] == ["real", "ST1", "ST1", "ST3", "ST3"]
