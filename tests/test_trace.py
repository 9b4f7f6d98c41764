import errno
import gzip
import io
import pickle
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharegraph import (
    EmptyTraceError,
    TimeWindow,
    TraceParseError,
    generate_clustered_trace,
    generate_synthetic_trace,
    load_trace,
    parse_trace,
    render_trace,
    slice_window,
    summarize,
    window_slices,
)
import sharegraph.trace as trace_module
from helpers import make_trace, trace_of

SIX_RECORD_CSV = "u1,f1,0\nu1,f2,1\nu2,f2,2\nu2,f3,3\nu3,f1,4\nu3,f2,5\n"


# --- window validation ---

def test_window_requires_positive_length():
    with pytest.raises(ValueError):
        TimeWindow(5, 5)


# --- parsing ---

def test_parse_two_records():
    result = parse_trace("u1,f1,100\nu2,f1,105")
    assert len(result.trace) == 2
    assert result.rejected == ()
    s = summarize(result.trace)
    assert (s.user_count, s.request_count_distinct) == (2, 1)


def test_parse_all_rejected_raises_with_diagnostics():
    with pytest.raises(TraceParseError) as exc_info:
        parse_trace("u1,f1,abc")
    diags = exc_info.value.diagnostics
    assert len(diags) == 1
    assert diags[0].line_number == 1
    assert "abc" in diags[0].reason


def test_parse_mixed_lines_reports_rejects_and_keeps_good():
    # A line led by "#" is a comment even when it holds a record, and a comma
    # in an id adds a field.
    text = "# comment\nu1,f1,1\n\nbadline\nu2,f2,2\nu3,f3,-4\nu4,f4,xx\n#u5,f5,5\nu,6,f6,6\n"
    result = parse_trace(text)
    assert [r.user_id for r in result.trace.records] == ["u1", "u2"]
    assert [(d.line_number, d.reason) for d in result.rejected] == [
        (4, "expected 3 fields, got 1"),
        (6, "timestamp is negative: -4"),
        (7, "timestamp is not an integer: 'xx'"),
        (9, "expected 3 fields, got 4"),
    ]


def test_parse_rejects_an_empty_id():
    result = parse_trace("u1,f1,0\n,f1,1\nu2,,2\n,,3\nu3,f3,4\n")
    assert [r.user_id for r in result.trace.records] == ["u1", "u3"]
    assert [(d.line_number, d.reason) for d in result.rejected] == [
        (2, "empty user_id or item_id"),
        (3, "empty user_id or item_id"),
        (4, "empty user_id or item_id"),
    ]


def test_parse_wrong_field_count():
    with pytest.raises(TraceParseError):
        parse_trace("u1,f1\n")
    with pytest.raises(TraceParseError):
        parse_trace("u1,f1,3,extra\n")


def test_parse_empty_input_gives_empty_trace():
    result = parse_trace("")
    assert len(result.trace) == 0
    result = parse_trace("# only a comment\n")
    assert len(result.trace) == 0


def test_parse_invalid_utf8_line_rejected_alone():
    result = parse_trace(b"u1,f1,0\nu1,i\xff9,5\nu2,f1,7\n")
    assert [r.user_id for r in result.trace.records] == ["u1", "u2"]
    assert [d.line_number for d in result.rejected] == [2]
    assert "invalid UTF-8" in result.rejected[0].reason


def test_parse_gzip_by_magic_bytes():
    compressed = gzip.compress(SIX_RECORD_CSV.encode())
    result = parse_trace(compressed)
    assert len(result.trace) == 6
    assert render_trace(result.trace) == SIX_RECORD_CSV


def _gzip_with_name(data):
    buffer = io.BytesIO()
    with gzip.GzipFile(filename="trace.csv", mode="wb", fileobj=buffer, mtime=0) as f:
        f.write(data)
    return buffer.getvalue()


_HALVES = (SIX_RECORD_CSV.encode()[:20], SIX_RECORD_CSV.encode()[20:])  # cut inside line 3


@pytest.mark.parametrize("data", [
    pytest.param(b"".join(map(gzip.compress, _HALVES)), id="two-members"),
    pytest.param(gzip.compress(_HALVES[0]) + bytes(100) + gzip.compress(_HALVES[1]),
                 id="zeros-between-members"),
    pytest.param(gzip.compress(SIX_RECORD_CSV.encode()) + bytes(1000), id="zeros-after-last"),
    pytest.param(gzip.compress(b"") + gzip.compress(SIX_RECORD_CSV.encode()), id="empty-first"),
    pytest.param(_gzip_with_name(SIX_RECORD_CSV.encode()), id="header-with-fname"),
])
def test_gzip_members_and_padding_parse_as_plain(data):
    assert parse_trace(data) == parse_trace(SIX_RECORD_CSV)


def test_parse_sort_flag_sorts_by_timestamp():
    result = parse_trace("u1,f1,9\nu2,f2,3\nu3,f3,7", sort=True)
    assert result.trace.time_sorted
    assert [r.timestamp for r in result.trace.records] == [3, 7, 9]


def test_parse_preserves_order_without_sort():
    result = parse_trace("u1,f1,9\nu2,f2,3")
    assert not result.trace.time_sorted
    assert [r.timestamp for r in result.trace.records] == [9, 3]


def test_parse_sort_is_stable_for_equal_timestamps():
    # Long enough that an unstable sort would not fall back to insertion sort.
    lines = [f"u{k % 11},i{k},{(k * 7) % 5}" for k in range(60)]
    trace = parse_trace("\n".join(lines), sort=True).trace
    expected = sorted(lines, key=lambda line: int(line.rsplit(",", 1)[1]))
    assert render_trace(trace) == "\n".join(expected) + "\n"


def test_parse_rejects_timestamp_beyond_int64():
    result = parse_trace(f"u1,f1,{2**63}\nu2,f1,{2**63 - 2}\nu3,f1,{2**63 - 1}\n")
    assert [r.timestamp for r in result.trace.records] == [2**63 - 2]
    assert [(d.line_number, d.reason) for d in result.rejected] == [
        (1, f"timestamp is out of range: {2**63}"),
        (3, f"timestamp is out of range: {2**63 - 1}"),
    ]


def test_parse_crlf_matches_lf():
    lf = b"# comment\nu1,f1,1\n\nbadline\nu2,f2,2\nu3,f3,xx\nu\xff,f4,4\nu5,f5,5"
    crlf, plain = parse_trace(lf.replace(b"\n", b"\r\n")), parse_trace(lf)
    assert crlf == plain
    assert [d.line_number for d in crlf.rejected] == [4, 6, 7]
    assert "'xx'" in crlf.rejected[1].reason


def test_parse_line_breaks_only_at_newline():
    # A lone \r and the other characters str.splitlines breaks at are data.
    ids = ["u\r1", "u\x0b2", "u\x0c3", "u\x1c4", "u\x855", "u\u20286"]
    text = "".join(f"{u},f1,{k}\n" for k, u in enumerate(ids))
    # An invalid line elsewhere in the input must not move any line break.
    for data, rejected in ((text, []), (text.encode(), []), (text.encode() + b"\xff\n", [7])):
        result = parse_trace(data)
        assert [r.user_id for r in result.trace.records] == ids
        assert [d.line_number for d in result.rejected] == rejected


def test_parse_lone_surrogate_is_a_line_rejection():
    result = parse_trace("u1,f1,0\nu\ud8002,f1,1\n")
    assert [r.user_id for r in result.trace.records] == ["u1"]
    assert [d.line_number for d in result.rejected] == [2]
    assert "invalid UTF-8" in result.rejected[0].reason


@pytest.mark.parametrize("block", [1, 2, 3, 8, 9, 17])
def test_parse_lines_straddling_read_blocks(monkeypatch, block):
    data = b"u1,f1,1\r\nu2,f2,2\r\n# c\nbad\r\nu3,\xff,3\nlonger_user,f1,4\r\nu4,f4,5"
    expected = parse_trace(data)
    monkeypatch.setattr(trace_module, "READ_BLOCK", block)  # block 8 splits \r from \n
    assert parse_trace(data) == expected
    assert parse_trace(gzip.compress(data)) == expected
    assert [r.user_id for r in expected.trace.records] == ["u1", "u2", "longer_user", "u4"]
    assert [d.line_number for d in expected.rejected] == [4, 5]


def test_a_long_line_parses_in_linear_time(monkeypatch):
    # Carrying the unfinished line by re-joining and re-searching it on
    # every read took 9.3 s here: time quadratic in the line's length.
    data = b"u" * (4 << 20) + b",f1,1\nu2,f2,2\n"
    monkeypatch.setattr(trace_module, "READ_BLOCK", 256)
    start = time.perf_counter()
    result = parse_trace(data)
    assert time.perf_counter() - start < 1
    assert [(len(r.user_id), r.item_id) for r in result.trace.records] == [(4 << 20, "f1"), (2, "f2")]


class _ReadOnly:
    """A stream that can only be read, as a pipe."""

    def __init__(self, data):
        self.read = io.BytesIO(data).read


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_parse_a_stream_that_cannot_seek(compress):
    data = SIX_RECORD_CSV.encode()
    stream = _ReadOnly(gzip.compress(data) if compress else data)
    assert parse_trace(stream) == parse_trace(data)
    assert parse_trace(_ReadOnly(b"\n")).trace == trace_of(())  # shorter than the magic


class _OneByteReads:
    """A stream whose every read returns at most one byte, as a raw pipe's may."""

    def __init__(self, data):
        self._read = io.BytesIO(data).read

    def read(self, size=-1):
        return self._read(1 if size else 0)


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_parse_a_stream_of_short_reads(compress):
    # The gzip magic arrives in two reads.
    data = SIX_RECORD_CSV.encode()
    stream = _OneByteReads(gzip.compress(data) if compress else data)
    assert parse_trace(stream) == parse_trace(data)


class _FailingAfter:
    """A stream that gives the first ``at`` bytes of ``data``, then raises ``error``."""

    def __init__(self, data, at, error):
        self._read, self._error = io.BytesIO(data[:at]).read, error

    def read(self, size=-1):
        block = self._read(size)
        if not block:
            raise self._error
        return block


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_read_error_partway_is_raised_unchanged(monkeypatch, compress):
    # On gzip input the failing read is made on the helper thread.
    data = render_trace(generate_synthetic_trace(50, 200, 3000, seed=2)).encode()
    data = gzip.compress(data) if compress else data
    monkeypatch.setattr(trace_module, "READ_BLOCK", 1000)
    taken = _routes_taken(monkeypatch)
    error = OSError(errno.EIO, "Input/output error")
    threads = threading.active_count()
    with pytest.raises(OSError) as raised:
        parse_trace(_FailingAfter(data, len(data) // 2, error))
    assert raised.value is error
    assert taken  # blocks were parsed before the read failed
    assert threading.active_count() == threads


def test_plain_input_starts_no_thread(monkeypatch, tmp_path):
    # Only gzip input is read ahead on a helper thread.
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    path = tmp_path / "trace.csv"
    path.write_text(SIX_RECORD_CSV)
    monkeypatch.setattr(threading, "Thread", refuse)
    assert len(parse_trace(SIX_RECORD_CSV.encode()).trace) == 6
    assert len(load_trace(path).trace) == 6
    with pytest.raises(AssertionError, match="a thread was started"):
        parse_trace(gzip.compress(SIX_RECORD_CSV.encode()))


# --- the helper thread ---

def test_helper_result_raises_the_calls_exception_unchanged():
    error = OSError(errno.EIO, "Input/output error")

    def fail():
        raise error

    with trace_module._Helper() as helper:
        helper.submit(fail)
        with pytest.raises(OSError) as raised:
            helper.result()
        helper.submit(int, "7")
        assert helper.result() == 7
    assert raised.value is error


def test_helper_left_on_an_exception_waits_for_the_call_in_flight():
    started, finished = threading.Event(), []

    def slow():
        started.set()
        time.sleep(0.2)
        finished.append(True)

    threads = threading.enumerate()
    with pytest.raises(ValueError):
        with trace_module._Helper() as helper:
            helper.submit(slow)
            assert started.wait(timeout=5)
            raise ValueError
    assert finished == [True]
    assert threading.enumerate() == threads


def test_helper_left_on_an_interrupt_does_not_wait_for_the_call_in_flight():
    # The call in flight may be a read of a stalled pipe.
    started, release = threading.Event(), threading.Event()

    def blocked():
        started.set()
        release.wait(timeout=5)

    threads = set(threading.enumerate())
    try:
        with pytest.raises(KeyboardInterrupt):
            with trace_module._Helper() as helper:
                helper.submit(blocked)
                assert started.wait(timeout=5)
                raise KeyboardInterrupt
        (thread,) = set(threading.enumerate()) - threads
        assert thread.is_alive()
    finally:
        release.set()
    thread.join(timeout=5)
    assert not thread.is_alive()


# --- the vectorized route for regular blocks ---

def test_regular_block_converts_fields():
    chunk = "u1,i1,007\r\nuserid\u00e9,i1,999999999999999999\n".encode()  # 8-byte id
    user_keys, item_keys, timestamps = trace_module._regular_block(chunk)
    assert timestamps.tolist() == [7, 10**18 - 1]
    assert len(np.unique(user_keys)) == 2 and len(np.unique(item_keys)) == 1
    result = parse_trace(chunk)
    assert [r.user_id for r in result.trace.records] == ["u1", "userid\u00e9"]
    assert trace_module._regular_block(b"user_id8,item_id8,1\n") is not None


@pytest.mark.parametrize("chunk", [
    b"u,i,5",  # no final line break
    b"u\0,i,5\n",  # NUL
    b"u,i\xff,5\n",  # invalid UTF-8
    b"a,b,1,2,3\n5\n",  # two commas a line on average only
    b"u,i,5\n\n",  # blank line
    b",i,5\n",  # empty user id
    b"u,,5\n",  # empty item id
    b"user_id_9,i,5\n", "u,user_id\u00e9\u00e9,5\n".encode(),  # an id over 8 bytes
    b"u,i,5\nu,item_id_9,5\n",  # the same, after the first line
    b"#u,i,5\n",  # comment
    b"u,i,\n",  # no digits
    b"u,i," + b"9" * 19 + b"\n",  # more than 18 digits
    b"u,i,+5\n", b"u,i, 5\n", b"u,i,5_0\n", "u,i,٥\n".encode(),  # int() accepts these
    b"u,i,5\r\r\n",  # a second \r is data
    b"u,i,5/\n", b"u,i,:5\n", b"u,i,1234567:9\n", b"u,i,12345678/\n",  # next to the digits
])
def test_irregular_blocks_go_to_the_line_loop(chunk):
    assert trace_module._regular_block(chunk) is None


def _line_loop_outcome(data):
    """The parse of ``data`` with every block sent to the line loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "_regular_block", lambda chunk: None)
        return _parse_outcome(data)


_STAMPS = ["0", "7", "12345678", "00000001", "123456789", "000000001", "1234567890123456",
           "0000000000000001", "12345678901234567", "00000000000000001", "999999999999999999",
           "000000000000000018", "100000000000000000"]


@pytest.mark.parametrize("data", [
    # A first line shorter than a word: its timestamp word starts before the
    # block, and its keys end past the line.
    b"a,b,1\n", b"a,b,1\r\n", b"a,b,1\nc,d,22\n",
    b"abcdefgh,ABCDEFGH,5\nu,i,6\nqrstuvwx,QRSTUVWX,7\n",  # 8-byte ids at both ends
    b"u,i,6\nqrstuvwx,Q,7\nu,QRSTUVWX,8\n",  # the last key runs into the padding
    # 8-byte non-ASCII ids
    "\u00e9\u00e9\u00e9\u00e9,\u65e5\u672c\u00e9,0\r\n\u00e9\u65e5\u672c,u,1\r\n".encode(),
    # Timestamps of one to three words, with leading zeros, after LF and CRLF
    *(f"u,i,1{end}v,j,{stamp}{end}w,k,22{end}".encode() for stamp in _STAMPS
      for end in ("\n", "\r\n")),
])
def test_word_route_matches_line_loop_at_word_edges(data):
    assert trace_module._regular_block(data) is not None
    outcome = _parse_outcome(data)
    assert outcome == _line_loop_outcome(data)
    assert outcome[4] == [int(line.split(b",")[2]) for line in data.splitlines()]


def _routes_taken(monkeypatch):
    """Patch the parse to record, per block, whether it took the word route."""
    taken, convert = [], trace_module._regular_block

    def spy(chunk):
        fields = convert(chunk)
        taken.append(fields is not None)
        return fields

    monkeypatch.setattr(trace_module, "_regular_block", spy)
    return taken


@pytest.mark.parametrize("data, routes", [
    (b"u1,i1,+1\nu1,i1,2\n", [False, True]),  # int() takes "+1"; the word route does not
    (b"u1,i1,1\nu1,i1,+2\nu1,i1,3\n", [True, False, True]),
    (b"u1,i1, 1\nu2,i1,2\nu1,i2,+3\nu2,i2,4\n", [False, True, False, True]),
    # Codes in first-sight order, not key order, when the line loop takes over.
    (b"u2,i2,1\nu1,i1,2\nu3,i1,+3\nu1,i3,4\n", [True, True, False, True]),
])
def test_an_id_met_by_both_routes_gets_one_code(monkeypatch, data, routes):
    monkeypatch.setattr(trace_module, "READ_BLOCK", 1)  # one line a block
    taken = _routes_taken(monkeypatch)
    trace = parse_trace(data).trace
    assert taken == routes
    rows = [line.split(",") for line in data.decode().splitlines()]
    assert trace.user_ids == tuple(sorted({row[0] for row in rows}))
    assert trace.item_ids == tuple(sorted({row[1] for row in rows}))
    assert [(r.user_id, r.item_id) for r in trace.records] == [(u, i) for u, i, _ in rows]


@pytest.mark.parametrize("block", [1, 24, trace_module.READ_BLOCK])
def test_key_ordered_id_table_is_str_order(monkeypatch, block):
    ids = ["\u00e9", "e", "z", "\u00e9\u00e9\u00e9\u00e9", "zzzzzzzz", "a", "ab", "\u65e5\u672c\u00e9",
           "A", "~", "\u007f", "e\u00e9", "ee"]
    assert max(len(name.encode()) for name in ids) == 8
    lines = [f"{u},{i},{k}\n" for k, (u, i) in enumerate(zip(ids, reversed(ids)))]
    monkeypatch.setattr(trace_module, "READ_BLOCK", block)
    taken = _routes_taken(monkeypatch)
    data = "".join(lines).encode()
    outcome = _parse_outcome(data)
    assert taken and all(taken)
    assert list(outcome[0]) == sorted(ids)
    assert outcome == _line_loop_outcome(data)
    # With a line-loop block first, the table is sorted by the fallback.
    data = b"x,y,+0\n" + data
    outcome = _parse_outcome(data)
    assert list(outcome[0]) == sorted([*ids, "x"])
    assert outcome == _line_loop_outcome(data)


_plain_ids = st.text(st.sampled_from("uvi7é"), min_size=1, max_size=4)
# Up to 18 digits, so a timestamp spans one, two or three 8-byte words.
_plain_stamps = st.one_of(st.integers(min_value=0, max_value=10**9).map(str),
                          st.integers(min_value=0, max_value=10**18 - 1).map(str),
                          st.builds(str.zfill, st.integers(0, 10**9).map(str), st.integers(1, 18)),
                          st.sampled_from(["0", "007", "9" * 18, "9" * 8, "1" + "0" * 8,
                                           "9" * 16, "1" + "0" * 16, "0" * 17 + "1"]))
_odd_ids = st.one_of(st.sampled_from(["", "#u", "u\0", "7\0", "\0", "u\r", " ", "u,v",
                                     "uuuuuuuu", "uuuuuuuuu", "uuuuuuué"]),
                     st.text(st.sampled_from("u7é#\0\r ,"), max_size=10))
# "/" and ":" are the bytes next to "0" and "9": a digit check that is off
# by one at either end lets them through.
_odd_stamps = st.one_of(
    st.sampled_from(["9" * 19, "1" + "0" * 18, "+5", " 5", "5 ", "5_0", "٥", "", "-3",
                     "5\r", "5,6", "/", ":", "5/", ":5", "1234567:", "12345678/9"]),
    st.builds(lambda digits, at, odd: digits[:at] + odd + digits[at:],
              st.text("0123456789", max_size=17), st.integers(0, 17), st.sampled_from("/:")),
)
_line = "{},{},{}".format
_regular_lines = st.builds(_line, _plain_ids, _plain_ids, _plain_stamps).map(str.encode)
# An odd line is a regular line with one odd part, or one of a few odd lines.
_odd_lines = st.one_of(
    st.builds(_line, _odd_ids, _plain_ids, _plain_stamps).map(str.encode),
    st.builds(_line, _plain_ids, _odd_ids, _plain_stamps).map(str.encode),
    st.builds(_line, _plain_ids, _plain_ids, _odd_stamps).map(str.encode),
    st.sampled_from([b"", b"  ", b"\t", b"# c", b"a,b,1,2,3", b"5", b"u,i", b"\r",
                     b"u,i\xff,5", b"\xc3", b"u\xed\xa0\x80,i,5"]),
)
_lines_bytes = st.builds(
    lambda lines, last_break: b"".join(line + end for line, end in lines)[
        :None if last_break or not lines else -len(lines[-1][1])],
    st.lists(st.tuples(st.one_of(_regular_lines, _regular_lines, _odd_lines),
                       st.sampled_from([b"\n", b"\r\n"])), max_size=24),
    st.booleans(),
)


def _parse_outcome(data):
    """Everything a parse yields: columns, id tables and diagnostics, or the error."""
    try:
        result = parse_trace(data)
    except TraceParseError as exc:
        return str(exc), exc.diagnostics
    t = result.trace
    return (t.user_ids, t.item_ids, t.user_codes.tolist(), t.item_codes.tolist(),
            t.timestamps.tolist(), result.rejected)


@given(_lines_bytes, st.integers(min_value=1, max_value=64))
@settings(max_examples=300, deadline=None)
def test_vectorized_route_matches_line_loop(data, block):
    # Small blocks mix both routes in one parse; declining every block
    # leaves the line loop alone.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "READ_BLOCK", block)
        mixed = _parse_outcome(data)
        mp.setattr(trace_module, "_regular_block", lambda chunk: None)
        assert mixed == _parse_outcome(data)


@given(_lines_bytes, st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_gzip_input_parses_as_plain(data, block):
    # Gzip input is read on a helper thread; small blocks make many
    # hand-overs, with reads ending mid-line and mid-UTF-8 sequence.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "READ_BLOCK", block)
        assert _parse_outcome(gzip.compress(data)) == _parse_outcome(data)


@pytest.mark.parametrize("test", [test_vectorized_route_matches_line_loop,
                                  test_gzip_input_parses_as_plain])
def test_parse_with_every_key_in_two_slots(monkeypatch, test):
    # Two slots for any number of ids: nearly every block's keys collide, and
    # the losers go to the sorted key table.
    monkeypatch.setattr(trace_module, "_slot_bits", lambda count: 1)
    test()


@pytest.mark.parametrize("slot_bits", [None, 1], ids=["sized", "two-slots"])
def test_line_loop_blocks_between_regular_blocks(monkeypatch, slot_bits):
    # One line a block: regular blocks reuse ids of the line loop's blocks
    # and of each other, and bring new ones, before and after the loop's.
    if slot_bits is not None:
        monkeypatch.setattr(trace_module, "_slot_bits", lambda count: slot_bits)
    monkeypatch.setattr(trace_module, "READ_BLOCK", 1)
    lines = [b"u1,i1,1", b"u2,i2,2", b"u1,i3,+3", b"u4,i1,4", b"u3,i3,5", b"uuuuuuuuu,i2,6",
             b"u3,i4,7", b"u5,i1,8", b"u2,i5, 9", b"u5,i5,10", b"u6,i6,11", b"u1,i1,12"]
    data = b"\n".join(lines) + b"\n"
    taken = _routes_taken(monkeypatch)
    outcome = _parse_outcome(data)
    assert taken == [b"+" not in line and b" " not in line and not line.startswith(b"uuu")
                     for line in lines]
    assert outcome == _line_loop_outcome(data)
    assert outcome[4] == list(range(1, 13))


def test_known_keys_hit_the_slot_table(monkeypatch):
    # Once a block has met its ids, a block of the same ids sends only the
    # losers of slot collisions to the sorted key table: with at most half
    # the slots filled, well under a quarter of its keys. The second block
    # brings 30 users, too few to resize the table; they are put in their
    # slots as they miss, so the block sends fewer keys when it comes again.
    sent = []
    real = trace_module._IdTable._sorted_block_codes

    def spy(self, keys):
        sent.append(len(keys))
        return real(self, keys)

    monkeypatch.setattr(trace_module._IdTable, "_sorted_block_codes", spy)
    first, second = ("".join(f"u{100 + k % users},i{k % 89},{k}\n" for k in range(2000)).encode()
                     for users in (97, 127))
    monkeypatch.setattr(trace_module, "READ_BLOCK", len(first))
    trace = parse_trace(first + first + second + second).trace
    assert len(trace) == 8000 and len(trace.user_ids) == 127 and len(trace.item_ids) == 89
    assert sent[:2] == [2000, 2000] and len(sent) == 8
    assert max(sent[2:4]) < 2000 // 4
    assert sent[6] < sent[4] and sent[7] <= sent[5]


@pytest.mark.parametrize("test", [test_vectorized_route_matches_line_loop,
                                  test_gzip_input_parses_as_plain])
def test_parse_with_columns_reserved_from_the_first_block(monkeypatch, test):
    # Every parse reserves the rows that its first block's rows per byte
    # predict, too many or too few, and grows from there.
    monkeypatch.setattr(trace_module, "_MAPPED", 0)
    test()


def _fixed_width_lines(rows):
    return b"".join(b"u%04d,i%05d,%07d\n" % (k % 5000, k % 30011, k) for k in range(rows))


def _spy_fresh_buffers(monkeypatch):
    sizes = []
    real = trace_module._Columns._fresh

    def spy(self, rows):
        sizes.append(rows)
        real(self, rows)

    monkeypatch.setattr(trace_module._Columns, "_fresh", spy)
    return sizes


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_columns_are_reserved_once_from_the_input_size(monkeypatch, tmp_path, compress):
    # Lines of one width: the first block's rows per byte and the input's
    # size (the file's, or the ISIZE of its gzip trailer) give the row count
    # exactly, so the columns are reserved once and never grow.
    data = _fixed_width_lines(3000)
    path = tmp_path / "trace.csv"
    path.write_bytes(gzip.compress(data) if compress else data)
    monkeypatch.setattr(trace_module, "_MAPPED", 0)
    monkeypatch.setattr(trace_module, "READ_BLOCK", 1000)
    sizes = _spy_fresh_buffers(monkeypatch)
    assert load_trace(path) == parse_trace(_ReadOnly(data))
    assert parse_trace(path.read_bytes()) == parse_trace(_ReadOnly(data))
    assert sizes[0] == sizes[2] == 3000 and sizes[1] < 100 and sizes[3] < 100


def test_a_refused_reservation_falls_back_to_growth(monkeypatch):
    # A corrupt gzip trailer's ISIZE may ask for rows the address space
    # cannot hold. The parse goes on in small buffers and reports the
    # corruption where zlib meets the trailer.
    sizes = _spy_fresh_buffers(monkeypatch)
    real = trace_module._Columns._fresh

    def refuse_large(self, rows):
        if rows > 10_000:
            raise MemoryError
        real(self, rows)

    monkeypatch.setattr(trace_module._Columns, "_fresh", refuse_large)
    monkeypatch.setattr(trace_module, "READ_BLOCK", 1000)
    data = gzip.compress(_fixed_width_lines(3000))
    with pytest.raises(TraceParseError, match="corrupt gzip input"):
        parse_trace(data[:-4] + b"\xff\xff\xff\xff")
    assert len(sizes) == 1 and sizes[0] < 100


@pytest.fixture(scope="module")
def big_trace_bytes():
    trace = generate_synthetic_trace(2000, 20000, 200_000, "zipf", seed=1)
    return render_trace(trace).encode()


def _traced_peak(parse):
    tracemalloc.start()
    try:
        result = parse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.trace) == 200_000
    return peak


def test_parse_peak_memory_is_bounded(big_trace_bytes):
    # The columns with their id tables and the code copies made while they
    # are sorted, plus one READ_BLOCK's numpy temporaries, peak at 7.8 MiB;
    # the bound leaves 1.2 MiB of margin. A second copy of the 3 MB input,
    # or an object per request, would break it.
    assert _traced_peak(lambda: parse_trace(big_trace_bytes, sort=True)) < 9 * 2**20


def test_load_gzip_peak_memory_is_bounded(big_trace_bytes, tmp_path):
    # As above: the file is decompressed one block at a time, never whole.
    path = tmp_path / "trace.csv.gz"
    path.write_bytes(gzip.compress(big_trace_bytes))
    assert _traced_peak(lambda: load_trace(path, sort=True)) < 9 * 2**20


def test_parse_long_id_peak_memory_is_bounded(big_trace_bytes):
    # One 100 kB id among the short ones sends its block to the line loop,
    # and the peak rises to 8.7 MiB, the id tables' direct-mapped slots
    # included. Keys as wide as that id, one row per line of its block,
    # would take about a gigabyte.
    at = big_trace_bytes.index(b"\n", len(big_trace_bytes) // 2) + 1
    data = big_trace_bytes[:at] + b"u" * 100_000 + big_trace_bytes[big_trace_bytes.index(b",", at):]
    assert _traced_peak(lambda: parse_trace(data, sort=True)) < 9 * 2**20


_FILL_TWICE = """
import resource, numpy as np, sharegraph
def faults_of_fill():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    blocks = [np.ones(512 << 10, dtype=np.uint8) for _ in range(28)]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    del blocks
    return faults
faults_of_fill()
print(faults_of_fill())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc only")
def test_freed_heap_is_reused_not_faulted_in_again():
    # Importing sharegraph pins glibc's mmap and trim thresholds, so 14 MiB
    # of freed 512 KiB blocks stay in the heap and the next ones reuse their
    # pages. Left to glibc, a fresh process maps each block on its own and
    # faults it in again. A fresh process, because earlier tests move glibc's
    # own thresholds.
    result = subprocess.run([sys.executable, "-c", _FILL_TWICE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 50


_ids = st.text(st.characters(codec="utf-8", exclude_characters=",\n"),
               min_size=1, max_size=8).filter(lambda s: not s.startswith("#"))
_records = st.tuples(_ids, _ids, st.integers(min_value=0, max_value=10**9))


@given(st.lists(_records, max_size=60))
@settings(max_examples=100, deadline=None)
def test_render_parse_round_trip(records):
    trace = trace_of(records)
    parsed = parse_trace(render_trace(trace))
    assert parsed.trace == trace
    assert parsed.rejected == ()


# --- summaries ---

def test_summarize_six_record_example():
    trace = parse_trace(SIX_RECORD_CSV).trace
    s = summarize(trace)
    assert s == type(s)(user_count=3, request_count_all=6,
                        request_count_distinct=3, duration=5)


def test_summarize_single_record():
    s = summarize(make_trace([("u1", "f1", 42)]))
    assert (s.user_count, s.request_count_all, s.request_count_distinct, s.duration) == (1, 1, 1, 0)


def test_summarize_multiset_collapse():
    trace = make_trace([(f"u{k}", "f1", k) for k in range(5)])
    s = summarize(trace)
    assert s.request_count_distinct == 1
    assert s.request_count_all == 5


def test_summarize_window_counts_only_the_ids_it_uses():
    # A window shares its trace's id tables, users and items it never requests included.
    trace = make_trace([("u1", "f1", 0), ("u2", "f2", 1), ("u3", "f1", 2), ("u1", "f3", 3)])
    s = summarize(slice_window(trace, TimeWindow(1, 3)))
    assert (s.user_count, s.request_count_distinct) == (2, 2)
    assert type(s.user_count) is int and type(s.request_count_distinct) is int


def test_summarize_empty_raises():
    with pytest.raises(EmptyTraceError):
        summarize(trace_of(()))


@given(st.lists(_records, min_size=1, max_size=40), st.randoms())
@settings(max_examples=50, deadline=None)
def test_summarize_permutation_invariant(records, rand):
    shuffled = list(records)
    rand.shuffle(shuffled)
    assert summarize(trace_of(records)) == summarize(trace_of(shuffled))


# --- windowing ---

def test_window_boundaries():
    trace = make_trace([("u1", "f1", 0), ("u2", "f2", 1700),
                        ("u3", "f3", 1800), ("u4", "f4", 3599)])
    slices = window_slices(trace, 1800, origin=0)
    assert len(slices) == 2
    (w0, t0), (w1, t1) = slices
    assert (w0.start, w0.end) == (0, 1800)
    assert (w1.start, w1.end) == (1800, 3600)
    assert [r.timestamp for r in t0.records] == [0, 1700]
    assert [r.timestamp for r in t1.records] == [1800, 3599]


def test_single_window_when_everything_fits():
    trace = make_trace([("u1", "f1", 3), ("u2", "f2", 9)])
    slices = window_slices(trace, 100, origin=0)
    assert len(slices) == 1


def test_window_count_at_scale():
    # 180 days in 7-day windows: 26 windows, the last one partial.
    day = 86400
    trace = generate_synthetic_trace(20, 50, 2000, seed=3, span_seconds=180 * day)
    slices = window_slices(trace, 7 * day, origin=0)
    assert len(slices) == 26


def test_empty_windows_are_emitted():
    trace = make_trace([("u1", "f1", 0), ("u2", "f2", 5000)])
    slices = window_slices(trace, 1000, origin=0)
    assert len(slices) == 6
    assert [len(t) for _, t in slices] == [1, 0, 0, 0, 0, 1]


def test_windows_partition_the_records():
    trace = generate_synthetic_trace(10, 20, 500, seed=7, span_seconds=10000)
    for length, origin in [(1000, 0), (777, 3), (10000, -500)]:
        slices = window_slices(trace, length, origin=origin)
        merged = Counter()
        for window, wt in slices:
            for r in wt.records:
                assert window.start <= r.timestamp < window.end
                merged[(r.user_id, r.item_id, r.timestamp)] += 1
        assert merged == Counter((r.user_id, r.item_id, r.timestamp) for r in trace.records)


def test_window_slices_requires_sorted_trace():
    trace = make_trace([("u1", "f1", 9), ("u2", "f2", 3)])
    with pytest.raises(ValueError):
        window_slices(trace, 10)


def test_window_slices_rejects_bad_length():
    trace = make_trace([("u1", "f1", 0)])
    with pytest.raises(ValueError):
        window_slices(trace, 0)


def test_window_slices_of_an_empty_trace_is_empty():
    assert window_slices(trace_of(()), 10) == []


def test_slice_window_filters_half_open():
    trace = make_trace([("u1", "f1", 0), ("u2", "f2", 10), ("u3", "f3", 20)])
    sliced = slice_window(trace, TimeWindow(0, 20))
    assert [r.timestamp for r in sliced.records] == [0, 10]


def test_slice_window_on_unsorted_trace_keeps_row_order():
    trace = make_trace([("u1", "f1", 30), ("u2", "f2", 5), ("u3", "f3", 12), ("u4", "f4", 50)])
    sliced = slice_window(trace, TimeWindow(5, 31))
    assert [r.user_id for r in sliced.records] == ["u1", "u2", "u3"]


def test_window_bounds_beyond_int64():
    trace = make_trace([("u1", "f1", 0), ("u2", "f2", 2**62)])
    assert slice_window(trace, TimeWindow(-10**30, 10**30)) == trace
    assert len(slice_window(trace, TimeWindow(2**63, 10**30))) == 0
    (window, wt), = window_slices(trace, 10**30, origin=-7)
    assert (window.start, len(wt)) == (-7, 2)


def test_window_shares_tables_and_pickles_only_its_ids():
    trace = generate_synthetic_trace(30, 60, 400, seed=5, span_seconds=1000)
    _, window = window_slices(trace, 100, origin=0)[3]
    assert window.user_ids is trace.user_ids
    assert window == trace_of(window.records)
    copy = pickle.loads(pickle.dumps(window))
    assert copy == window
    assert copy.user_ids == tuple(sorted({r.user_id for r in window.records}))
    assert copy.item_ids == tuple(sorted({r.item_id for r in window.records}))

# --- synthetic generation ---

def test_synthetic_degenerate_space():
    trace = generate_synthetic_trace(1, 1, 3, seed=7)
    assert len(trace) == 3
    assert {(r.user_id, r.item_id) for r in trace.records} == {("u0", "i0")}


def test_synthetic_deterministic():
    a = generate_synthetic_trace(10, 40, 200, "zipf", seed=42)
    b = generate_synthetic_trace(10, 40, 200, "zipf", seed=42)
    assert render_trace(a) == render_trace(b)
    c = generate_synthetic_trace(10, 40, 200, "zipf", seed=43)
    assert render_trace(a) != render_trace(c)


def test_synthetic_output_is_time_sorted():
    trace = generate_synthetic_trace(5, 10, 100, seed=1)
    assert trace.time_sorted


def test_synthetic_zipf_rank_frequency_slope_negative():
    trace = generate_synthetic_trace(100, 1000, 10000, "zipf",
                                     zipf_exponent=1.0, seed=1)
    counts = Counter(r.item_id for r in trace.records)
    freq = sorted(counts.values(), reverse=True)
    ranks = np.arange(1, len(freq) + 1)
    slope = np.polyfit(np.log(ranks), np.log(freq), 1)[0]
    assert slope < 0


def test_synthetic_rejects_zero_counts():
    with pytest.raises(ValueError):
        generate_synthetic_trace(0, 1, 1)
    with pytest.raises(ValueError):
        generate_synthetic_trace(1, 1, 1, "nonsense")
    with pytest.raises(ValueError, match="span_seconds"):
        generate_synthetic_trace(1, 1, 1, span_seconds=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"groups": 2}, "at least 3 groups"),
    ({"users_per_group": 1}, "at least 3 groups"),
    ({"pool_size": 0}, "must be >= 1"),
    ({"requests_per_user": 0}, "must be >= 1"),
    ({"bridge_requests": 0}, "must be >= 1"),
])
def test_clustered_rejects_too_few_groups_or_requests(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_clustered_trace(**kwargs)
