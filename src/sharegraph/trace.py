"""Request-trace parsing, windowing, summaries, and synthetic generators.

Canonical trace format: plain CSV text, one record per line as
``user_id,item_id,timestamp`` with integer-second timestamps (parse_trace
lists the forms a timestamp may take). A line ends at ``\\n``, and one
``\\r`` just before it is dropped, so CRLF files read the same; any other
character, a lone ``\\r`` included, is data. Lines starting with ``#`` are
comments, blank lines are ignored, and gzip-compressed input is detected by
its magic bytes. IDs are opaque tokens; they may not contain commas or
newlines (the format could not carry them back out).

The parse reads its input in blocks of whole lines. Plain input is read on
the calling thread. Gzip input is inflated one read ahead on a helper
thread (see _Helper, which the null model's shuffles use too), and zlib
lets it run while the caller converts the block before. The helper never
outlives the parse, except that an interrupt while it waits on a stalled
pipe is raised at once and leaves it in that read (see parse_trace). A
regular block, one where every line is ``user,item,digits`` with ids of 1
to 8 bytes (see _regular_block), is converted by whole numpy columns, a
word at a time: each id is one unaligned 8-byte load, a key whose order is
the ids' ``str`` order, and each timestamp one to three words converted by
SWAR arithmetic. Ids are interned by key and decoded to ``str`` in bulk
(see _IdTable). Every other block, one with a longer id included, goes
through the line loop, which decodes each line on its own and is the one
definition of a valid line; the vectorized route takes only blocks that
the loop would accept unchanged, so both give the same trace.

In memory a trace is columnar: int32 user and item codes into id tables
sorted in ``str`` order, and int64 timestamps. Code order is therefore id
order, and a window is an index range that shares its trace's tables.
"""

from __future__ import annotations

import functools
import gzip
import io
import queue
import threading
import zlib
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, NamedTuple

import numpy as np

from .errors import EmptyTraceError, TraceParseError

_GZIP_MAGIC = b"\x1f\x8b"

# Bytes read per step of the parse.
READ_BLOCK = 1 << 18

# A regular line's timestamp has at most this many digits, so it is below
# 10**18: it cannot overflow int64 and lies below _TIME_LIMIT.
_DIGITS = 18

# A regular line's ids are at most this many bytes long, so that each packs
# into one uint64 key; a longer id sends its block to the line loop.
_KEY_BYTES = 8

# Timestamps lie in [0, _TIME_LIMIT). Window bounds are clipped into
# [0, _TIME_LIMIT] before they are searched in the int64 time column, which
# moves no bound across a timestamp.
_TIME_LIMIT = np.iinfo(np.int64).max


class _Record(NamedTuple):
    """One row of a trace, as ``Trace.records`` lists it."""

    user_id: str
    item_id: str
    timestamp: int


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end) in trace seconds."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start must precede end: [{self.start}, {self.end})")


def _sorted_codes(names: list[str], codes) -> tuple[tuple[str, ...], np.ndarray]:
    """Re-code ``codes``, which index the distinct ``names``, into ``names`` sorted."""
    order = sorted(range(len(names)), key=names.__getitem__)
    return tuple(names[i] for i in order), _ranked(order, codes)


def _ranked(order, codes) -> np.ndarray:
    """``codes`` re-coded to their places in ``order``, a permutation of them."""
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank[np.asarray(codes, dtype=np.int32)]


def _intern(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """(distinct values sorted, code of each value in that table)."""
    first: dict[str, int] = {}
    codes = [first.setdefault(x, len(first)) for x in values]
    return _sorted_codes(list(first), codes)


def _numbered(prefix: str, idx: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The id table and codes of the ids ``prefix + str(k)`` for k in ``idx``."""
    present, inverse = np.unique(idx, return_inverse=True)
    return _sorted_codes([f"{prefix}{k}" for k in present.tolist()], inverse)


class Trace:
    """An ordered sequence of requests, stored as columns.

    Row k is the request of user ``user_ids[user_codes[k]]`` for item
    ``item_ids[item_codes[k]]`` at ``timestamps[k]``. The id tables are
    sorted tuples that may hold ids no row uses: a window or a shuffle
    shares the tables of the trace it came from. The columns are read-only
    numpy arrays. ``time_sorted`` is derived, never supplied: it is True
    exactly when timestamps are non-decreasing in row order.

    ``records`` lists the rows as ``(user_id, item_id, timestamp)`` named
    tuples, which the traced benchmark run reads; the library itself works
    on the columns only. The constructor takes the columns as given: outside
    input enters through ``parse_trace``, and the parse alone decides which
    rows are valid.
    """

    __slots__ = ("user_ids", "item_ids", "user_codes", "item_codes", "timestamps",
                 "time_sorted")

    def __init__(self, user_ids: tuple, user_codes: np.ndarray, item_ids: tuple,
                 item_codes: np.ndarray, timestamps: np.ndarray):
        self.user_ids = user_ids
        self.item_ids = item_ids
        self.user_codes = user_codes
        self.item_codes = item_codes
        self.timestamps = timestamps
        for column in (user_codes, item_codes, timestamps):
            column.flags.writeable = False
        self.time_sorted = bool(np.all(timestamps[1:] >= timestamps[:-1]))

    def _take(self, rows) -> "Trace":
        """The rows selected by a slice, a mask or an index array, same tables."""
        return Trace(self.user_ids, self.user_codes[rows],
                     self.item_ids, self.item_codes[rows], self.timestamps[rows])

    def __reduce__(self):
        # A window shares its trace's tables; pickled, it keeps only the ids it uses.
        users, user_codes = np.unique(self.user_codes, return_inverse=True)
        items, item_codes = np.unique(self.item_codes, return_inverse=True)
        return Trace, (
            tuple(self.user_ids[c] for c in users.tolist()), user_codes.astype(np.int32),
            tuple(self.item_ids[c] for c in items.tolist()), item_codes.astype(np.int32),
            self.timestamps,
        )

    def _decoded(self) -> tuple[list[str], list[str], list[int]]:
        """The user ids, item ids and timestamps of every row, as lists."""
        users, items = self.user_ids, self.item_ids
        return ([users[c] for c in self.user_codes.tolist()],
                [items[c] for c in self.item_codes.tolist()],
                self.timestamps.tolist())

    @property
    def records(self) -> tuple[_Record, ...]:
        """The rows as ``(user_id, item_id, timestamp)`` named tuples, made on each call."""
        return tuple(map(_Record, *self._decoded()))

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return len(self) == len(other) and self._decoded() == other._decoded()

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trace(requests={len(self)}, time_sorted={self.time_sorted})"

    def incidences(self) -> tuple[np.ndarray, np.ndarray]:
        """(item codes, user codes) of the distinct item-user pairs, by item, then user."""
        n = max(len(self.user_ids), 1)
        keys = self.item_codes.astype(np.int64)
        keys *= n
        keys += self.user_codes
        # Sorted, then the first of each run kept: on numpy >= 2.3 a plain
        # np.unique takes a hash path about 10x slower than a sort on these keys.
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return np.divmod(keys[first], n)

    def sorted_by_time(self) -> "Trace":
        """Return the trace stably sorted by timestamp (itself, if already sorted)."""
        if self.time_sorted:
            return self
        return self._take(np.argsort(self.timestamps, kind="stable"))


@dataclass(frozen=True)
class TraceSummary:
    """Headline counts for one trace: users, requests, distinct items, span."""

    user_count: int
    request_count_all: int
    request_count_distinct: int
    duration: int


@dataclass(frozen=True)
class ParseDiagnostic:
    """One rejected input line and why it was rejected."""

    line_number: int
    reason: str


@dataclass(frozen=True)
class ParseResult:
    trace: Trace
    rejected: tuple[ParseDiagnostic, ...]


class _Prefixed:
    """A binary stream read as ``head`` and then the rest of ``stream``.

    The parse reads the gzip magic off its input and puts it back this way,
    so the input need not seek. A read may return less than it was asked
    for, as a raw file's may.
    """

    def __init__(self, head: bytes, stream: BinaryIO):
        self._head, self._stream = head, stream

    def read(self, size: int = -1) -> bytes:
        head = self._head
        if not head:
            return self._stream.read(size)
        if 0 <= size < len(head):
            self._head = head[size:]
            return head[:size]
        self._head = b""
        return head


class _Helper:
    """Calls made one at a time on a helper thread while the caller works.

    ``submit(fn, *args)`` hands the helper one call, and ``result()`` returns
    what that call returned or raises unchanged the exception it raised;
    each ``submit`` is followed by one ``result``. The helper is a daemon
    thread, started by ``with``.

    Leaving the ``with`` block stops the helper, and this is the one join
    rule. Left normally or on an ``Exception``, the block joins the helper
    once the call in flight, if any, is done. Left on any other
    ``BaseException`` (an interrupt, ``SystemExit``, or the
    ``GeneratorExit`` that closes a generator), it does not wait for that
    call, which may be a read of a stalled pipe: the helper ends when the
    call returns, and it does not hold up the interpreter's exit.
    """

    def __enter__(self) -> "_Helper":
        self._calls, self._replies = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        while (call := self._calls.get()) is not None:
            try:
                reply = call(), None
            except BaseException as exc:  # raised again by result, in the caller
                reply = None, exc
            # What the call was given is freed before the caller gets its
            # reply, and the reply is not held while the helper waits.
            del call
            self._replies.put(reply)
            del reply

    def submit(self, fn: Callable, *args) -> None:
        self._calls.put(functools.partial(fn, *args))

    def result(self):
        value, exc = self._replies.get()
        if exc is not None:
            raise exc
        return value

    def __exit__(self, kind, exc, traceback) -> None:
        self._calls.put(None)
        if kind is None or issubclass(kind, Exception):
            self._thread.join()


def _read_ahead(stream: BinaryIO) -> Iterator[bytes]:
    """``stream.read(READ_BLOCK)`` up to ``b""``, each read made on a helper one ahead.

    The next read is submitted before a block is yielded, so the helper
    reads while the caller works on the block. The helper is joined before
    the last read's ``b""`` ends the iteration or a read's error is raised;
    closing the generator mid-way does not wait for the read in flight
    (see _Helper).
    """
    with _Helper() as helper:
        helper.submit(stream.read, READ_BLOCK)
        while block := helper.result():
            helper.submit(stream.read, READ_BLOCK)
            yield block


def _blocks(stream: BinaryIO, ahead: bool) -> Iterator[bytes]:
    """The bytes of a binary stream in blocks of whole lines.

    Every block but the last ends at a ``\\n``: the unfinished line at the end
    of each read is carried into the next block. The last block is what
    follows the last ``\\n``, if anything does. The unfinished line is kept
    as the pieces read so far and only each new read is searched, so a line
    of any length costs time linear in its length. With ``ahead`` the reads
    are made on a helper thread (see _read_ahead), joined before the last
    block is yielded or an error is raised.
    """
    reads = _read_ahead(stream) if ahead else iter(lambda: stream.read(READ_BLOCK), b"")
    pieces = []
    try:
        for block in reads:
            cut = block.rfind(b"\n") + 1
            if not cut:
                pieces.append(block)
                continue
            pieces.append(block[:cut])
            yield b"".join(pieces)
            pieces = [block[cut:]]
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise TraceParseError(f"corrupt gzip input: {exc}") from exc
    tail = b"".join(pieces)
    if tail:
        yield tail


# A regular block is read in unaligned 8-byte words from a copy padded with
# _PAD NUL bytes on each side: the third word of a timestamp (see
# _regular_block) may start 19 bytes before a short first line, and an item
# key may run past the block's end.
_PAD = 3 * 8

# _HIGH_BYTES[n] keeps the n most significant bytes of a word, n in 0..8.
_HIGH_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)

# _DIGIT_BYTES[k, d] keeps the bytes of a d-digit timestamp's word k (see
# _regular_block) that hold its digits.
_DIGIT_BYTES = _HIGH_BYTES[np.clip(np.arange(_DIGITS + 1) - 8 * np.arange(3)[:, None], 0, 8)]

# SWAR constants: eight bytes of 0x30, and those of the digit-range check
# and the eight-digit conversion (see _eight_digits).
_ZEROS = np.uint64(0x3030303030303030)
_SIXES = np.uint64(0x0606060606060606)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_PAIRS = np.uint64(0x000000FF000000FF)
_BY_100 = np.uint64(100 + (1000000 << 32))
_BY_1 = np.uint64(1 + (10000 << 32))


def _regular_block(chunk: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The fields of a block whose every line the line loop would accept as is.

    A block is regular when it ends at a ``\\n``, has no NUL byte (keys are
    NUL-padded) and is valid UTF-8, and each of its lines holds exactly two
    commas, a user id of 1 to _KEY_BYTES bytes before the first, an item id
    of 1 to _KEY_BYTES bytes between them, and after the second 1 to _DIGITS
    ASCII digits up to the ``\\n`` or a ``\\r`` just before it; no line
    starts with ``#``. Returns the user keys, the item keys and the int64
    timestamps of its lines, or None for any other block.

    A key is its id's bytes read as a big-endian uint64, NUL-padded, so with
    no NUL in the ids equal keys are equal ids and key order is ``str``
    order (UTF-8 keeps code point order). Each key is one unaligned 8-byte
    load with the bytes past the id masked off; each timestamp is converted
    from the one to three words that end at its line's end.
    """
    if not chunk.endswith(b"\n") or b"\0" in chunk:
        return None
    # An id over _KEY_BYTES on the first line declines before any numpy pass.
    comma = chunk.find(b",")
    if comma > _KEY_BYTES or chunk.find(b",", comma + 1) - comma - 1 > _KEY_BYTES:
        return None
    if not chunk.isascii():
        try:
            chunk.decode()
        except UnicodeDecodeError:
            return None
    b = np.frombuffer(chunk, dtype=np.uint8)
    lines = np.count_nonzero(b == ord("\n"))
    seps = np.flatnonzero((b == ord("\n")) | (b == ord(",")))
    # Every line is comma, comma, newline: a third of the separators are
    # newlines and each third one is, so line k's separators are row k.
    if len(seps) != 3 * lines:
        return None
    seps = seps.reshape(-1, 3)
    first, second, ends = seps.T
    if not np.all(b[ends] == ord("\n")):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    user_len, item_len = first - starts, second - first - 1
    # Two columns of seps are overwritten in place, which keeps the block's
    # temporaries small: ends becomes where each timestamp stops, and second
    # its count of digits.
    stop, digits = ends, second
    stop -= b[stop - 1] == ord("\r")
    np.subtract(stop, second, out=digits)
    digits -= 1
    if min(user_len.min(), item_len.min(), digits.min()) < 1:
        return None
    if max(user_len.max(), item_len.max()) > _KEY_BYTES or digits.max() > _DIGITS:
        return None
    if np.any(b[starts] == ord("#")):
        return None

    padded = b"".join((bytes(_PAD), chunk, bytes(_PAD)))
    # Element i of each view is the word of padded[i:i + 8].
    keys = np.ndarray(len(padded) - 7, dtype=">u8", buffer=padded, strides=(1,))
    words = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))
    starts += _PAD
    first += _PAD + 1
    user_keys = keys[starts] & _HIGH_BYTES[user_len]
    item_keys = keys[first] & _HIGH_BYTES[item_len]
    # Only the timestamps are left to read: free the key columns first.
    del starts, user_len, item_len
    # Word k holds digits 8k+1 to 8k+8 from the right, last digit in its
    # highest byte; a byte before the field counts as a leading zero.
    stop += _PAD
    timestamps = np.zeros(len(stop), dtype=np.uint64)
    for k in range((int(digits.max()) + 7) // 8):
        stop -= 8
        word = words[stop]
        word ^= _ZEROS
        word &= _DIGIT_BYTES[k][digits]
        # A byte was a digit exactly when it now holds 0 to 9, so that
        # neither it nor it plus 6 has a bit in its high nibble.
        if np.any((word | (word + _SIXES)) & _HIGH_NIBBLES):
            return None
        timestamps += _eight_digits(word) * 10 ** (8 * k)
    return user_keys, item_keys, timestamps.view(np.int64)


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """The numbers written by words of eight digit values, first digit lowest.

    The SWAR conversion of Langdale and Lemire ("Parsing gigabytes of JSON
    per second", 2019): pairs of digits, then fours, then all eight, each
    step one multiply-add over the word. Products wrap in uint64.
    """
    word = word * 10 + (word >> 8)
    return ((word & _PAIRS) * _BY_100 + ((word >> 16) & _PAIRS) * _BY_1) >> 32


class _IdTable:
    """One column's ids, coded in order of first sight.

    Regular blocks intern by key: ``keys`` holds, sorted, the keys (see
    _regular_block) of the ids they have met and ``key_codes`` their codes,
    so a block looks its distinct keys up at once and codes only the ids new
    to the trace, merging them into the two arrays. While every id has a
    key, a new key is a new id, and no id is decoded until the end, where
    the key table, in ``str`` order, is the sorted id table. The line loop
    interns by id into the dict ``by_id()``, made on its first call from the
    keys decoded in bulk; from then on it holds every id, and a block's new
    keys are decoded and looked up in it, since the line loop may have met
    their ids first.
    """

    def __init__(self):
        self.keys = np.empty(0, dtype=np.uint64)
        self.key_codes = np.empty(0, dtype=np.int32)
        self._by_id: dict[str, int] | None = None

    def by_id(self) -> dict[str, int]:
        """Every id met so far and its code, in code order."""
        if self._by_id is None:
            ids = _decoded(self.keys[np.argsort(self.key_codes)])
            self._by_id = dict(zip(ids, range(len(ids))))
        return self._by_id

    def block_codes(self, keys: np.ndarray) -> np.ndarray:
        """The int32 codes of a regular block's keys; their new ids are interned."""
        distinct, inverse = np.unique(keys, return_inverse=True)
        known = self.keys
        at = np.searchsorted(known, distinct)
        seen = np.zeros(len(distinct), dtype=bool)
        inside = at < len(known)
        seen[inside] = known[at[inside]] == distinct[inside]
        codes = np.empty(len(distinct), dtype=np.int32)
        codes[seen] = self.key_codes[at[seen]]
        new = ~seen
        if new.any():
            new_keys = distinct[new]
            table = self._by_id
            if table is None:
                codes[new] = np.arange(len(known), len(known) + len(new_keys))
            else:
                codes[new] = [table.setdefault(name, len(table)) for name in _decoded(new_keys)]
            self.keys = np.insert(known, at[new], new_keys)
            self.key_codes = np.insert(self.key_codes, at[new], codes[new])
        return codes[inverse.ravel()]

    def sorted_codes(self, codes) -> tuple[tuple[str, ...], np.ndarray]:
        """The ids sorted, and ``codes`` re-coded into that table."""
        if self._by_id is not None and len(self._by_id) > len(self.keys):
            # The line loop met ids that have no key.
            return _sorted_codes(list(self._by_id), codes)
        return tuple(_decoded(self.keys)), _ranked(self.key_codes, codes)


def _decoded(keys: np.ndarray) -> list[str]:
    """The ids of keys (see _regular_block), decoded at once."""
    if not len(keys):
        return []
    # An 8-byte string drops its trailing NULs, the padding, in tolist(); no
    # id holds a "\n", so one decode serves them all.
    return b"\n".join(keys.astype(">u8").view("S8").tolist()).decode().split("\n")


def parse_trace(data: str | bytes | BinaryIO, *, sort: bool = False) -> ParseResult:
    """Parse canonical trace CSV into a Trace.

    Accepts text, bytes or a binary file, which need not seek, read in
    blocks of READ_BLOCK bytes; gzip-compressed input is decompressed
    transparently. A block in which every line is regular (see
    _regular_block) is converted by whole numpy columns; any other block
    goes through the line loop, which decodes each line on its own and
    defines what a valid line is. A timestamp is any field that ``int()``
    accepts with a value in [0, 2**63 - 1): a sign, surrounding whitespace
    (so the ``\\r`` left by a ``\\r\\r\\n`` line ending), ``_`` between
    digits and non-ASCII decimal digits included; the word route takes only
    1 to 18 ASCII digits and leaves every other form to the line loop.
    Malformed lines (invalid UTF-8, wrong field count, bad or out-of-range
    timestamp, empty ID) are rejected individually and reported with their
    line numbers. Ids are interned as they are read, so no per-record
    object is made.

    Plain input is read on the calling thread and starts no thread. Gzip
    input is inflated one read ahead on a helper thread (see _Helper), so
    that inflating a block overlaps converting the one before. The helper
    never outlives the call: it is joined before the call returns or
    raises, but for one case. An interrupt that arrives while the helper
    waits on a stalled pipe is raised at once, without waiting for that
    read; the helper, a daemon thread, ends when the read returns and does
    not delay the interpreter's exit. Closing a buffered file (``io.BufferedReader``)
    waits for a read in progress, so ``load_trace`` and the command line
    open their file unbuffered.

    Raises:
        TraceParseError: when gzip input is truncated or corrupt, or when at
            least one data line was present and every one of them was
            rejected. The exception carries the diagnostics.
        OSError: as raised by a read of the input, unchanged, also when the
            helper thread made that read.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    magic = stream.read(2)
    if len(magic) == 1:  # a raw stream, a pipe say, may return less
        magic += stream.read(1)
    stream = _Prefixed(magic, stream)
    gzipped = magic == _GZIP_MAGIC
    if gzipped:
        stream = gzip.GzipFile(fileobj=stream)

    user_table, item_table = _IdTable(), _IdTable()
    user_codes, item_codes, timestamps = array("i"), array("i"), array("q")
    rejected, data_lines, lineno = [], 0, 0
    for chunk in _blocks(stream, ahead=gzipped):
        regular = _regular_block(chunk)
        if regular is not None:
            user_keys, item_keys, times = regular
            user_codes.frombytes(user_table.block_codes(user_keys).view(np.uint8))
            item_codes.frombytes(item_table.block_codes(item_keys).view(np.uint8))
            timestamps.frombytes(times.view(np.uint8))
            lineno += len(times)
            data_lines += len(times)
            continue
        users, items = user_table.by_id(), item_table.by_id()
        lines = chunk.replace(b"\r\n", b"\n").split(b"\n")
        if chunk.endswith(b"\n"):
            lines.pop()
        for raw in lines:
            lineno += 1
            try:
                line = raw.decode()  # UTF-8
            except UnicodeDecodeError as exc:
                data_lines += 1
                rejected.append(ParseDiagnostic(lineno, f"invalid UTF-8 at byte {exc.start}: {exc.reason}"))
                continue
            if not line.strip() or line.startswith("#"):
                continue
            data_lines += 1
            fields = line.split(",")
            if len(fields) != 3:
                rejected.append(ParseDiagnostic(lineno, f"expected 3 fields, got {len(fields)}"))
                continue
            user_id, item_id, ts_field = fields
            try:
                timestamp = int(ts_field)
            except ValueError:
                rejected.append(ParseDiagnostic(lineno, f"timestamp is not an integer: {ts_field!r}"))
                continue
            if timestamp < 0:
                rejected.append(ParseDiagnostic(lineno, f"timestamp is negative: {timestamp}"))
                continue
            if timestamp >= _TIME_LIMIT:
                rejected.append(ParseDiagnostic(lineno, f"timestamp is out of range: {timestamp}"))
                continue
            if not user_id or not item_id:
                rejected.append(ParseDiagnostic(lineno, "empty user_id or item_id"))
                continue
            user_codes.append(users.setdefault(user_id, len(users)))
            item_codes.append(items.setdefault(item_id, len(items)))
            timestamps.append(timestamp)

    if data_lines > 0 and not timestamps:
        raise TraceParseError(
            f"all {data_lines} data lines rejected; first: "
            f"line {rejected[0].line_number}: {rejected[0].reason}",
            diagnostics=rejected,
        )

    user_ids, user_codes = user_table.sorted_codes(user_codes)
    item_ids, item_codes = item_table.sorted_codes(item_codes)
    # A view of the array's buffer, not a copy.
    trace = Trace(user_ids, user_codes, item_ids, item_codes,
                  np.frombuffer(timestamps, dtype=np.int64))
    if sort:
        trace = trace.sorted_by_time()
    return ParseResult(trace=trace, rejected=tuple(rejected))


def load_trace(path, *, sort: bool = False) -> ParseResult:
    """Parse a trace file (plain or gzip) block by block as it is read.

    The file is opened unbuffered: closing a buffered file waits for a read
    in progress, and after an interrupt on gzip input the parse's helper
    thread may still be reading a stalled pipe (see _Helper's join rule).
    """
    with open(path, "rb", buffering=0) as fh:
        return parse_trace(fh, sort=sort)


def render_trace(trace: Trace) -> str:
    """Render a trace back to canonical CSV text. Inverse of parse_trace."""
    return "".join(f"{u},{i},{t}\n" for u, i, t in zip(*trace._decoded()))


def summarize(trace: Trace) -> TraceSummary:
    """Count users, requests (all and distinct items), and time span."""
    if not len(trace):
        raise EmptyTraceError("cannot summarize an empty trace")
    return TraceSummary(
        user_count=int(np.count_nonzero(np.bincount(trace.user_codes))),
        request_count_all=len(trace),
        request_count_distinct=int(np.count_nonzero(np.bincount(trace.item_codes))),
        duration=int(trace.timestamps.max() - trace.timestamps.min()),
    )


def _rows_before(trace: Trace, bounds: list[int]) -> list[int]:
    """For each bound, the number of rows of a time-sorted trace before it."""
    clipped = [min(max(bound, 0), _TIME_LIMIT) for bound in bounds]
    return np.searchsorted(trace.timestamps, np.array(clipped, dtype=np.int64)).tolist()


def window_slices(trace: Trace, length: int, origin: int = 0) -> list[tuple[TimeWindow, Trace]]:
    """Partition a time-sorted trace into consecutive tumbling windows.

    Window k covers [origin + k*length, origin + (k+1)*length). Every window
    from the one holding the earliest record through the one holding the
    latest is emitted, including empty ones, so time series stay aligned.
    Each window's trace is an index range of this one.
    """
    if length <= 0:
        raise ValueError(f"window length must be positive, got {length}")
    if not trace.time_sorted:
        raise ValueError("window_slices requires a time-sorted trace")
    if not len(trace):
        return []

    first_k = (int(trace.timestamps[0]) - origin) // length
    last_k = (int(trace.timestamps[-1]) - origin) // length
    starts = [origin + k * length for k in range(first_k, last_k + 2)]
    rows = _rows_before(trace, starts)
    return [
        (TimeWindow(start, start + length), trace._take(slice(lo, hi)))
        for start, lo, hi in zip(starts, rows, rows[1:])
    ]


def _window_rows(trace: Trace, window: TimeWindow) -> slice | np.ndarray:
    """The rows inside the window: an index range on a time-sorted trace, else a mask."""
    if trace.time_sorted:
        lo, hi = _rows_before(trace, [window.start, window.end])
        return slice(lo, hi)
    t = trace.timestamps
    return (t >= window.start) & (t < window.end)


def slice_window(trace: Trace, window: TimeWindow) -> Trace:
    """Keep only the records whose timestamps fall inside the window.

    On a time-sorted trace this is an index range found by binary search.
    """
    return trace._take(_window_rows(trace, window))


def generate_synthetic_trace(
    users: int,
    items: int,
    requests: int,
    popularity: str = "uniform",
    *,
    zipf_exponent: float = 1.0,
    seed: int = 0,
    span_seconds: int = 86400,
) -> Trace:
    """Generate a reproducible random trace.

    Users are drawn uniformly. Item selection follows ``popularity``:
    "uniform", or "zipf" where item rank r is drawn with probability
    proportional to r**-zipf_exponent (item i0 is the most popular).
    Timestamps are uniform over [0, span_seconds). Output is time-sorted
    and byte-identical for a given seed.
    """
    if users < 1 or items < 1 or requests < 1:
        raise ValueError("users, items, and requests must all be >= 1")
    if span_seconds < 1:
        raise ValueError("span_seconds must be >= 1")

    rng = np.random.default_rng(seed)
    user_idx = rng.integers(0, users, size=requests)
    if popularity == "uniform":
        item_idx = rng.integers(0, items, size=requests)
    elif popularity == "zipf":
        ranks = np.arange(1, items + 1, dtype=float)
        probs = ranks ** -zipf_exponent
        probs /= probs.sum()
        item_idx = rng.choice(items, size=requests, p=probs)
    else:
        raise ValueError(f"unknown popularity law: {popularity!r}")
    times = rng.integers(0, span_seconds, size=requests)

    order = np.argsort(times, kind="stable")
    return Trace(*_numbered("u", user_idx[order]), *_numbered("i", item_idx[order]),
                 times[order].astype(np.int64))


def generate_clustered_trace(
    groups: int = 16,
    users_per_group: int = 10,
    pool_size: int = 30,
    requests_per_user: int = 20,
    bridge_requests: int = 10,
    *,
    seed: int = 0,
    span_seconds: int = 3600,
) -> Trace:
    """Generate a trace with built-in interest groups.

    Users are partitioned into ``groups`` disjoint interest groups, each with
    its own disjoint item pool. Every user requests its group's anchor item
    plus random items from the group pool, so each group projects to a clique
    in the one-shared-item graph. The first user of each group additionally
    requests the next group's anchor plus random items from that pool, which
    links the group cliques into a ring: strongly clustered locally, short
    paths globally. Shuffling the user or item column destroys the structure.
    """
    if groups < 3 or users_per_group < 2:
        raise ValueError("need at least 3 groups of at least 2 users")
    if pool_size < 1 or requests_per_user < 1 or bridge_requests < 1:
        raise ValueError("pool_size, requests_per_user, and bridge_requests must be >= 1")

    rng = np.random.default_rng(seed)
    rows: list[tuple[str, str]] = []

    def item(g: int, j: int) -> str:
        return f"g{g:02d}i{j:03d}"

    for g in range(groups):
        for k in range(users_per_group):
            user = f"g{g:02d}u{k:02d}"
            rows.append((user, item(g, 0)))
            for j in rng.integers(0, pool_size, size=requests_per_user - 1):
                rows.append((user, item(g, int(j))))
            if k == 0:
                nxt = (g + 1) % groups
                rows.append((user, item(nxt, 0)))
                for j in rng.integers(0, pool_size, size=bridge_requests - 1):
                    rows.append((user, item(nxt, int(j))))

    times = rng.integers(0, span_seconds, size=len(rows))
    order = np.argsort(times, kind="stable").tolist()
    return Trace(*_intern([rows[j][0] for j in order]),
                 *_intern([rows[j][1] for j in order]),
                 times[order].astype(np.int64))
