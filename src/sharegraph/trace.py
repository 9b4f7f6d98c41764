"""Request-trace parsing, windowing, summaries, and synthetic generators.

Canonical trace format: plain CSV text, one record per line as
``user_id,item_id,timestamp`` with integer-second timestamps (parse_trace
lists the forms a timestamp may take). A line ends at ``\\n``, and one
``\\r`` just before it is dropped, so CRLF files read the same; any other
character, a lone ``\\r`` included, is data. Lines starting with ``#`` are
comments, blank lines are ignored, and gzip-compressed input is detected by
its magic bytes. IDs are opaque tokens; they may not contain commas or
newlines (the format could not carry them back out).

The parse reads its input in blocks of whole lines, on the calling thread,
and starts no thread. Gzip input is inflated by one zlib call a block (see
_Gunzip). A regular block, one where every line is ``user,item,digits``
with ids of 1 to 8 bytes (see _regular_block), is converted by whole numpy
columns, a word at a time: each id is one unaligned 8-byte load, a key
whose order is the ids' ``str`` order, and each timestamp one to three
words converted by SWAR arithmetic. Ids are interned by key, through a
direct-mapped table of codes in front of a sorted key table, and decoded
to ``str`` in bulk (see _IdTable). Every other block, one with a longer id
included, goes through the line loop, which decodes each line on its own
and is the one definition of a valid line; the vectorized route takes only
blocks that the loop would accept unchanged, so both give the same trace.
The rows are appended to numpy columns, reserved at once for a large input
whose size is known (see _Columns).

In memory a trace is columnar: int32 user and item codes into id tables
sorted in ``str`` order, and int64 timestamps. Code order is therefore id
order, and a window is an index range that shares its trace's tables.
"""

from __future__ import annotations

import functools
import io
import os
import stat
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
    return tuple(names[i] for i in order), _recoded(order, codes)


def _recoded(order, codes) -> np.ndarray:
    """``codes`` re-coded to their places in ``order``, a permutation of them.

    The int32 view of ``codes`` is re-coded in place, a slice at a time, so
    neither the parse's code columns nor a temporary of their size is
    copied; every caller passes codes it owns.
    """
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    codes = np.asarray(codes, dtype=np.int32)
    step = 1 << 16
    for at in range(0, len(codes), step):
        part = codes[at:at + step]
        part[:] = rank[part]
    return codes


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the entry before."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


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

    def _window_rows(self, window: TimeWindow):
        """The rows inside the window: a slice if the trace is time-sorted, else a mask."""
        if self.time_sorted:
            return slice(*_rows_before(self, [window.start, window.end]))
        return (self.timestamps >= window.start) & (self.timestamps < window.end)

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
        return np.divmod(keys[_run_starts(keys)], n)

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


class _Gunzip:
    """The inflated bytes of a gzip stream of one or more members.

    ``head`` is the start of the stream, already read off it. Each
    ``read()`` makes one zlib call, ``decompress(pending, READ_BLOCK)``,
    reading more of the stream first when no compressed bytes are pending,
    and returns its output; ``b""`` means the last member ended. The stream
    is read a quarter block at a time: text inflates about fourfold, so a
    call mostly uses up its input, and little compressed input is held or
    copied as the unconsumed tail. zlib reads each member's header and
    checks its CRC and length. Zero bytes after a member are skipped, as
    gzip(1) skips them. Input that ends inside a member, or is not gzip
    where a member should start, raises TraceParseError.
    """

    def __init__(self, stream: BinaryIO, head: bytes):
        self._stream = stream
        self._pending = head  # compressed bytes not yet given to zlib
        self._member = None  # the decompressor of the member being read

    def read(self) -> bytes:
        while True:
            if not self._pending:
                self._pending = self._stream.read((READ_BLOCK + 3) // 4)
                if not self._pending:
                    if self._member is not None:
                        raise TraceParseError("corrupt gzip input: truncated inside a member")
                    return b""
            if self._member is None:
                self._pending = self._pending.lstrip(b"\0")
                if not self._pending:
                    continue
                self._member = zlib.decompressobj(wbits=31)
            try:
                out = self._member.decompress(self._pending, READ_BLOCK)
            except zlib.error as exc:
                raise TraceParseError(f"corrupt gzip input: {exc}") from exc
            if self._member.eof:
                self._pending, self._member = self._member.unused_data, None
            else:
                self._pending = self._member.unconsumed_tail
            if out:
                return out


def _blocks(read: Callable[[], bytes], head: bytes = b"") -> Iterator[bytes]:
    """``head``, then what ``read()`` returns up to ``b""``, in blocks of whole lines.

    Every block but the last ends at a ``\\n``: the unfinished line at the end
    of each read is carried into the next block. The last block is what
    follows the last ``\\n``, if anything does. The unfinished line is kept
    as the pieces read so far and only each new read is searched, so a line
    of any length costs time linear in its length.
    """
    pieces = [head]
    for block in iter(read, b""):
        cut = block.rfind(b"\n") + 1
        if not cut:
            pieces.append(block)
            continue
        pieces.append(block[:cut])
        yield b"".join(pieces)
        pieces = [block[cut:]]
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


# Fibonacci hashing: 2**64 over the golden ratio, the multiplier of a key's
# hash in _IdTable's direct-mapped table (see _IdTable._slots_of).
_HASH = np.uint64(0x9E3779B97F4A7C15)


def _slot_bits(count: int) -> int:
    """Bits of a slot number for ``count`` keys, so at most half the slots are filled."""
    return max(1, (2 * count).bit_length())


class _IdTable:
    """One column's ids, coded in order of first sight.

    Regular blocks intern by key (see _regular_block). A direct-mapped table
    comes first: a key's slot, the top bits of its multiplicative hash,
    holds a code, and the key is a hit when ``code_keys``, the keys in code
    order, holds it at that code. Only the misses, new ids and the losers of
    slot collisions, go to _sorted_block_codes, which looks them up in
    ``keys``, the keys sorted, with ``key_codes`` their codes, codes the ids
    new to the trace, and puts each miss in its slot. While every id has a
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
        # 0 is no key's value: it stands for a code with no key, so an empty
        # slot's code 0 confirms no key until code 0 is handed out.
        self.code_keys = np.zeros(1, dtype=np.uint64)
        self._by_id: dict[str, int] | None = None
        self._rehash()

    def _rehash(self) -> None:
        """Size the slot table for the keys met so far and fill it with them."""
        self._bits = _slot_bits(len(self.keys))
        self._slots = np.zeros(1 << self._bits, dtype=np.int32)
        self._slots[self._slots_of(self.keys)] = self.key_codes

    def _slots_of(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each key: the top bits of its multiplicative hash.

        A short id's key ends in NUL bytes, so its high half is folded into
        its low half first, where the multiply carries it into the top bits.
        The slots are below 2**63: their int64 view indexes without a cast.
        """
        hashes = keys >> 32
        hashes ^= keys
        hashes *= _HASH
        hashes >>= 64 - self._bits
        return hashes.view(np.int64)

    def by_id(self) -> dict[str, int]:
        """Every id met so far and its code, in code order."""
        if self._by_id is None:
            ids = _key_ids(self.code_keys[:len(self.keys)])
            self._by_id = dict(zip(ids, range(len(ids))))
        return self._by_id

    def block_codes(self, keys: np.ndarray) -> np.ndarray:
        """The int32 codes of a regular block's keys; their new ids are interned."""
        slots = self._slots_of(keys)
        codes = self._slots[slots]
        miss = np.flatnonzero(np.take(self.code_keys, codes) != keys)
        if len(miss):
            codes[miss] = self._slots[slots[miss]] = self._sorted_block_codes(keys[miss])
            if _slot_bits(len(self.keys)) > self._bits:
                self._rehash()
        return codes

    def _sorted_block_codes(self, keys: np.ndarray) -> np.ndarray:
        """The codes of keys looked up in the sorted key table; new ids are interned."""
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
                new_codes = np.arange(len(known), len(known) + len(new_keys), dtype=np.int32)
            else:
                new_codes = np.array([table.setdefault(name, len(table))
                                      for name in _key_ids(new_keys)], dtype=np.int32)
            codes[new] = new_codes
            self.keys = np.insert(known, at[new], new_keys)
            self.key_codes = np.insert(self.key_codes, at[new], new_codes)
            short = int(new_codes.max()) + 1 - len(self.code_keys)
            if short > 0:
                self.code_keys = np.concatenate((self.code_keys, np.zeros(short, dtype=np.uint64)))
            self.code_keys[new_codes] = new_keys
        return codes[inverse.ravel()]

    def sorted_codes(self, codes) -> tuple[tuple[str, ...], np.ndarray]:
        """The ids sorted, and ``codes`` re-coded into that table; ends the interning."""
        del self._slots, self.code_keys  # freed before the id table is built
        if self._by_id is not None and len(self._by_id) > len(self.keys):
            # The line loop met ids that have no key.
            return _sorted_codes(list(self._by_id), codes)
        return tuple(_key_ids(self.keys)), _recoded(self.key_codes, codes)


def _key_ids(keys: np.ndarray) -> list[str]:
    """The ids of keys (see _regular_block), decoded at once."""
    if not len(keys):
        return []
    # Each key's bytes and a "\n", the NUL padding dropped: no id holds a NUL
    # or a "\n", so one decode serves them all, and no object is made per key.
    rows = np.empty((len(keys), 9), dtype=np.uint8)
    rows[:, :8] = keys.astype(">u8").view(np.uint8).reshape(-1, 8)
    rows[:, 8] = ord("\n")
    return rows[rows != 0].tobytes()[:-1].decode().split("\n")


def _size_hint(data: bytes | BinaryIO, gz: bool) -> int:
    """The input's length in bytes, inflated, if its end can be read at once; else 0.

    That is the length of bytes or of a regular file, read off its
    descriptor so that the file's position is kept, and for gzip input the
    ISIZE field that ends its last member: the inflated length mod 2**32,
    the whole input's for one member. It only sizes the columns (see
    _Columns), so a wrong hint costs time or address space, not a result.
    """
    if isinstance(data, bytes):
        size, tail = len(data), data[-4:]
    else:
        try:
            fd = data.fileno()
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                return 0
            size, tail = info.st_size, os.pread(fd, 4, max(info.st_size - 4, 0))
        except (AttributeError, OSError, ValueError):
            return 0
    if gz:
        return int.from_bytes(tail, "little") if len(tail) == 4 else 0
    return size


# The size from which glibc's malloc maps an allocation on its own, as the
# library pins it (see sharegraph._pin_malloc_thresholds).
_MAPPED = 2 << 20


class _Columns:
    """The parse's user codes, item codes and timestamps, grown a block at a time.

    The columns are numpy buffers with room for more rows than they hold.
    The first block with rows sizes them. From its rows per byte and
    ``expected_bytes`` (see _size_hint; 0 when unknown), the rows of the
    whole input are reserved at once if that makes each buffer at least
    _MAPPED bytes. Such a buffer is a mapping of its own, whose pages become
    resident only as rows fill them. So a large input's columns never pass
    through the heap, where they would land by the heap's history and each
    of their moves would leave a hole that stays resident. Rows past the
    room grow the buffers by a sixteenth in place (``ndarray.resize``: a
    realloc, for a mapping a mremap, which copies nothing).
    """

    def __init__(self, expected_bytes: int):
        self._buffers = [np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32),
                         np.empty(0, dtype=np.int64)]
        self.count = 0
        self._expected = expected_bytes
        self._read = 0

    def add(self, block: bytes, user_codes, item_codes, timestamps) -> None:
        """Append the rows that ``block`` of the input gave, one array per column."""
        self._read += len(block)
        end = self.count + len(timestamps)
        if end > len(self._buffers[0]):
            room = end + (end >> 4)
            if self.count:
                for buffer in self._buffers:
                    buffer.resize(room, refcheck=False)
            else:  # nothing to keep: fresh buffers, whose pages no row has touched
                expected = end * self._expected // self._read
                try:  # reserved if every column's buffer is mapped, 4 bytes a row or 8
                    self._fresh(max(room, expected) if expected * 4 >= _MAPPED else room)
                except MemoryError:  # as a corrupt gzip trailer's ISIZE may ask
                    self._fresh(room)
        for buffer, rows in zip(self._buffers, (user_codes, item_codes, timestamps)):
            buffer[self.count:end] = rows
        self.count = end

    def _fresh(self, rows: int) -> None:
        self._buffers = [np.empty(rows, dtype=b.dtype) for b in self._buffers]

    def columns(self) -> list[np.ndarray]:
        """The three columns, each cut to its rows; ends the growth."""
        for buffer in self._buffers:
            buffer.resize(self.count, refcheck=False)
        return self._buffers


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

    The parse starts no thread; an interrupt during a read is raised at
    once.

    Raises:
        TraceParseError: when gzip input is truncated or corrupt, or when at
            least one data line was present and every one of them was
            rejected. The exception carries the diagnostics.
        OSError: as raised by a read of the input, unchanged.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    # The magic is read off the input and handed on, so the input need not seek.
    magic = stream.read(2)
    if len(magic) == 1:  # a raw stream, a pipe say, may return less
        magic += stream.read(1)
    gz = magic == _GZIP_MAGIC
    rows = _Columns(_size_hint(data, gz))
    if gz:
        blocks = _blocks(_Gunzip(stream, magic).read)
    else:
        blocks = _blocks(functools.partial(stream.read, READ_BLOCK), head=magic)

    user_table, item_table = _IdTable(), _IdTable()
    rejected, data_lines, lineno = [], 0, 0
    for chunk in blocks:
        regular = _regular_block(chunk)
        if regular is not None:
            user_keys, item_keys, times = regular
            rows.add(chunk, user_table.block_codes(user_keys), item_table.block_codes(item_keys),
                     times)
            lineno += len(times)
            data_lines += len(times)
            continue
        users, items = user_table.by_id(), item_table.by_id()
        user_codes, item_codes, timestamps = array("i"), array("i"), array("q")
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
        rows.add(chunk, user_codes, item_codes, timestamps)
        del user_codes, item_codes, timestamps  # copied: not held through later blocks

    if data_lines > 0 and not rows.count:
        raise TraceParseError(
            f"all {data_lines} data lines rejected; first: "
            f"line {rejected[0].line_number}: {rejected[0].reason}",
            diagnostics=rejected,
        )

    user_codes, item_codes, timestamps = rows.columns()
    user_ids, user_codes = user_table.sorted_codes(user_codes)
    item_ids, item_codes = item_table.sorted_codes(item_codes)
    trace = Trace(user_ids, user_codes, item_ids, item_codes, timestamps)
    if sort:
        trace = trace.sorted_by_time()
    return ParseResult(trace=trace, rejected=tuple(rejected))


def load_trace(path, *, sort: bool = False) -> ParseResult:
    """Parse a trace file (plain or gzip) block by block as it is read."""
    with open(path, "rb") as fh:
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


def slice_window(trace: Trace, window: TimeWindow) -> Trace:
    """Keep only the records whose timestamps fall inside the window.

    On a time-sorted trace this is an index range found by binary search.
    """
    return trace._take(trace._window_rows(window))


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
