"""Request-trace parsing, windowing, summaries, and synthetic generators.

Canonical trace format: plain CSV text, one record per line as
``user_id,item_id,timestamp`` with integer-second timestamps. A line ends at
``\\n``, and one ``\\r`` just before it is dropped, so CRLF files read the
same; any other character, a lone ``\\r`` included, is data. Lines starting
with ``#`` are comments, blank lines are ignored, and gzip-compressed input
is detected by its magic bytes. IDs are opaque tokens; they may not contain
commas or newlines (the format could not carry them back out).

The parse reads its input in blocks of whole lines. A regular block, one
where every line is ``user,item,digits`` with ids of 1 to 8 bytes (see
_regular_block), is converted by whole numpy columns. Every other block,
one with a longer id included, goes through the line loop, which decodes
each line on its own and is the one definition of a valid line; the
vectorized route takes only blocks that the loop would accept unchanged, so
both give the same trace.

In memory a trace is columnar: int32 user and item codes into id tables
sorted in ``str`` order, and int64 timestamps. Code order is therefore id
order, and a window is an index range that shares its trace's tables.
"""

from __future__ import annotations

import gzip
import io
import zlib
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterator

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


@dataclass(frozen=True)
class TraceRecord:
    """One request event: a user asked for an item at a point in time."""

    user_id: str
    item_id: str
    timestamp: int

    def __post_init__(self):
        for name, value in (("user_id", self.user_id), ("item_id", self.item_id)):
            if not value:
                raise ValueError(f"{name} must be non-empty")
            if "," in value or "\n" in value:
                raise ValueError(f"{name} may not contain commas or newlines: {value!r}")
        if self.user_id.startswith("#"):
            raise ValueError("user_id may not start with '#' (reserved for comments)")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")
        if self.timestamp >= _TIME_LIMIT:
            raise ValueError(f"timestamp must be below 2**63 - 1, got {self.timestamp}")


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
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    return tuple(names[i] for i in order), rank[np.asarray(codes, dtype=np.int32)]


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

    ``records`` turns the rows into ``TraceRecord`` objects; the library
    itself works on the columns only. The constructor takes the columns as
    given: outside input enters through ``parse_trace``.
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
    def records(self) -> tuple[TraceRecord, ...]:
        """The rows as validated ``TraceRecord`` objects, made on each call."""
        return tuple(map(TraceRecord, *self._decoded()))

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
        return np.divmod(np.unique(self.item_codes.astype(np.int64) * n + self.user_codes), n)

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


def _blocks(stream: BinaryIO) -> Iterator[bytes]:
    """The bytes of a binary stream in blocks of whole lines.

    Every block but the last ends at a ``\\n``: the unfinished line at the end
    of each read is carried into the next block. The last block is what
    follows the last ``\\n``, possibly nothing.
    """
    tail = b""
    try:
        for block in iter(lambda: stream.read(READ_BLOCK), b""):
            chunk = tail + block
            cut = chunk.rfind(b"\n") + 1
            tail = chunk[cut:]
            if cut:
                yield chunk[:cut]
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise TraceParseError(f"corrupt gzip input: {exc}") from exc
    yield tail


def _regular_block(chunk: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The fields of a block whose every line the line loop would accept as is.

    A block is regular when it ends at a ``\\n``, has no NUL byte (keys are
    NUL-padded) and is valid UTF-8, and each of its lines holds exactly two
    commas, a user id of 1 to _KEY_BYTES bytes before the first, an item id
    of 1 to _KEY_BYTES bytes between them, and after the second 1 to _DIGITS
    ASCII digits up to the ``\\n`` or a ``\\r`` just before it; no line
    starts with ``#``. Returns the user keys, the item keys (see _field_keys)
    and the int64 timestamps of its lines, or None for any other block.
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
    ends = np.flatnonzero(b == ord("\n"))
    commas = np.flatnonzero(b == ord(","))
    if len(commas) != 2 * len(ends):
        return None
    # Line k's commas are commas 2k and 2k+1: the digits rule below puts the
    # second before the line's end, with no comma after it.
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, second = commas[0::2], commas[1::2]
    if not (np.all(starts < first) and np.all(first + 1 < second)):
        return None
    if max((first - starts).max(), (second - first).max() - 1) > _KEY_BYTES:
        return None
    if np.any(b[starts] == ord("#")):
        return None
    stop = ends - (b[ends - 1] == ord("\r"))
    digits = stop - second - 1
    if digits.min() < 1 or digits.max() > _DIGITS:
        return None
    # Right-aligned digit columns; a position before the field adds a leading zero.
    timestamps = np.zeros(len(ends), dtype=np.int64)
    for k in range(int(digits.max()), 0, -1):
        at = stop - k
        digit = b[np.maximum(at, 0)] - np.uint8(ord("0"))
        digit[at <= second] = 0
        if digit.max() > 9:
            return None
        timestamps *= 10
        timestamps += digit
    return _field_keys(b, starts, first), _field_keys(b, first + 1, second), timestamps


def _field_keys(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The fields ``b[lo:hi]``, of 1 to _KEY_BYTES bytes each, as uint64 keys.

    A key holds its field's bytes big-endian, NUL-padded. With no NUL in the
    fields, equal keys are equal fields.
    """
    rows = np.zeros((len(lo), _KEY_BYTES), dtype=np.uint8)
    last = len(b) - 1
    for j in range(int((hi - lo).max())):
        at = lo + j
        rows[:, j] = np.where(at < hi, b[np.minimum(at, last)], 0)
    return rows.view(">u8").ravel().astype(np.uint64)


class _IdTable:
    """One column's ids, coded in order of first sight.

    ``codes`` maps each id to its code, and both routes of the parse intern
    into it. ``keys`` holds, sorted, the keys (see _field_keys) of the ids
    that regular blocks have met, and ``key_codes`` their codes, so that a
    block sends only the ids new to the trace to the dict. Each block that
    meets new ids copies the two arrays once.
    """

    def __init__(self):
        self.codes: dict[str, int] = {}
        self.keys = np.empty(0, dtype=np.uint64)
        self.key_codes = np.empty(0, dtype=np.int32)

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
        # An 8-byte string drops its trailing NULs, the padding, in tolist().
        ids = distinct[new].astype(">u8").view("S8").tolist()
        table = self.codes
        codes[new] = [table.setdefault(key.decode(), len(table)) for key in ids]
        self.keys = np.insert(known, at[new], distinct[new])
        self.key_codes = np.insert(self.key_codes, at[new], codes[new])
        return codes[inverse.ravel()]


def parse_trace(data: str | bytes | BinaryIO, *, sort: bool = False) -> ParseResult:
    """Parse canonical trace CSV into a Trace.

    Accepts text, bytes or a binary file, which need not seek, read in
    blocks of READ_BLOCK bytes; gzip-compressed input is decompressed
    transparently. A block in which every line is regular (see
    _regular_block) is converted by whole numpy columns; any other block
    goes through the line loop, which decodes each line on its own and
    defines what a valid line is. Malformed lines
    (invalid UTF-8, wrong field count, bad or out-of-range timestamp, empty
    ID) are rejected individually and reported with their line numbers. Ids
    are interned as they are read, so no per-record object is made.

    Raises:
        TraceParseError: when gzip input is truncated or corrupt, or when at
            least one data line was present and every one of them was
            rejected. The exception carries the diagnostics.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    magic = stream.read(2)
    stream = _Prefixed(magic, stream)
    if magic == _GZIP_MAGIC:
        stream = gzip.GzipFile(fileobj=stream)

    user_table, item_table = _IdTable(), _IdTable()
    users, items = user_table.codes, item_table.codes
    user_codes, item_codes, timestamps = array("i"), array("i"), array("q")
    rejected, data_lines, lineno = [], 0, 0
    for chunk in _blocks(stream):
        regular = _regular_block(chunk)
        if regular is not None:
            user_keys, item_keys, times = regular
            user_codes.frombytes(user_table.block_codes(user_keys).view(np.uint8))
            item_codes.frombytes(item_table.block_codes(item_keys).view(np.uint8))
            timestamps.frombytes(times.view(np.uint8))
            lineno += len(times)
            data_lines += len(times)
            continue
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

    user_ids, user_codes = _sorted_codes(list(users), user_codes)
    item_ids, item_codes = _sorted_codes(list(items), item_codes)
    # A view of the array's buffer, not a copy.
    trace = Trace(user_ids, user_codes, item_ids, item_codes,
                  np.frombuffer(timestamps, dtype=np.int64))
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
        user_count=len(np.unique(trace.user_codes)),
        request_count_all=len(trace),
        request_count_distinct=len(np.unique(trace.item_codes)),
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
    if trace.time_sorted:
        lo, hi = _rows_before(trace, [window.start, window.end])
        return trace._take(slice(lo, hi))
    t = trace.timestamps
    return trace._take((t >= window.start) & (t < window.end))


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
