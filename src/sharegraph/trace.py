"""Request-trace parsing, windowing, summaries, and synthetic generators.

Canonical trace format: plain CSV text, one record per line as
``user_id,item_id,timestamp`` with integer-second timestamps. Lines starting
with ``#`` are comments, blank lines are ignored, and gzip-compressed input
is detected by its magic bytes. IDs are opaque tokens; they may not contain
commas or newlines (the format could not carry them back out).
"""

from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTraceError, TraceParseError

_GZIP_MAGIC = b"\x1f\x8b"


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


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end) in trace seconds."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start must precede end: [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of request records.

    ``time_sorted`` is derived at construction, never supplied: it is True
    exactly when timestamps are non-decreasing in record order.
    """

    records: tuple[TraceRecord, ...]
    time_sorted: bool = field(init=False)

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        ts = [r.timestamp for r in records]
        object.__setattr__(self, "time_sorted", all(a <= b for a, b in zip(ts, ts[1:])))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def sorted_by_time(self) -> "Trace":
        """Return a copy stably sorted by timestamp."""
        return Trace(tuple(sorted(self.records, key=lambda r: r.timestamp)))


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


def _decode(data: bytes) -> tuple[list[str], list[ParseDiagnostic]]:
    """The lines of UTF-8 bytes, and a diagnostic for each line that is not UTF-8.

    The whole buffer is decoded at once; only input holding invalid UTF-8
    is split and decoded line by line. A line that does not decode is
    returned blank, so the line loop skips it, and keeps its line number.
    """
    try:
        return data.decode("utf-8").splitlines(), []
    except UnicodeDecodeError:
        pass
    lines, rejected = [], []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            lines.append("")
            rejected.append(ParseDiagnostic(lineno, f"invalid UTF-8 at byte {exc.start}: {exc.reason}"))
    return lines, rejected


def parse_trace(data: str | bytes, *, sort: bool = False) -> ParseResult:
    """Parse canonical trace CSV into a Trace.

    Accepts text or bytes; gzip-compressed bytes are decompressed
    transparently. Malformed lines (invalid UTF-8, wrong field count, bad
    timestamp, empty ID) are rejected individually and reported with their
    line numbers.

    Raises:
        TraceParseError: when gzip input is truncated or corrupt, or when at
            least one data line was present and every one of them was
            rejected. The exception carries the diagnostics.
    """
    if isinstance(data, bytes):
        if data[:2] == _GZIP_MAGIC:
            try:
                data = gzip.decompress(data)
            except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
                raise TraceParseError(f"corrupt gzip input: {exc}") from exc
        lines, undecoded = _decode(data)
    else:
        lines, undecoded = data.splitlines(), []

    records = []
    rejected = list(undecoded)
    data_lines = len(undecoded)
    for lineno, line in enumerate(lines, start=1):
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
        if not user_id or not item_id:
            rejected.append(ParseDiagnostic(lineno, "empty user_id or item_id"))
            continue
        records.append(TraceRecord(user_id, item_id, timestamp))
    del lines  # the line strings go before the trace is built and sorted

    if undecoded:
        rejected.sort(key=lambda d: d.line_number)
    if data_lines > 0 and not records:
        raise TraceParseError(
            f"all {data_lines} data lines rejected; first: "
            f"line {rejected[0].line_number}: {rejected[0].reason}",
            diagnostics=rejected,
        )

    trace = Trace(tuple(records))
    if sort:
        trace = trace.sorted_by_time()
    return ParseResult(trace=trace, rejected=tuple(rejected))


def load_trace(path, *, sort: bool = False) -> ParseResult:
    """Read a trace file (plain or gzip) and parse it."""
    with open(path, "rb") as fh:
        return parse_trace(fh.read(), sort=sort)


def render_trace(trace: Trace) -> str:
    """Render a trace back to canonical CSV text. Inverse of parse_trace."""
    if not trace.records:
        return ""
    return "\n".join(f"{r.user_id},{r.item_id},{r.timestamp}" for r in trace.records) + "\n"


def summarize(trace: Trace) -> TraceSummary:
    """Count users, requests (all and distinct items), and time span."""
    if not trace.records:
        raise EmptyTraceError("cannot summarize an empty trace")
    timestamps = [r.timestamp for r in trace.records]
    return TraceSummary(
        user_count=len({r.user_id for r in trace.records}),
        request_count_all=len(trace.records),
        request_count_distinct=len({r.item_id for r in trace.records}),
        duration=max(timestamps) - min(timestamps),
    )


def window_slices(trace: Trace, length: int, origin: int = 0) -> list[tuple[TimeWindow, Trace]]:
    """Partition a time-sorted trace into consecutive tumbling windows.

    Window k covers [origin + k*length, origin + (k+1)*length). Every window
    from the one holding the earliest record through the one holding the
    latest is emitted, including empty ones, so time series stay aligned.
    """
    if length <= 0:
        raise ValueError(f"window length must be positive, got {length}")
    if not trace.time_sorted:
        raise ValueError("window_slices requires a time-sorted trace")
    if not trace.records:
        return []

    first_k = (trace.records[0].timestamp - origin) // length
    last_k = (trace.records[-1].timestamp - origin) // length
    buckets: dict[int, list[TraceRecord]] = {k: [] for k in range(first_k, last_k + 1)}
    for record in trace.records:
        buckets[(record.timestamp - origin) // length].append(record)

    return [
        (TimeWindow(origin + k * length, origin + (k + 1) * length), Trace(tuple(buckets[k])))
        for k in range(first_k, last_k + 1)
    ]


def slice_window(trace: Trace, window: TimeWindow) -> Trace:
    """Keep only the records whose timestamps fall inside the window."""
    return Trace(tuple(r for r in trace.records if window.contains(r.timestamp)))


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
    records = tuple(
        TraceRecord(f"u{int(user_idx[j])}", f"i{int(item_idx[j])}", int(times[j]))
        for j in order
    )
    return Trace(records)


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
    order = np.argsort(times, kind="stable")
    records = tuple(
        TraceRecord(rows[j][0], rows[j][1], int(times[j])) for j in order
    )
    return Trace(records)
