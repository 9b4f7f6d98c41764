"""Command-line front end.

Verbs: summary, sweep, distributions, affiliation, nullmodel, synth.
Each verb but synth reads a canonical trace CSV (plain or gzip). A verb is
a function from its arguments and the loaded trace to its reports; ``main``
loads and hashes the input, then writes the reports plus a manifest.json
into --out and prints what it wrote.

Exit codes: 0 success (possibly with flagged rows), 2 usage error,
3 trace parse failure, 4 precondition failure (out of memory included),
5 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import __version__, pipeline
from .dsg import build_dsg
from .errors import DisconnectedGraphError, EmptyTraceError, TraceParseError
from .pipeline import render_csv
from .shuffle import ShuffleMode, null_model_comparison, replicate_seed
from .trace import (
    TimeWindow,
    Trace,
    generate_clustered_trace,
    generate_synthetic_trace,
    parse_trace,
    render_trace,
    slice_window,
)

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_IO = 5

# What a verb returns: its reports as {file name: text}, in writing order,
# and the parameters its manifest.json records.
Outputs = tuple[dict[str, str], dict]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharegraph",
        description="Build data-sharing graphs from request traces and measure them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_trace=True):
        if with_trace:
            p.add_argument("trace", help="trace CSV file (optionally gzip-compressed)")
        p.add_argument("-o", "--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    def add_window(p):
        p.add_argument("--window-start", type=int, default=None,
                       help="window start (default: earliest record)")
        p.add_argument("--window-length", type=int, default=None,
                       help="window length in seconds (default: whole trace)")

    def add_path_mode(p):
        p.add_argument("--path-mode", choices=["exact", "sampled"], default="exact")
        p.add_argument("--path-fraction", type=float, default=0.05,
                       help="source fraction for sampled path length (default 0.05)")

    p = sub.add_parser("summary", help="headline trace counts")
    add_common(p)

    p = sub.add_parser("sweep", help="metrics for every (window, threshold) cell")
    add_common(p)
    p.add_argument("--lengths", type=_int_list, required=True,
                   help="comma-separated window lengths in seconds")
    p.add_argument("--thresholds", type=_int_list, required=True,
                   help="comma-separated shared-item thresholds")
    p.add_argument("--origin", type=int, default=None,
                   help="window origin timestamp (default: earliest record)")
    p.add_argument("--system", default=None,
                   help="system label for report rows (default: trace filename stem)")
    p.add_argument("--workers", type=_positive_int, default=1, help="parallel sweep workers")
    add_path_mode(p)

    p = sub.add_parser("distributions", help="plot-ready distribution data files")
    add_common(p)
    add_window(p)
    p.add_argument("--threshold", type=int, default=1)

    p = sub.add_parser("affiliation", help="bipartite-model prediction vs measured")
    add_common(p)
    add_window(p)

    p = sub.add_parser("nullmodel", help="real trace vs shuffled null traces")
    add_common(p)
    add_window(p)
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--modes", default="ST1,ST2,ST3",
                   help="comma-separated shuffle variants (default ST1,ST2,ST3)")
    p.add_argument("--replicates", type=int, default=10)
    add_path_mode(p)

    p = sub.add_parser("synth", help="generate a synthetic trace CSV")
    add_common(p, with_trace=False)
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--items", type=int, default=1000)
    p.add_argument("--requests", type=int, default=10000)
    p.add_argument("--popularity", choices=["uniform", "zipf"], default="uniform")
    p.add_argument("--zipf-exponent", type=float, default=1.0)
    p.add_argument("--span", type=int, default=86400, help="timestamp span in seconds")
    p.add_argument("--clustered", action="store_true",
                   help="generate the interest-group trace instead")
    p.add_argument("--groups", type=int, default=16)
    p.add_argument("--users-per-group", type=int, default=10)
    p.add_argument("--pool-size", type=int, default=30)
    p.add_argument("--requests-per-user", type=int, default=20)
    p.add_argument("--bridge-requests", type=int, default=10)
    return parser


class _HashingReader:
    """A binary file that feeds every byte it returns to sha256.

    The parse reads the file once, so hashing as it reads gives the digest
    of the whole file without holding it.
    """

    def __init__(self, raw):
        self._raw = raw
        self._sha = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        data = self._raw.read(size)
        self._sha.update(data)
        return data

    def fileno(self) -> int:
        """The file's descriptor, off which the parse reads its size."""
        return self._raw.fileno()

    def hexdigest(self) -> str:
        """The digest of the whole file, reading whatever is left unread."""
        while self.read(1 << 20):
            pass
        return self._sha.hexdigest()


def _load_trace_arg(args) -> tuple[Trace, str]:
    with open(args.trace, "rb") as fh:
        reader = _HashingReader(fh)
        result = parse_trace(reader, sort=True)
        digest = reader.hexdigest()
    if result.rejected:
        print(f"warning: rejected {len(result.rejected)} malformed line(s)", file=sys.stderr)
        for diag in result.rejected[:5]:
            print(f"  line {diag.line_number}: {diag.reason}", file=sys.stderr)
    return result.trace, digest


def _resolve_window(args, trace: Trace) -> tuple[TimeWindow | None, Trace, int | None]:
    """(window, sliced trace, interval length) from --window-start/--window-length."""
    if args.window_length is None and args.window_start is None:
        return None, trace, None
    if not len(trace):
        raise EmptyTraceError("cannot window an empty trace")
    start = args.window_start
    if start is None:
        start = int(trace.timestamps[0])
    length = args.window_length
    if length is None:
        length = int(trace.timestamps[-1]) - start + 1
    window = TimeWindow(start, start + length)
    return window, slice_window(trace, window), length


def _sample_fraction(args) -> float | None:
    return args.path_fraction if args.path_mode == "sampled" else None


def cmd_summary(args, trace: Trace) -> Outputs:
    rows = pipeline.summary_rows(trace)
    return {"summary.csv": render_csv(pipeline.SUMMARY_COLUMNS, rows)}, {}


def cmd_sweep(args, trace: Trace) -> Outputs:
    spec = pipeline.SweepSpec(
        window_lengths=args.lengths,
        thresholds=args.thresholds,
        origin=args.origin,
        sample_fraction=_sample_fraction(args),
        master_seed=args.seed,
    )
    system = args.system if args.system is not None else Path(args.trace).stem
    results = pipeline.run_sweep(trace, spec, workers=args.workers)
    return {
        "metrics.csv": render_csv(pipeline.METRICS_COLUMNS,
                                  pipeline.metrics_rows(system, results)),
        "scatter.csv": render_csv(pipeline.SCATTER_COLUMNS, pipeline.scatter_rows(results)),
    }, {
        "lengths": list(args.lengths), "thresholds": list(args.thresholds),
        "origin": args.origin, "system": system,
        "path_mode": args.path_mode, "path_fraction": args.path_fraction,
    }


def cmd_distributions(args, trace: Trace) -> Outputs:
    _, window_trace, _ = _resolve_window(args, trace)
    graph = build_dsg(window_trace, args.threshold)
    return {
        "popularity.csv": render_csv(["rank", "item_id", "requests"],
                                     pipeline.popularity_rows(window_trace)),
        "user_activity.csv": render_csv(
            ["rank", "user_id", "requests_total", "requests_distinct"],
            pipeline.user_activity_rows(window_trace)),
        "degree_hist.csv": render_csv(["degree", "node_count"], pipeline.degree_hist_rows(graph)),
        "weight_hist.csv": render_csv(["weight", "edge_count"], pipeline.weight_hist_rows(graph)),
    }, {
        "window_start": args.window_start, "window_length": args.window_length,
        "threshold": args.threshold,
    }


def cmd_affiliation(args, trace: Trace) -> Outputs:
    window, window_trace, length = _resolve_window(args, trace)
    rows = pipeline.affiliation_rows(window_trace, window, length)
    return {"affiliation.csv": render_csv(pipeline.AFFILIATION_COLUMNS, rows)}, {
        "window_start": args.window_start, "window_length": args.window_length,
    }


def cmd_nullmodel(args, trace: Trace) -> Outputs:
    window, _, _ = _resolve_window(args, trace)
    variants = tuple(v.strip() for v in args.modes.split(",") if v.strip())
    modes = [ShuffleMode(v, seed=replicate_seed(args.seed, i))
             for i, v in enumerate(variants)]
    comparison = null_model_comparison(
        trace, window, args.threshold, modes, replicates=args.replicates,
        sample_fraction=_sample_fraction(args), path_seed=args.seed,
    )
    return {
        "nullmodel.csv": render_csv(pipeline.NULLMODEL_COLUMNS,
                                    pipeline.nullmodel_rows(comparison)),
        "nullmodel_summary.csv": render_csv(pipeline.NULLMODEL_SUMMARY_COLUMNS,
                                            pipeline.nullmodel_summary_rows(comparison)),
    }, {
        "window_start": args.window_start, "window_length": args.window_length,
        "threshold": args.threshold, "modes": list(variants),
        "replicates": args.replicates,
        "path_mode": args.path_mode, "path_fraction": args.path_fraction,
    }


# Each generator's options, named as its keyword arguments; they are also the
# manifest parameters.
_SYNTH_OPTIONS = {
    False: (generate_synthetic_trace,
            ("users", "items", "requests", "popularity", "zipf_exponent")),
    True: (generate_clustered_trace,
           ("groups", "users_per_group", "pool_size", "requests_per_user", "bridge_requests")),
}


def cmd_synth(args, _trace: None) -> Outputs:
    generate, names = _SYNTH_OPTIONS[args.clustered]
    options = {name: getattr(args, name) for name in names}
    trace = generate(**options, seed=args.seed, span_seconds=args.span)
    params = {"clustered": args.clustered, **options, "span": args.span}
    return {"trace.csv": render_trace(trace)}, params


_COMMANDS = {
    "summary": cmd_summary,
    "sweep": cmd_sweep,
    "distributions": cmd_distributions,
    "affiliation": cmd_affiliation,
    "nullmodel": cmd_nullmodel,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    """Run one verb: load and hash its trace, then write its reports and manifest.json.

    A verb only computes; nothing is written unless it returns, so a run that
    fails with exit 3 or 4 leaves no file in --out.
    """
    args = _build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace, digest = (None, None) if args.command == "synth" else _load_trace_arg(args)
        reports, parameters = _COMMANDS[args.command](args, trace)
        reports["manifest.json"] = pipeline.manifest_json(
            args.command, parameters, args.seed, digest)
        for name, text in reports.items():
            path = out_dir / name
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
        return EXIT_OK
    except TraceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EmptyTraceError, DisconnectedGraphError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
