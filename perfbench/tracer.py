"""Per-layer spans for the traced run, recorded from outside the program.

``install`` replaces public functions and methods of ``sharegraph`` with
timing wrappers at run time: a function is replaced in every loaded
``sharegraph`` module that imported it by name, so nested calls are caught.
The program's files are never edited. A function that a refactor removed is
listed in ``absent`` and its metrics read 0.

Every ``*_s`` metric is self time: a span minus the time its wrapped child
spans cover. Counts are computed by the benchmark at the same boundaries;
the time spent computing them is kept out of every open span.
"""

from __future__ import annotations

import functools
import gc
import math
import sys
import time
from collections import Counter

# (span name, module, attribute path) of every wrapped function.
PROBES = [
    ("load_trace", "sharegraph.trace", "load_trace"),
    ("parse_trace", "sharegraph.trace", "parse_trace"),
    ("sort", "sharegraph.trace", "Trace.sorted_by_time"),
    ("slice_window", "sharegraph.trace", "slice_window"),
    ("window_slices", "sharegraph.trace", "window_slices"),
    ("shuffle_trace", "sharegraph.shuffle", "shuffle_trace"),
    ("build_dsg", "sharegraph.dsg", "build_dsg"),
    ("to_graph", "sharegraph.dsg", "DataSharingGraph.to_graph"),
    ("components", "sharegraph.graph", "Graph.connected_components"),
    ("subgraph", "sharegraph.graph", "Graph.subgraph"),
    ("cc1", "sharegraph.metrics", "clustering_cc1"),
    ("cc2", "sharegraph.metrics", "clustering_cc2"),
    ("path", "sharegraph.metrics", "average_path_length"),
    ("build_bipartite", "sharegraph.affiliation", "build_bipartite"),
    ("compare_window", "sharegraph.affiliation", "compare_window"),
    ("render_csv", "sharegraph.pipeline", "render_csv"),
]

# Per-layer metric -> the spans whose self times it sums.
TIME_METRICS = {
    "trace.parse_s": ("load_trace", "parse_trace"),
    "trace.sort_s": ("sort",),
    "trace.slice_s": ("slice_window", "window_slices"),
    "shuffle.shuffle_s": ("shuffle_trace",),
    "dsg.build_s": ("build_dsg",),
    "graph.convert_s": ("to_graph",),
    "graph.components_s": ("components",),
    "graph.subgraph_s": ("subgraph",),
    "metrics.cc1_s": ("cc1",),
    "metrics.cc2_s": ("cc2",),
    "metrics.path_s": ("path",),
    "affiliation.bipartite_s": ("build_bipartite",),
    "affiliation.compare_self_s": ("compare_window",),
    "pipeline.render_s": ("render_csv",),
}

COUNT_METRICS = (
    "trace.records", "shuffle.records_permuted", "dsg.builds", "dsg.pair_updates",
    "dsg.edges", "graph.lcc_nodes", "graph.lcc_edges", "metrics.bfs_sources",
    "metrics.wedges", "affiliation.incidences", "pipeline.cells", "pipeline.report_bytes",
)

UNITS = {**{name: "s" for name in TIME_METRICS}, **{name: "count" for name in COUNT_METRICS},
         "gc.pause_s": "s", "gc.gen2_collections": "count"}


def _pairs(trace) -> set:
    return {(r.item_id, r.user_id) for r in trace.records}


def _pair_updates(trace) -> int:
    per_item = Counter(item for item, _ in _pairs(trace))
    return sum(k * (k - 1) // 2 for k in per_item.values())


def _degrees(graph) -> list[int]:
    if hasattr(graph, "degree"):
        return [graph.degree(u) for u in graph.nodes]
    degree = Counter()
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    return list(degree.values())


def _bfs_sources(graph, sample_fraction=None, **_) -> int:
    v = graph.node_count
    return v if sample_fraction is None else math.ceil(sample_fraction * v)


# Span name -> function(args, kwargs, result) -> {count metric: increment}.
COUNTERS = {
    "parse_trace": lambda a, k, r: {"trace.records": len(r.trace)},
    "shuffle_trace": lambda a, k, r: {"shuffle.records_permuted": len(a[0])},
    "build_dsg": lambda a, k, r: {"dsg.builds": 1, "dsg.pair_updates": _pair_updates(a[0]),
                                  "dsg.edges": r.edge_count},
    "subgraph": lambda a, k, r: {"graph.lcc_nodes": r.node_count, "graph.lcc_edges": r.edge_count},
    "cc2": lambda a, k, r: {"metrics.wedges": sum(d * (d - 1) // 2 for d in _degrees(a[0]))},
    "path": lambda a, k, r: {"metrics.bfs_sources": _bfs_sources(*a, **k)},
    "build_bipartite": lambda a, k, r: {"affiliation.incidences": len(_pairs(a[0]))},
    "render_csv": lambda a, k, r: {"pipeline.report_bytes": len(r)},
}


class Tracer:
    """Spans kept in memory: per span name its calls, total and self time."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [start, excluded at start, child time]
        self.excluded = 0.0  # time spent computing counts, kept out of spans
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.absent: list[str] = []
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_start = None

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append([time.perf_counter(), self.excluded, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                start, excluded_at_start, child = self.stack.pop()
                span = time.perf_counter() - start - (self.excluded - excluded_at_start)
                self.calls[name] += 1
                self.total[name] += span
                self.self_time[name] += span - child
                if self.stack:
                    self.stack[-1][2] += span
            if counter is not None:
                t0 = time.perf_counter()
                self.counts.update(counter(args, kwargs, result))
                self.excluded += time.perf_counter() - t0
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every probe found; record the ones the program no longer has."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sharegraph" or n.startswith("sharegraph."))]
        for name, module_name, attr in PROBES:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(name, fn)
            if owner_name:
                setattr(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_gen2 += info["generation"] == 2
            self._gc_start = None

    def uninstall_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def metrics(self, cells: int) -> dict[str, float]:
        out = {name: sum(self.self_time[s] for s in spans) for name, spans in TIME_METRICS.items()}
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        out["pipeline.cells"] = cells
        out["gc.pause_s"] = self.gc_pause
        out["gc.gen2_collections"] = self.gc_gen2
        return out

    def spans(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]} for name in self.calls}
