"""Data-sharing graphs from request traces.

Build weighted graphs of users who requested the same items within a time
window, measure their small-world character against random-graph and
bipartite-model baselines, and test the findings against shuffled null
traces that keep activity, popularity, and timing marginals intact.
"""

__version__ = "0.1.0"

from .affiliation import (
    AffiliationPrediction,
    BipartiteAffiliation,
    build_bipartite,
    compare_window,
    gf_moments,
    predict,
    projection_derivatives,
)
from .dsg import (
    DataSharingGraph,
    WeightDistribution,
    build_dsg,
    weight_distribution,
)
from .errors import (
    DisconnectedGraphError,
    EmptyTraceError,
    ShareGraphError,
    TraceParseError,
)
from .graph import Graph, gnm_random_graph
from .metrics import (
    DegreeDistribution,
    MetricsReport,
    average_path_length,
    clustering,
    degree_distribution,
    random_baselines,
    small_world_report,
)
from .shuffle import (
    NullModelComparison,
    NullModelRow,
    ShuffleMode,
    null_model_comparison,
    shuffle_trace,
)
from .trace import (
    ParseDiagnostic,
    ParseResult,
    TimeWindow,
    Trace,
    TraceRecord,
    TraceSummary,
    generate_clustered_trace,
    generate_synthetic_trace,
    load_trace,
    parse_trace,
    render_trace,
    slice_window,
    summarize,
    window_slices,
)

__all__ = [
    "__version__",
    "AffiliationPrediction",
    "BipartiteAffiliation",
    "DataSharingGraph",
    "DegreeDistribution",
    "DisconnectedGraphError",
    "EmptyTraceError",
    "Graph",
    "MetricsReport",
    "NullModelComparison",
    "NullModelRow",
    "ParseDiagnostic",
    "ParseResult",
    "ShareGraphError",
    "ShuffleMode",
    "TimeWindow",
    "Trace",
    "TraceParseError",
    "TraceRecord",
    "TraceSummary",
    "WeightDistribution",
    "average_path_length",
    "build_bipartite",
    "build_dsg",
    "clustering",
    "compare_window",
    "degree_distribution",
    "generate_clustered_trace",
    "generate_synthetic_trace",
    "gf_moments",
    "gnm_random_graph",
    "load_trace",
    "null_model_comparison",
    "parse_trace",
    "predict",
    "projection_derivatives",
    "random_baselines",
    "render_trace",
    "shuffle_trace",
    "slice_window",
    "small_world_report",
    "summarize",
    "weight_distribution",
    "window_slices",
]


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 2 and 16 MiB.

    Blocks of 2 MiB and more, such as the columns of a large trace, get their
    own mapping and go back to the kernel when freed. The heap serves smaller
    ones, such as the parse's read blocks and a graph build's temporaries,
    and keeps up to 16 MiB of them free for reuse. glibc's own rule moves both
    thresholds as mapped blocks are freed, so a call's page faults, and peak
    memory, depended on what the process had freed before it.
    """
    import ctypes
    import sys

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()
