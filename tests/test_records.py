"""The result records: immutable, compared by value, picklable, and the
validated ones reject bad arguments when built."""

import pickle
import re

import numpy as np
import pytest

from sharegraph import (
    AffiliationPrediction,
    BipartiteAffiliation,
    DegreeDistribution,
    MetricsReport,
    NullModelComparison,
    NullModelRow,
    ParseDiagnostic,
    ParseResult,
    ShuffleMode,
    TimeWindow,
    TraceSummary,
    WeightDistribution,
)
from sharegraph.pipeline import SweepCell, SweepCellResult, SweepSpec
from helpers import make_trace


def _report():
    return MetricsReport(
        node_count=5, edge_count=6, component_count=1,
        largest_component_nodes=5, largest_component_edges=6,
        cc1=0.5, cc2=0.25, avg_path_length=1.5, cc_random=0.6, l_random=1.25,
        ratio_cc=0.75, ratio_l=1.2, path_length_method="exact", flags=("l_random_unstable",))


def _cell():
    return SweepCell(window_index=2, window=TimeWindow(20, 30), threshold=1, path_seed=7)


def _null_row():
    return NullModelRow(source="ST1", replicate=0, seed=9, weight_median=1.0,
                        weight_mean=1.5, report=_report())


# One builder per record, each called twice so that two equal records are
# distinct objects.
RECORDS = {
    "TimeWindow": lambda: TimeWindow(0, 10),
    "TraceSummary": lambda: TraceSummary(3, 6, 4, 9),
    "ParseDiagnostic": lambda: ParseDiagnostic(2, "expected 3 fields, got 2"),
    "ParseResult": lambda: ParseResult(make_trace([("u1", "i1", 0), ("u2", "i1", 5)]),
                                       (ParseDiagnostic(2, "bad timestamp"),)),
    "WeightDistribution": lambda: WeightDistribution({1: 4, 2: 1}, 1.2, 1.0),
    "DegreeDistribution": lambda: DegreeDistribution({1: 2, 3: 1}),
    "MetricsReport": _report,
    "BipartiteAffiliation": lambda: BipartiteAffiliation(2, 3, {1: 0.5, 2: 0.5}, {1: 1.0}),
    "AffiliationPrediction": lambda: AffiliationPrediction(2.0, 0.5, 1.5, 1.0, 0.4, ("x",)),
    "ShuffleMode": lambda: ShuffleMode("ST2", seed=4),
    "NullModelRow": _null_row,
    "NullModelComparison": lambda: NullModelComparison((_null_row(),)),
    "SweepSpec": lambda: SweepSpec((60, 120), (1, 2), origin=0, sample_fraction=0.5,
                                   master_seed=3),
    "SweepCell": _cell,
    "SweepCellResult": lambda: SweepCellResult(_cell(), _report(), None),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.unknown_field = None


@pytest.mark.parametrize("name", RECORDS)
def test_records_with_equal_fields_are_equal(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second
    assert first._replace() == first


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_pickling(name):
    # A sweep with several workers ships cells, their results and reports
    # between processes.
    record = RECORDS[name]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("build, message", [
    (lambda: TimeWindow(5, 5), "window start must precede end: [5, 5)"),
    (lambda: ShuffleMode("ST4"), "variant must be one of ('ST1', 'ST2', 'ST3'), got 'ST4'"),
    (lambda: SweepSpec((), (1,)), "window_lengths and thresholds must be non-empty"),
    (lambda: SweepSpec((0,), (1,)), "window lengths must be positive"),
    (lambda: SweepSpec((10,), (0,)), "thresholds must be >= 1"),
    (lambda: SweepSpec((10,), (1,), sample_fraction=np.nan), "sample_fraction must be in (0, 1]"),
    (lambda: TimeWindow(0, 5)._replace(end=0), "window start must precede end: [0, 0)"),
    (lambda: ShuffleMode("ST1")._replace(variant="ST0"), "got 'ST0'"),
    (lambda: SweepSpec((10,), (1,))._replace(thresholds=()), "must be non-empty"),
], ids=["window", "mode", "empty-grid", "zero-length", "zero-threshold", "fraction",
        "window-replace", "mode-replace", "spec-replace"])
def test_a_validated_record_rejects_bad_arguments(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
