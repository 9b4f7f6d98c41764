"""Correctness checks computed apart from the program.

Nothing here imports ``sharegraph``. Each check reads the workload's trace
file with its own parser, rebuilds every graph as the sparse product of the
user x item incidence matrix with its transpose (scipy), and compares the
program's report CSV cell by cell. A check returns one list of problems per
operation (a sweep cell, a null-model row or an affiliation window); an
empty list means the operation passed.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

REL_TOL = 1e-9
# Newman, Strogatz & Watts (PRE 2001): when items are drawn independently of
# users the model's average degree matches the measured projection's.
AFFILIATION_DEGREE_TOL = 0.05


def read_trace(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User ids, item ids and timestamps, stably sorted by timestamp."""
    data = Path(path).read_bytes()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    lines = [ln for ln in data.splitlines() if ln.strip() and not ln.startswith(b"#")]
    fields = np.array([ln.split(b",") for ln in lines], dtype=bytes).reshape(-1, 3)
    times = fields[:, 2].astype(np.int64)
    order = np.argsort(times, kind="stable")
    return fields[order, 0], fields[order, 1], times[order]


def replicate_seed(master_seed: int, replicate: int) -> int:
    """The documented per-replicate seed: first word of SeedSequence([master, r])."""
    return int(np.random.SeedSequence([master_seed, replicate]).generate_state(2, np.uint64)[0])


def shuffled(users: np.ndarray, items: np.ndarray, variant: str, seed: int):
    """The documented ST1/ST2/ST3 column permutations (PCG64 via default_rng)."""
    root = np.random.SeedSequence(seed)
    n = len(users)
    if variant == "ST1":
        user_seq, item_seq = root.spawn(2)
        return (users[np.random.default_rng(user_seq).permutation(n)],
                items[np.random.default_rng(item_seq).permutation(n)])
    perm = np.random.default_rng(root).permutation(n)
    return (users[perm], items) if variant == "ST2" else (users, items[perm])


def pair_weights(users: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
    """Sorted distinct user ids and the user x user shared-item count matrix."""
    user_ids, ucode = np.unique(users, return_inverse=True)
    _, icode = np.unique(items, return_inverse=True)
    n_items = int(icode.max()) + 1 if len(icode) else 0
    b = sp.csr_matrix((np.ones(len(ucode), dtype=np.int64), (ucode, icode)),
                      shape=(len(user_ids), n_items))
    b.data[:] = 1  # repeat requests do not raise weights
    w = (b @ b.T).tocsr()
    w.setdiag(0)
    w.eliminate_zeros()
    return user_ids, w


def triangles_and_wedges(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-node triangle counts ((A.A) o A row sums / 2) and neighbour-pair counts."""
    a = a.astype(np.int64)
    tri = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() // 2
    k = np.diff(a.indptr)
    return tri, k * (k - 1) // 2


def graph_figures(w: sp.csr_matrix, threshold: int, sample_fraction: float | None,
                  path_seed: int) -> dict:
    """Every report figure of the threshold graph of a weight matrix.

    Node order is the sorted user id order of ``w``, which is the order the
    documented path-length source rule indexes into.
    """
    upper = sp.triu(w, k=1).tocoo()
    keep = upper.data >= threshold
    weights = upper.data[keep]
    n = w.shape[0]
    a = sp.coo_matrix((np.ones(keep.sum(), dtype=np.int8), (upper.row[keep], upper.col[keep])),
                      shape=(n, n)).tocsr()
    a = (a + a.T).tocsr()
    nodes = np.flatnonzero(np.diff(a.indptr))
    out = {"nodes": len(nodes), "edges": a.nnz // 2,
           "weight_median": float(np.median(weights)) if len(weights) else math.nan,
           "weight_mean": int(weights.sum()) / len(weights) if len(weights) else math.nan}
    nan_fields = dict(cc1=math.nan, cc2=math.nan, avg_path_length=math.nan,
                      cc_random=math.nan, l_random=math.nan, ratio_cc=math.nan, ratio_l=math.nan)
    if not len(nodes):
        out.update(components=0, lcc_nodes=0, lcc_edges=0, flags="empty_graph", **nan_fields)
        return out
    sub = a[nodes][:, nodes]
    count, labels = csgraph.connected_components(sub, directed=False)
    sizes = np.bincount(labels)
    first = np.full(count, len(nodes))
    np.minimum.at(first, labels, np.arange(len(nodes)))
    largest = min(range(count), key=lambda c: (-sizes[c], first[c]))
    lcc = sub[labels == largest][:, labels == largest]
    lv, le = lcc.shape[0], lcc.nnz // 2
    tri, wedges = triangles_and_wedges(lcc)
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(wedges > 0, tri / np.maximum(wedges, 1), 0.0)
    cc1 = float(local.sum()) / lv
    cc2 = int(tri.sum()) / int(wedges.sum()) if wedges.sum() else math.nan
    flags = [] if wedges.sum() else ["cc2_no_triples"]

    if sample_fraction is None:
        sources = np.arange(lv)
    else:
        k = math.ceil(sample_fraction * lv)
        sources = np.random.default_rng(path_seed).choice(lv, size=k, replace=False)
    dist = csgraph.shortest_path(lcc, unweighted=True, directed=False, indices=sources)
    apl = int(dist.sum()) / (len(sources) * (lv - 1)) if np.isfinite(dist).all() else math.nan
    cc_random = 2 * le / (lv * (lv - 1))
    l_random = math.log(lv) / math.log(le / lv) if le > lv else math.nan
    if math.isnan(l_random):
        flags.append("l_random_unstable")
    out.update(components=count, lcc_nodes=lv, lcc_edges=le, cc1=cc1, cc2=cc2,
               avg_path_length=apl, cc_random=cc_random, l_random=l_random,
               ratio_cc=cc1 / cc_random, ratio_l=_ratio(apl, l_random), flags=";".join(flags))
    return out


def _ratio(num: float, den: float) -> float:
    return math.nan if math.isnan(num) or math.isnan(den) or den == 0 else num / den


def read_csv(text: str) -> list[dict[str, str]]:
    """Rows of a report as dicts keyed by the header.

    ``render_csv`` does not quote cells, so a sampled ``path_length_method``
    (``sampled(fraction=F,seed=S)``) spills over one comma into the next
    field. Such a row, with exactly one field more than the header, is read
    back by joining the two halves of that cell; a quoted cell reads as is.
    """
    header, *rows = csv.reader(io.StringIO(text))
    out = []
    for row in rows:
        if len(row) == len(header) + 1 and "path_length_method" in header:
            j = header.index("path_length_method")
            row = row[:j] + [f"{row[j]},{row[j + 1]}"] + row[j + 2:]
        out.append(dict(zip(header, row)) if len(row) == len(header) else {})
    return out


def same(cell: str, expected) -> bool:
    """Compare one CSV cell to an expected value: ints exactly, floats to REL_TOL."""
    if isinstance(expected, str):
        return cell == expected
    if isinstance(expected, float) and math.isnan(expected):
        return cell == ""
    if cell == "":
        return False
    if isinstance(expected, (int, np.integer)):
        return cell == str(int(expected))
    return math.isclose(float(cell), expected, rel_tol=REL_TOL, abs_tol=1e-12)


def compare(row: dict[str, str], expected: dict) -> list[str]:
    return [f"{key}: got {row.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if not same(row.get(key, ""), value)]


def _error_flagged(row: dict[str, str]) -> list[str]:
    return [f"program flagged {row['flags']}"] if "error:" in row.get("flags", "") else []


def check_sweep(trace_path, params: dict, outputs: dict[str, str]) -> list[list[str]]:
    users, items, times = read_trace(trace_path)
    length, fraction = params["window_length"], params["path_fraction"]
    origin = params["origin"]
    rows = read_csv(outputs["metrics.csv"])
    scatter = read_csv(outputs["scatter.csv"])
    windows = (int(times[-1]) - origin) // length + 1
    problems: list[list[str]] = []
    expected_scatter = []
    for w in range(windows):
        start = origin + w * length
        lo, hi = np.searchsorted(times, [start, start + length])
        _, weights = pair_weights(users[lo:hi], items[lo:hi])
        for threshold in params["thresholds"]:
            index = len(problems)
            seed = replicate_seed(params["seed"], index)
            row = rows[index] if index < len(rows) else {}
            figures = graph_figures(weights, threshold, fraction, seed)
            expected = dict(interval_seconds=length, threshold=threshold, window_index=w,
                            window_start=start, window_end=start + length,
                            path_length_method=f"sampled(fraction={fraction},seed={seed})",
                            **{k: v for k, v in figures.items() if not k.startswith("weight_")})
            problems.append(_error_flagged(row) or compare(row, expected))
            if not (math.isnan(figures["ratio_cc"]) or math.isnan(figures["ratio_l"])):
                expected_scatter.append((index, dict(
                    window_index=w, window_start=start, window_end=start + length,
                    threshold=threshold, ratio_cc=figures["ratio_cc"], ratio_l=figures["ratio_l"])))
    if len(rows) != len(problems):
        problems[-1].append(f"metrics.csv has {len(rows)} rows, expected {len(problems)}")
    if len(scatter) != len(expected_scatter):
        problems[-1].append(
            f"scatter.csv has {len(scatter)} rows, expected {len(expected_scatter)}")
    for row, (index, expected) in zip(scatter, expected_scatter):
        problems[index] += [f"scatter {p}" for p in compare(row, expected)]
    return problems


def check_nullmodel(trace_path, params: dict, outputs: dict[str, str]) -> list[list[str]]:
    users, items, times = read_trace(trace_path)
    start, length = params["window_start"], params["window_length"]
    window = (times >= start) & (times < start + length)
    rows = read_csv(outputs["nullmodel.csv"])
    sources = [("real", 0, None)]
    for i, variant in enumerate(params["modes"]):
        mode_seed = replicate_seed(params["seed"], i)
        sources += [(variant, r, replicate_seed(mode_seed, r)) for r in range(params["replicates"])]
    problems: list[list[str]] = []
    ratios: dict[str, list[tuple[float, float]]] = {}
    for index, (source, replicate, seed) in enumerate(sources):
        row = rows[index] if index < len(rows) else {}
        u, i = (users, items) if seed is None else shuffled(users, items, source, seed)
        _, weights = pair_weights(u[window], i[window])
        figures = graph_figures(weights, params["threshold"], params["path_fraction"],
                                params["seed"])
        expected = dict(source=source, replicate=replicate,
                        seed="" if seed is None else str(seed), **figures)
        problems.append(_error_flagged(row) or compare(row, expected))
        ratios.setdefault(source, []).append((figures["ratio_cc"], figures["ratio_l"]))
    if len(rows) != len(sources):
        problems[-1].append(f"nullmodel.csv has {len(rows)} rows, expected {len(sources)}")

    real_cc = ratios["real"][0][0]
    st1_cc = [cc for cc, _ in ratios.get("ST1", [])]
    if not all(real_cc > cc for cc in st1_cc):
        problems[0].append(f"real ratio_cc {real_cc} is not above every ST1 replicate's {st1_cc}")

    summary = read_csv(outputs["nullmodel_summary.csv"])
    if [r["source"] for r in summary] != list(ratios):
        problems[0].append(f"nullmodel_summary.csv sources {[r['source'] for r in summary]}")
    for row in summary:
        values = np.array(ratios.get(row["source"], [(math.nan, math.nan)]), dtype=float)
        expected = {}
        for col, name in ((0, "ratio_cc"), (1, "ratio_l")):
            finite = not np.all(np.isnan(values[:, col]))
            expected[f"{name}_mean"] = float(np.nanmean(values[:, col])) if finite else math.nan
            expected[f"{name}_std"] = float(np.nanstd(values[:, col])) if finite else math.nan
        problems[0] += [f"summary {row['source']} {p}" for p in compare(row, expected)]
    return problems


def factorial_moments(degrees: np.ndarray) -> tuple[float, float, float]:
    """h'(1), h''(1), h'''(1) of the degree distribution's generating function."""
    d = degrees.astype(float)
    return (float(np.mean(d)), float(np.mean(d * (d - 1))), float(np.mean(d * (d - 1) * (d - 2))))


def check_affiliation(trace_path, params: dict, outputs: dict[str, str]) -> list[list[str]]:
    users, items, times = read_trace(trace_path)
    start, length = params["window_start"], params["window_length"]
    window = (times >= start) & (times < start + length)
    user_ids, weights = pair_weights(users[window], items[window])
    incidences = np.unique(np.stack([users[window], items[window]]), axis=1)
    _, user_degree = np.unique(incidences[0], return_counts=True)
    _, item_degree = np.unique(incidences[1], return_counts=True)
    n, m = len(user_degree), len(item_degree)
    f1, f2, _ = factorial_moments(user_degree)
    g1, g2, g3 = factorial_moments(item_degree)
    avg_degree_theory = f1 * g2 / g1
    g0_dd = f2 * (g2 / g1) ** 2 + f1 * g3 / g1
    flags = []
    if g0_dd > 0:
        clustering_theory = (m / n) * (g3 / g0_dd)
        if clustering_theory > 1:
            flags.append("theory_clustering_above_1")
    else:
        clustering_theory = math.nan
        flags.append("degenerate_model")

    a = (weights >= 1).astype(np.int64).tocsr()
    v = int(np.count_nonzero(np.diff(a.indptr)))
    e = a.nnz // 2
    tri, wedges = triangles_and_wedges(a)
    if v == 0:
        flags.append("empty_projection")
        measured_cc = measured_degree = math.nan
    else:
        measured_degree = 2 * e / v
        measured_cc = int(tri.sum()) / int(wedges.sum()) if wedges.sum() else math.nan
        if math.isnan(measured_cc):
            flags.append("measured_no_triples")
    expected = dict(interval_seconds=length, users=n, items=m, users_sharing=v,
                    clustering_theory=clustering_theory, clustering_measured=measured_cc,
                    avg_degree_theory=avg_degree_theory, avg_degree_measured=measured_degree,
                    avg_degree_measured_all_users=2 * e / n, flags=";".join(flags))
    problems = []
    for row in read_csv(outputs["affiliation.csv"]):
        p = _error_flagged(row) or compare(row, expected)
        measured_all = float(row["avg_degree_measured_all_users"] or "nan")
        theory = float(row["avg_degree_theory"] or "nan")
        if not abs(theory - measured_all) <= AFFILIATION_DEGREE_TOL * measured_all:
            p.append(f"avg_degree_theory {theory} is not within "
                     f"{AFFILIATION_DEGREE_TOL:.0%} of the measured {measured_all}")
        problems.append(p)
    return problems or [["affiliation.csv has no rows"]]


CHECKS = {"sweep-dense": check_sweep, "nullmodel-shuffle": check_nullmodel,
          "affiliation-1m": check_affiliation}
