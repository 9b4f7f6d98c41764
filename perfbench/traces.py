"""Seeded trace generators and the make-up of each benchmark workload.

The benchmark writes its own traces from ``--seed``; the program only ever
sees the files. Every trace is written in time order, one canonical
``user_id,item_id,timestamp`` record per line.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np

# One dict per workload. "trace" is the generator's make-up; "job" is what
# the measured process runs on the loaded trace. The window of the
# null-model and affiliation workloads is an absolute [start, start+length).
WORKLOADS = {
    "sweep-dense": {
        "trace": {"kind": "independent", "users": 2000, "items": 20000,
                  "zipf_exponent": 1.0, "requests": 6000, "span": 7200, "stratum": 1800,
                  "gzip": False},
        "job": {"origin": 0, "window_length": 1800, "thresholds": [1, 2], "path_fraction": 0.05},
        "jobs_per_process": 3,
    },
    "nullmodel-shuffle": {
        "trace": {"kind": "planted", "groups": 50, "group_size": 20, "pool": 20,
                  "in_group": 0.6, "items": 50000, "zipf_exponent": 1.0,
                  "requests": 200000, "span": 86400, "gzip": False},
        "job": {"window_start": 43200, "window_length": 3600, "threshold": 2,
                "modes": ["ST1", "ST2", "ST3"], "replicates": 1, "path_fraction": 0.05},
        "jobs_per_process": 2,
    },
    "affiliation-1m": {
        "trace": {"kind": "independent", "users": 5000, "items": 50000,
                  "zipf_exponent": 1.0, "requests": 1000000, "span": 86400, "stratum": 300,
                  "gzip": True},
        "job": {"window_start": 43200, "window_length": 300},
        "jobs_per_process": 2,
    },
}


def _zipf_probs(items: int, exponent: float) -> np.ndarray:
    probs = np.arange(1, items + 1, dtype=float) ** -exponent
    return probs / probs.sum()


def _stratified_items(rng, probs: np.ndarray, requests: int) -> np.ndarray:
    """Item draws whose counts are the law's expected counts, rounded at random.

    Each item gets the integer part of its expected count; the remaining
    requests go to distinct items drawn in proportion to the fractional
    parts. The heavy items, whose audiences make most of the pair work, so
    get the same counts for every seed, and the seed moves only the tail.
    """
    expected = requests * probs
    counts = np.floor(expected).astype(np.int64)
    frac = expected - counts
    rest = requests - int(counts.sum())
    counts[rng.choice(len(probs), size=rest, replace=False, p=frac / frac.sum())] += 1
    return rng.permutation(np.repeat(np.arange(len(probs)), counts))


def generate(spec: dict, seed: int) -> tuple[list[str], list[str], np.ndarray]:
    """User labels, item labels and timestamps of one trace, time-sorted.

    ``independent``: users uniform; items follow a Zipf law by rank (``i0``
    most popular), independently of the user. The span is cut into strata
    of ``stratum`` seconds with equal request counts, and each stratum's
    item counts are the law's expected counts (see _stratified_items);
    timestamps are uniform inside the stratum.
    ``planted``: users ``u0..`` fall into ``groups`` interest groups of
    ``group_size`` consecutive ids; with probability ``in_group`` a request
    goes to a uniform item of the group's own pool (``g<group>p<j>``),
    otherwise to a Zipf draw from the shared catalogue. Timestamps are
    uniform over the span.
    """
    rng = np.random.default_rng(seed)
    n = spec["requests"]
    probs = _zipf_probs(spec["items"], spec["zipf_exponent"])
    if spec["kind"] == "independent":
        strata = spec["span"] // spec["stratum"]
        sizes = np.full(strata, n // strata) + (np.arange(strata) < n % strata)
        items = np.concatenate([_stratified_items(rng, probs, int(k)) for k in sizes])
        users = rng.integers(0, spec["users"], size=n)
        starts = np.repeat(np.arange(strata) * spec["stratum"], sizes)
        times = starts + rng.integers(0, spec["stratum"], size=n)
        item_labels = [f"i{i}" for i in items.tolist()]
    elif spec["kind"] == "planted":
        users = rng.integers(0, spec["groups"] * spec["group_size"], size=n)
        inside = rng.random(n) < spec["in_group"]
        shared = rng.choice(len(probs), size=n, p=probs)
        pool = rng.integers(0, spec["pool"], size=n)
        groups = users // spec["group_size"]
        item_labels = [f"g{g}p{p}" if own else f"i{s}" for g, p, s, own in
                       zip(groups.tolist(), pool.tolist(), shared.tolist(), inside.tolist())]
        times = rng.integers(0, spec["span"], size=n)
    else:
        raise ValueError(f"unknown trace kind {spec['kind']!r}")
    order = np.argsort(times, kind="stable")
    user_labels = [f"u{u}" for u in users[order].tolist()]
    item_labels = [item_labels[j] for j in order.tolist()]
    return user_labels, item_labels, times[order]


def trace_path(work_dir: Path, workload: str, seed: int) -> Path:
    spec = WORKLOADS[workload]["trace"]
    tag = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:8]
    suffix = ".csv.gz" if spec["gzip"] else ".csv"
    return work_dir / f"{workload}-seed{seed}-{tag}{suffix}"


def write_trace(path: Path, spec: dict, seed: int) -> None:
    """Generate and write one trace; a file already there is kept."""
    if path.exists():
        return
    users, items, times = generate(spec, seed)
    data = "".join(f"{u},{i},{t}\n" for u, i, t in zip(users, items, times.tolist())).encode()
    if spec["gzip"]:
        data = gzip.compress(data, compresslevel=6, mtime=0)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
