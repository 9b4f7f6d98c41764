#!/usr/bin/env python3
"""Self-test of the correctness checks: real reports pass, perturbed ones fail.

Usage (from the repository root): python3 perfbench/selftest.py

For each workload it writes a small trace of the same make-up, runs the
workload's job in a child process exactly as the benchmark does, and

1. checks that check.py accepts the program's reports;
2. compares check.py's graph figures for one window with networkx, built
   from plain Python pair counting, as an oracle for the checker itself;
3. feeds the checker copies of the reports with one cell or row perturbed
   and sees each one fail;
4. runs the affiliation job on a planted-group trace, where items depend on
   users, and sees the model-versus-measured degree check fail.

Prints one line per expectation and exits 1 if any does not hold.
"""

from __future__ import annotations

import copy
import math
import sys
import time
from collections import defaultdict
from itertools import combinations

import networkx as nx
import numpy as np

import check
import run
from traces import WORKLOADS, write_trace

SMALL = copy.deepcopy(WORKLOADS)
SMALL["sweep-dense"]["trace"].update(users=300, items=3000, requests=3000, span=7200)
SMALL["nullmodel-shuffle"]["trace"].update(groups=10, group_size=10, requests=20000)
SMALL["affiliation-1m"]["trace"].update(users=1000, items=5000, requests=50000, gzip=False)
SMALL["affiliation-1m"]["job"].update(window_length=3600)
SEED = 7

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_small(workload: str, trace_spec: dict, name: str):
    path = run.WORK / f"selftest-{name}.csv"
    path.unlink(missing_ok=True)
    write_trace(path, trace_spec, SEED)
    params = dict(SMALL[workload]["job"], seed=SEED)
    result = run.run_child(workload, path, params, 1, False, time.monotonic() + 120)
    return path, params, result["outputs"]


def edit(text: str, row: int, column: str, change) -> str:
    """Apply ``change`` to one cell (a column left of any spilled cell)."""
    lines = text.splitlines()
    j = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[j] = change(fields[j])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def expect_fails(workload, path, params, outputs, report, what, perturb) -> None:
    bad = dict(outputs, **{report: perturb(outputs[report])})
    problems = check.CHECKS[workload](path, params, bad)
    expect(any(problems), f"{workload}: check fails when {what}")


def networkx_oracle(path, params) -> None:
    users, items, times = check.read_trace(path)
    lo, hi = np.searchsorted(times, [times[0], times[0] + params["window_length"]])
    item_users = defaultdict(set)
    for u, i in zip(users[lo:hi].tolist(), items[lo:hi].tolist()):
        item_users[i].add(u)
    weight = defaultdict(int)
    for group in item_users.values():
        for pair in combinations(sorted(group), 2):
            weight[pair] += 1
    _, w = check.pair_weights(users[lo:hi], items[lo:hi])
    for threshold in params["thresholds"]:
        g = nx.Graph([pair for pair, k in weight.items() if k >= threshold])
        comps = sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
        lcc = g.subgraph(comps[0])
        mine = check.graph_figures(w, threshold, 1.0, 0)
        oracle = {"nodes": g.number_of_nodes(), "edges": g.number_of_edges(),
                  "components": len(comps), "lcc_nodes": lcc.number_of_nodes(),
                  "lcc_edges": lcc.number_of_edges(), "cc1": nx.average_clustering(lcc),
                  "cc2": nx.transitivity(lcc),
                  "avg_path_length": nx.average_shortest_path_length(lcc)}
        bad = {k: (mine[k], v) for k, v in oracle.items()
               if not math.isclose(mine[k], v, rel_tol=1e-12)}
        expect(not bad, f"sweep-dense: checker agrees with networkx at threshold {threshold} "
               f"(V={oracle['nodes']}, E={oracle['edges']}) {bad or ''}")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)

    workload = "sweep-dense"
    path, params, out = run_small(workload, SMALL[workload]["trace"], workload)
    problems = check.check_sweep(path, params, out)
    expect(not any(problems), f"{workload}: program reports pass ({len(problems)} cells)")
    networkx_oracle(path, params)
    for what, perturb in [
        ("an edge count is off by one", lambda t: edit(t, 0, "edges", lambda c: str(int(c) + 1))),
        ("cc1 is off by 1e-6", lambda t: edit(t, 0, "cc1", scale(1 + 1e-6))),
        ("the largest component loses a node",
         lambda t: edit(t, 2, "lcc_nodes", lambda c: str(int(c) - 1))),
        ("a path-length source seed is wrong", lambda t: t.replace(",seed=", ",seed=1", 1)),
        ("a cell row is missing", lambda t: "".join(t.splitlines(keepends=True)[:-1])),
    ]:
        expect_fails(workload, path, params, out, "metrics.csv", what, perturb)
    expect_fails(workload, path, params, out, "scatter.csv", "a scatter ratio is off by 1e-6",
                 lambda t: edit(t, 0, "ratio_l", scale(1 + 1e-6)))

    workload = "nullmodel-shuffle"
    path, params, out = run_small(workload, SMALL[workload]["trace"], workload)
    problems = check.check_nullmodel(path, params, out)
    expect(not any(problems), f"{workload}: program reports pass ({len(problems)} rows) {problems}")
    for what, perturb in [
        ("a replicate seed is wrong", lambda t: edit(t, 1, "seed", lambda c: str(int(c) + 1))),
        ("a shuffled graph's mean weight is off by 1e-6",
         lambda t: edit(t, 2, "weight_mean", scale(1 + 1e-6))),
        ("a shuffled graph's component count is off by one",
         lambda t: edit(t, 3, "components", lambda c: str(int(c) + 1))),
        ("the real ratio_cc falls to 0", lambda t: edit(t, 0, "ratio_cc", lambda c: "0.0")),
    ]:
        expect_fails(workload, path, params, out, "nullmodel.csv", what, perturb)
    expect_fails(workload, path, params, out, "nullmodel_summary.csv", "a summary mean is off",
                 lambda t: edit(t, 1, "ratio_cc_mean", scale(1 + 1e-6)))

    workload = "affiliation-1m"
    path, params, out = run_small(workload, SMALL[workload]["trace"], workload)
    problems = check.check_affiliation(path, params, out)
    expect(not any(problems), f"{workload}: program report passes {problems}")
    for what, perturb in [
        ("clustering_theory is off by 1e-6",
         lambda t: edit(t, 0, "clustering_theory", scale(1 + 1e-6))),
        ("avg_degree_theory is off by 1e-6",
         lambda t: edit(t, 0, "avg_degree_theory", scale(1 + 1e-6))),
        ("users_sharing is off by one",
         lambda t: edit(t, 0, "users_sharing", lambda c: str(int(c) + 1))),
        ("clustering_measured is off by 1e-6",
         lambda t: edit(t, 0, "clustering_measured", scale(1 + 1e-6))),
    ]:
        expect_fails(workload, path, params, out, "affiliation.csv", what, perturb)
    planted = dict(SMALL["nullmodel-shuffle"]["trace"], in_group=0.9, requests=50000)
    path, params, out = run_small(workload, planted, "affiliation-planted")
    problems = check.check_affiliation(path, params, out)
    expect(any("avg_degree_theory" in p and "within" in p for ps in problems for p in ps),
           f"{workload}: model-vs-measured degree check fails on a planted-group trace")

    print(f"{len(failures)} expectation(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
