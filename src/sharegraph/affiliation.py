"""Bipartite user-item model of a window and its one-mode projection theory.

A window of requests is a bipartite graph: users on one side, items on the
other, an edge for each distinct (user, item) incidence. Projecting onto
users (link two users sharing at least one item) gives exactly the
threshold-1 data-sharing graph. For a *random* bipartite graph with the same
empirical degree distributions, generating functions give closed forms for
the projection's expected average degree and clustering coefficient:

    f0(x) = sum_j p_j x^j         p_j: fraction of users with j distinct items
    g0(x) = sum_k q_k x^k         q_k: fraction of items with k distinct users
    G0(x) = f0(g0'(x) / g0'(1))

    avg_degree = G0'(1)  = f0'(1) g0''(1) / g0'(1)
    G0''(1)              = f0''(1) (g0''(1)/g0'(1))^2 + f0'(1) g0'''(1)/g0'(1)
    clustering = (M/N) g0'''(1) / G0''(1)      (triangle/triple sense, cc2)

Comparing these predictions against the measured projection separates
structure that is forced by the degree distributions alone from structure
contributed by correlated user preferences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dsg import DataSharingGraph, build_dsg
from .errors import EmptyTraceError
from .metrics import clustering
from .trace import Trace


@dataclass(frozen=True)
class BipartiteAffiliation:
    """Empirical bipartite degree data for one window.

    ``p`` maps j -> fraction of users requesting exactly j distinct items;
    ``q`` maps k -> fraction of items requested by exactly k distinct users.
    """

    user_count: int
    item_count: int
    p: dict[int, float]
    q: dict[int, float]


@dataclass(frozen=True)
class AffiliationPrediction:
    """Model predictions next to measured projection values.

    Measured fields are NaN until filled in by compare_window. There are two
    measured average degrees because the model counts every user while the
    measured projection drops users who share nothing:
    ``avg_degree_measured`` divides by the projection's node count,
    ``avg_degree_measured_all_users`` divides by the full user count.
    """

    avg_degree_theory: float
    clustering_theory: float
    avg_degree_measured: float = math.nan
    avg_degree_measured_all_users: float = math.nan
    clustering_measured: float = math.nan
    flags: tuple[str, ...] = ()


def build_bipartite(window_trace: Trace) -> BipartiteAffiliation:
    """Compute N, M, p, q from the distinct user-item incidences of a window."""
    if not len(window_trace):
        raise EmptyTraceError("cannot build a bipartite model of an empty window")
    item, user = window_trace.incidences()
    user_degree = np.unique(user, return_counts=True)[1]
    item_degree = np.unique(item, return_counts=True)[1]
    n, m = len(user_degree), len(item_degree)
    return BipartiteAffiliation(
        user_count=n,
        item_count=m,
        p=_fractions(user_degree, n),
        q=_fractions(item_degree, m),
    )


def _fractions(degrees: np.ndarray, total: int) -> dict[int, float]:
    """degree -> fraction of the ``total`` nodes that have it, by degree."""
    values, counts = np.unique(degrees, return_counts=True)
    return {d: c / total for d, c in zip(values.tolist(), counts.tolist())}


def gf_moments(dist: Mapping[int, float]) -> tuple[float, float, float]:
    """First three factorial moments of a degree distribution.

    For the polynomial h(x) = sum_j d_j x^j these are h'(1), h''(1), h'''(1),
    i.e. sum d_j * j, sum d_j * j(j-1), sum d_j * j(j-1)(j-2).
    """
    m1 = m2 = m3 = 0.0
    for j in sorted(dist):
        d = dist[j]
        m1 += d * j
        m2 += d * j * (j - 1)
        m3 += d * j * (j - 1) * (j - 2)
    return m1, m2, m3


def projection_derivatives(b: BipartiteAffiliation) -> tuple[float, float]:
    """G0'(1) and G0''(1) of the projection generating function, closed form.

    By the chain rule on G0(x) = f0(g0'(x)/g0'(1)):
        G0'(1)  = f0'(1) g0''(1) / g0'(1)
        G0''(1) = f0''(1) (g0''(1)/g0'(1))^2 + f0'(1) g0'''(1)/g0'(1)
    """
    f1, f2, _ = gf_moments(b.p)
    g1, g2, g3 = gf_moments(b.q)
    if g1 <= 0:
        raise ValueError("group-size distribution has zero mean; nothing is requested")
    return f1 * g2 / g1, f2 * (g2 / g1) ** 2 + f1 * g3 / g1


def predict(b: BipartiteAffiliation) -> AffiliationPrediction:
    """Closed-form projection predictions from the factorial moments.

    When the projection second moment G0''(1) vanishes (all items requested
    by at most one user, or degenerate user degrees) the clustering formula
    is 0/0; the prediction is flagged degenerate and left NaN.
    """
    g3 = gf_moments(b.q)[2]
    avg_degree, g0_dd = projection_derivatives(b)

    flags: list[str] = []
    if g0_dd > 0:
        clustering = (b.item_count / b.user_count) * (g3 / g0_dd)
        if clustering > 1:
            flags.append("theory_clustering_above_1")
    else:
        clustering = math.nan
        flags.append("degenerate_model")
    return AffiliationPrediction(
        avg_degree_theory=avg_degree,
        clustering_theory=clustering,
        flags=tuple(flags),
    )


def compare_window(
    window_trace: Trace,
) -> tuple[BipartiteAffiliation, AffiliationPrediction, DataSharingGraph]:
    """Model predictions and measured projection values for one window.

    The measured side is the threshold-1 data-sharing graph: clustering is
    its triangle-based coefficient, average degree is 2|E|/|V| under both
    node-count conventions.
    """
    bipartite = build_bipartite(window_trace)
    theory = predict(bipartite)
    projection = build_dsg(window_trace, threshold=1)

    flags = list(theory.flags)
    e = projection.edge_count
    v = projection.node_count
    if v > 0:
        measured_degree = 2 * e / v
        measured_cc = clustering(projection)[1]
        if math.isnan(measured_cc):
            flags.append("measured_no_triples")
    else:
        measured_degree = math.nan
        measured_cc = math.nan
        flags.append("empty_projection")

    prediction = AffiliationPrediction(
        avg_degree_theory=theory.avg_degree_theory,
        clustering_theory=theory.clustering_theory,
        avg_degree_measured=measured_degree,
        avg_degree_measured_all_users=2 * e / bipartite.user_count,
        clustering_measured=measured_cc,
        flags=tuple(flags),
    )
    return bipartite, prediction, projection
