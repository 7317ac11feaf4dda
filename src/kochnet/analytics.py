"""Closed-form structural statistics and their measured counterparts.

Closed forms: order 2(3m+1)^t + 1, size 3(3m+1)^t, per-step growth
6m(3m+1)^(t-1), degree exponent ln(3m+1)/ln(m+1), and the average path
length rational

    [3m + 5 + (24mt + 24m + 4)(3m+1)^t] / [3(3m+1)(2(3m+1)^t + 1)]

(the printed source garbles one parenthesis; this reading is pinned by
exact equality with the all-pairs BFS oracle).  Every vertex sits in
deg/2 triangles, so its local clustering is exactly 1/(deg-1), giving the
network average as an exact rational sum.

The measured average path length is exact at every N: the distance total
comes from the triangles' corner parts (``KochGraph.distance_total``).
The all-pairs BFS sum ``KochGraph.bfs_distance_total`` is its oracle, run
by ``verify`` on graphs of at most ``APL_EXACT_MAX_N`` vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import AnalysisError
from .graph import KochGraph, edge_count, vertex_count

APL_EXACT_MAX_N = 5000  # vertices: cap on the all-pairs BFS oracle of the distance total
CLUSTERING_LIMIT_M1 = 0.82008


def delta_v(m: int, step: int) -> int:
    """Vertices created at one growth step."""
    if step == 0:
        return 3
    return 6 * m * (3 * m + 1) ** (step - 1)


def degree_exponent(m: int) -> float:
    return math.log(3 * m + 1) / math.log(m + 1)


def apl_closed_form(m: int, t: int) -> Fraction:
    num = 3 * m + 5 + (24 * m * t + 24 * m + 4) * (3 * m + 1) ** t
    den = 3 * (3 * m + 1) * (2 * (3 * m + 1) ** t + 1)
    return Fraction(num, den)


def degree_histogram_closed_form(m: int, t: int) -> dict[int, int]:
    hist = {2 * (m + 1) ** t: 3}
    for i in range(1, t + 1):
        hist[2 * (m + 1) ** (t - i)] = hist.get(2 * (m + 1) ** (t - i), 0) + delta_v(m, i)
    return hist


def clustering_closed_form(m: int, t: int) -> Fraction:
    """Exact network average of C_v = 1/(deg(v) - 1)."""
    total = Fraction(3, 2 * (m + 1) ** t - 1)
    for i in range(1, t + 1):
        total += Fraction(delta_v(m, i), 2 * (m + 1) ** (t - i) - 1)
    return total / vertex_count(m, t)


@dataclass
class ClosedForms:
    m: int
    t: int
    n_vertices: int
    n_edges: int
    n_triangles: int
    delta_v: list[int]  # per step 1..t
    gamma: float
    apl: Fraction
    degree_histogram: dict[int, int]
    clustering: Fraction


def closed_forms(m: int, t: int) -> ClosedForms:
    if m < 1 or t < 0:
        raise ValueError(f"need m >= 1 and t >= 0, got m={m}, t={t}")
    return ClosedForms(
        m=m,
        t=t,
        n_vertices=vertex_count(m, t),
        n_edges=edge_count(m, t),
        n_triangles=(3 * m + 1) ** t,
        delta_v=[delta_v(m, i) for i in range(1, t + 1)],
        gamma=degree_exponent(m),
        apl=apl_closed_form(m, t),
        degree_histogram=degree_histogram_closed_form(m, t),
        clustering=clustering_closed_form(m, t),
    )


@dataclass
class EmpiricalStats:
    n_vertices: int
    n_edges: int
    degree_histogram: dict[int, int]
    clustering: Fraction
    apl: Fraction
    local_clustering_is_inverse_degree: bool = True


def _lower_wedges(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every wedge u > v > w of lower neighbours v and w of a vertex u, from edges (low, high), low < high."""
    order = np.lexsort((low, high))
    u, v = high[order], low[order]  # grouped by u, lower neighbours ascending
    del order
    rank = np.arange(len(u)) - np.searchsorted(u, u)  # u's lower neighbours below v
    wedge = np.repeat(np.arange(len(u)), rank)
    # edge e's wedges pair v with u's lower neighbours below it, the edges e - rank[e] .. e - 1 in
    # order: wedge i takes edge i + e - cumsum(rank)[e]
    w = v[np.arange(len(wedge)) + (np.arange(len(u)) - np.cumsum(rank))[wedge]]
    return u[wedge], v[wedge], w


def _measured_triangles(n: int, edges: np.ndarray) -> np.ndarray:
    """Triangle memberships per vertex of a simple graph, measured from its edge list alone.

    Each edge is oriented toward its lower id.  A triangle u > v > w is the
    wedge of u's lower neighbours v and w, closed by the edge (w, v): found
    once, at its highest corner, and counted at all three.  In K_{m,t} no
    vertex has more than two lower neighbours, so there are at most N wedges.
    Ids may be int32; the edge keys u * N + v are int64.
    """
    low, high = edges[:, 0], edges[:, 1]
    u, v, w = _lower_wedges(low, high)
    keys = low.astype(np.int64)
    keys *= n
    keys += high
    keys.sort()
    closing = w.astype(np.int64)
    closing *= n
    closing += v
    closed = keys[np.minimum(np.searchsorted(keys, closing), len(keys) - 1)] == closing
    return np.bincount(np.concatenate((u[closed], v[closed], w[closed])), minlength=n)


def empirical_stats(graph: KochGraph) -> EmpiricalStats:
    n = graph.n_vertices
    deg = graph.degrees
    values, counts = np.unique(deg, return_counts=True)
    hist = dict(zip(values.tolist(), counts.tolist()))
    tri = _measured_triangles(n, graph.edges)
    # C_v = tri / C(deg, 2) depends on (tri, deg) alone: one Fraction per distinct class
    base = int(deg.max()) + 1
    keys, sizes = np.unique(tri * base + deg, return_counts=True)
    clustering = Fraction(0)
    for key, size in zip(keys.tolist(), sizes.tolist()):
        k, d = divmod(key, base)
        clustering += size * Fraction(k, d * (d - 1) // 2)
    clustering /= n
    return EmpiricalStats(
        n_vertices=n,
        n_edges=len(graph.edges),
        degree_histogram=hist,
        clustering=clustering,
        apl=Fraction(graph.distance_total, n * (n - 1)),
        # every degree is >= 2, so C_v = 1/(deg - 1) exactly when 2 tri = deg
        local_clustering_is_inverse_degree=bool(np.all(2 * tri == deg)),
    )


@dataclass
class StatsReport:
    closed: ClosedForms
    empirical: EmpiricalStats
    counts_match: bool = field(init=False)
    histogram_matches: bool = field(init=False)
    apl_matches: bool = field(init=False)

    def __post_init__(self) -> None:
        self.counts_match = (
            self.closed.n_vertices == self.empirical.n_vertices
            and self.closed.n_edges == self.empirical.n_edges
        )
        self.histogram_matches = self.closed.degree_histogram == dict(
            self.empirical.degree_histogram
        )
        self.apl_matches = self.empirical.apl == self.closed.apl


def stats_report(graph: KochGraph) -> StatsReport:
    return StatsReport(closed_forms(graph.m, graph.t), empirical_stats(graph))


def cumulative_degree_check(m: int, t: int, histogram: dict[int, int]) -> bool:
    """Fraction of vertices of degree >= 2(m+1)^(t-i) must be (2(3m+1)^i + 1)/N."""
    n = vertex_count(m, t)
    for i in range(0, t + 1):
        threshold = 2 * (m + 1) ** (t - i)
        measured = sum(c for k, c in histogram.items() if k >= threshold)
        if Fraction(measured, n) != Fraction(2 * (3 * m + 1) ** i + 1, n):
            return False
    return True


@dataclass
class ClaimAudit:
    clustering_value: float
    clustering_gap_vs_limit: float | None  # m = 1 only
    apl_increment: float
    apl_increment_target: float
    apl_increment_rel_dev: float


def claim_audit(report: StatsReport) -> ClaimAudit:
    """Compare measured statistics against every printed claim that has a number."""
    m, t = report.closed.m, report.closed.t
    if t < 2:
        raise AnalysisError("claim audit needs t >= 2 (increments are undefined below)")
    clustering = float(report.closed.clustering)
    gap = abs(clustering - CLUSTERING_LIMIT_M1) if m == 1 else None
    increment = float(apl_closed_form(m, t) - apl_closed_form(m, t - 1))
    target = 4 * m / (3 * m + 1)
    return ClaimAudit(
        clustering_value=clustering,
        clustering_gap_vs_limit=gap,
        apl_increment=increment,
        apl_increment_target=target,
        apl_increment_rel_dev=abs(increment - target) / target,
    )
