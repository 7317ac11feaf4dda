"""Betweenness centrality: exact structural counts vs printed closed forms.

Three values are computed side by side for every vertex:

* ``exact`` - the exact count on the cactus of triangles.  Every edge
  lies in one triangle and triangles meet only at vertices, so every
  pair has a unique shortest path and a triangle splits the graph into
  the three parts that hang at its corners (``KochGraph.corner_parts``,
  made in O(N) from subtree sizes).  A vertex is interior to the pairs
  that lie in different components of G - v, and an edge carries the
  pairs between the parts at its two endpoints.
  Both counts are over unordered pairs, normalized by (N-1)(N-2)/2;
* ``paper`` - the printed vertex/edge formulas evaluated verbatim as
  rationals, kept as report inputs rather than ground truth;
* ``firstorder`` - descendants-times-rest composition N_l(N - N_l - 1)
  over the same normalization, the directly reconstructible part of the
  printed derivation.

The discrepancy report ships all three; nothing is "corrected" silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AnalysisError
from .graph import EDGE_CLASSES, KochGraph, edge_class_ids, vertex_count
from .labels import Label, format_label


def descendant_count(m: int, t: int, birth: int) -> int:
    """Vertices hanging below one vertex born at ``birth``: (2(3m+1)^(t-birth) - 2)/3."""
    if not 0 <= birth <= t:
        raise ValueError(f"birth {birth} outside [0, {t}]")
    return (2 * (3 * m + 1) ** (t - birth) - 2) // 3


def _pair_norm(n: int) -> int:
    return (n - 1) * (n - 2) // 2


def paper_vertex_betweenness(m: int, t: int, birth: int) -> Fraction:
    """Printed vertex formula, evaluated literally."""
    q = 3 * m + 1
    num = 2 * (Fraction(q) ** (t - 1) - 1) * (3 * q**t - q ** (t - birth) - 1)
    den = 3 * q**t * (2 * q**t - 1)
    return Fraction(num, den)


def paper_edge_betweenness(m: int, t: int, birth: int) -> Fraction:
    """Printed edge formula, evaluated literally (birth = the lower-degree endpoint's)."""
    q = 3 * m + 1
    num = (2 * q ** (t - birth) + 1) * (6 * q**t - 4 * q ** (t - birth) + 1)
    den = 18 * q**t * (2 * q**t - 1)
    return Fraction(num, den)


def firstorder_vertex_betweenness(m: int, t: int, birth: int) -> Fraction:
    n = vertex_count(m, t)
    n_low = descendant_count(m, t, birth)
    return Fraction(n_low * (n - n_low - 1), _pair_norm(n))


def vertex_betweenness_counts(graph: KochGraph) -> np.ndarray:
    """Exact vertex betweenness counts over unordered pairs, int64.

    A vertex counts the pairs it is interior to: the pairs split between
    two components of G - v, whose sizes are N minus v's part in each of
    its triangles.
    """
    n = graph.n_vertices
    squares = np.zeros(n, np.int64)
    np.add.at(squares, graph.triangles.ravel(), ((n - graph.corner_parts) ** 2).ravel())
    return ((n - 1) ** 2 - squares) // 2


def betweenness_counts(graph: KochGraph) -> tuple[np.ndarray, np.ndarray]:
    """Exact betweenness counts over unordered pairs, int64 (vertices, edges).

    An edge counts the pairs whose path uses it, its own endpoints
    included: the product of its endpoints' parts.  Edges are aligned
    with ``graph.edges``.
    """
    tri = graph.triangles
    parts = graph.corner_parts
    edge = np.empty(graph.n_edges, np.int64)
    edge[graph.edge_index(tri[:, [0, 0, 1]], tri[:, [1, 2, 2]])] = (
        parts[:, [0, 0, 1]] * parts[:, [1, 2, 2]]
    )
    return vertex_betweenness_counts(graph), edge


def exact_betweenness(graph: KochGraph) -> tuple[np.ndarray, np.ndarray]:
    """Normalized exact betweenness (vertices, edges aligned with graph.edges)."""
    vertex, edge = betweenness_counts(graph)
    norm = _pair_norm(graph.n_vertices)
    return vertex / norm, edge / norm


def exact_vertex_betweenness(graph: KochGraph) -> np.ndarray:
    return exact_betweenness(graph)[0]


def exact_edge_betweenness(graph: KochGraph) -> np.ndarray:
    return exact_betweenness(graph)[1]


@dataclass(frozen=True)
class VertexRow:
    label: Label
    birth: int
    degree: int
    exact: float
    paper: Fraction
    firstorder: Fraction


@dataclass(frozen=True)
class EdgeRow:
    label_u: Label
    label_v: Label
    edge_class: str
    exact: float
    paper: Fraction


@dataclass
class CentralityReport:
    m: int
    t: int
    pair_norm: int
    vertices: list[VertexRow]
    edges: list[EdgeRow]
    gamma_hat: float | None = None
    fit_residual: float | None = None

    def by_birth(self) -> dict[int, list[VertexRow]]:
        out: dict[int, list[VertexRow]] = {}
        for row in self.vertices:
            out.setdefault(row.birth, []).append(row)
        return out

    def max_rel_gap(self) -> float:
        worst = 0.0
        for row in self.vertices:
            if row.exact > 0:
                worst = max(worst, abs(row.exact - float(row.paper)) / row.exact)
        for row in self.edges:
            if row.exact > 0:
                worst = max(worst, abs(row.exact - float(row.paper)) / row.exact)
        return worst

    def audit(self, rel_tol: float = 1e-9) -> dict:
        eq9 = all(
            math.isclose(row.exact, float(row.paper), rel_tol=rel_tol, abs_tol=1e-15)
            for row in self.vertices
        )
        eq12 = all(
            math.isclose(row.exact, float(row.paper), rel_tol=rel_tol, abs_tol=1e-15)
            for row in self.edges
        )
        return {
            "eq9_matches": eq9,
            "eq12_matches": eq12,
            "max_rel_gap": self.max_rel_gap(),
            "gamma_hat": self.gamma_hat,
        }


def centrality_report(graph: KochGraph, with_fit: bool | None = None) -> CentralityReport:
    """Exact counts + printed formulas + firstorder composition, per vertex and edge.

    The closed forms depend on the birth step alone, so each is evaluated
    once per step and shared by the rows of that step.
    """
    cb, eb = exact_betweenness(graph)
    m, t = graph.m, graph.t
    steps = range(t + 1)
    paper_v = [paper_vertex_betweenness(m, t, b) for b in steps]
    first_v = [firstorder_vertex_betweenness(m, t, b) for b in steps]
    paper_e = [paper_edge_betweenness(m, t, b) for b in steps]
    labels = graph.labels
    vrows = [
        VertexRow(
            label=label,
            birth=birth,
            degree=degree,
            exact=exact,
            paper=paper_v[birth],
            firstorder=first_v[birth],
        )
        for label, birth, degree, exact in zip(
            labels, graph.birth.tolist(), graph.degrees.tolist(), cb.tolist()
        )
    ]
    later = graph.birth[graph.edges].max(axis=1).tolist()
    erows = [
        EdgeRow(
            label_u=labels[u],
            label_v=labels[v],
            edge_class=EDGE_CLASSES[cls],
            exact=exact,
            paper=paper_e[b],
        )
        for (u, v), cls, exact, b in zip(
            graph.edges.tolist(), edge_class_ids(graph).tolist(), eb.tolist(), later
        )
    ]
    report = CentralityReport(
        m=m, t=t, pair_norm=_pair_norm(graph.n_vertices), vertices=vrows, edges=erows
    )
    if with_fit is None:
        with_fit = t >= 3
    if with_fit:
        report.gamma_hat, report.fit_residual = scaling_fit(report)
    return report


def scaling_fit(report: CentralityReport) -> tuple[float, float]:
    """Least-squares slope of log(exact betweenness) against log(degree).

    One point per birth step 1..t-1 (hubs and the zero-betweenness leaves
    are excluded); the target exponent is ln(3m+1)/ln(m+1).
    """
    if report.t < 3:
        raise AnalysisError(
            f"scaling fit needs t >= 3 (got t={report.t}: fewer than two degree classes)"
        )
    per_birth: dict[int, VertexRow] = {}
    for row in report.vertices:
        per_birth.setdefault(row.birth, row)
    xs = np.array([math.log(per_birth[b].degree) for b in range(1, report.t)])
    ys = np.array([math.log(per_birth[b].exact) for b in range(1, report.t)])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return float(slope), residual


def report_csv_rows(report: CentralityReport, edges: bool = False) -> list[str]:
    if edges:
        rows = ["u,v,class,exact,paper"]
        for e in report.edges:
            rows.append(
                f"{format_label(e.label_u)},{format_label(e.label_v)},"
                f"{e.edge_class},{e.exact!r},{float(e.paper)!r}"
            )
        return rows
    rows = ["label,birth,degree,exact,paper,firstorder"]
    for v in report.vertices:
        rows.append(
            f"{format_label(v.label)},{v.birth},{v.degree},"
            f"{v.exact!r},{float(v.paper)!r},{float(v.firstorder)!r}"
        )
    return rows
