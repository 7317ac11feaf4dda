"""Betweenness centrality: exact accumulation oracle vs printed closed forms.

Three values are computed side by side for every vertex:

* ``exact`` - dependency accumulation over all sources (fractional path
  counting, so the number stays right even where path uniqueness would
  fail), normalized by (N-1)(N-2)/2 over unordered pairs;
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

from . import _kernels
from .errors import AnalysisError
from .graph import KochGraph, vertex_count
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


def exact_betweenness(graph: KochGraph) -> tuple[np.ndarray, np.ndarray]:
    """Normalized exact betweenness (vertices, edges aligned with graph.edges)."""
    indptr, indices = graph.csr
    cb, eb = _kernels.betweenness_totals(
        indptr, indices, graph.csr_edge_ids, len(graph.edges)
    )
    norm = 2.0 * _pair_norm(graph.n_vertices)
    return cb / norm, eb / norm


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
    """Exact oracle + printed formulas + firstorder composition, per vertex and edge."""
    cb, eb = exact_betweenness(graph)
    m, t = graph.m, graph.t
    labels, births, degrees = graph.labels, graph.birth.tolist(), graph.degrees.tolist()
    vrows = [
        VertexRow(
            label=labels[v],
            birth=birth,
            degree=degrees[v],
            exact=float(cb[v]),
            paper=paper_vertex_betweenness(m, t, birth),
            firstorder=firstorder_vertex_betweenness(m, t, birth),
        )
        for v, birth in enumerate(births)
    ]
    erows = []
    for eid, (u, v) in enumerate(graph.edges.tolist()):
        later = max(births[u], births[v])
        erows.append(
            EdgeRow(
                label_u=labels[u],
                label_v=labels[v],
                edge_class=graph.edge_class(u, v),
                exact=float(eb[eid]),
                paper=paper_edge_betweenness(m, t, later),
            )
        )
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
