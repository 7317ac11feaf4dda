"""Betweenness centrality: exact structural counts vs printed closed forms.

Three values are computed side by side:

* ``exact`` - the exact count on the cactus of triangles.  Every edge
  lies in one triangle and triangles meet only at vertices, so every
  pair has a unique shortest path and a triangle splits the graph into
  the three parts that hang at its corners (``KochGraph.corner_parts``,
  made in O(N) from subtree sizes).  A vertex is interior to the pairs
  that lie in different components of G - v, and an edge carries the
  pairs between the parts at its two endpoints.  Edge values are indexed
  by corner-pair position 3k + j (``KochGraph.corner_pair``).
  Both counts are over unordered pairs, normalized by (N-1)(N-2)/2;
* ``paper`` - the printed vertex/edge formulas evaluated verbatim as
  rationals, kept as report inputs rather than ground truth;
* ``firstorder`` - descendants-times-rest composition N_l(N - N_l - 1)
  over the same normalization, the directly reconstructible part of the
  printed derivation.

The report is exact counts plus closed forms: one int64 count array over
the vertices and one over the edges, and ``paper`` and ``firstorder`` as
one Fraction per birth step, since they depend on the step alone.  Floats
are derived from the counts only where text is written.  The discrepancy
report ships all three; nothing is "corrected" silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import AnalysisError
from .graph import KochGraph, vertex_count


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
    included: the product of its endpoints' parts, made per triangle row
    and indexed by corner-pair position.
    """
    return vertex_betweenness_counts(graph), edge_betweenness_counts(graph)


def edge_betweenness_counts(graph: KochGraph) -> np.ndarray:
    """``betweenness_counts``' edge half, int64, at each edge's corner-pair position 3k + j."""
    parts = graph.corner_parts
    counts = np.empty_like(parts)  # C order, so row k's three pairs sit at 3k, 3k + 1, 3k + 2
    for col, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        np.multiply(parts[:, i], parts[:, j], out=counts[:, col])
    return counts.reshape(-1)


def exact_betweenness(graph: KochGraph) -> tuple[np.ndarray, np.ndarray]:
    """Normalized exact betweenness (vertices, edges by corner-pair position)."""
    vertex, edge = betweenness_counts(graph)
    norm = _pair_norm(graph.n_vertices)
    return vertex / norm, edge / norm


def _against_printed(counts: np.ndarray, starts: np.ndarray, forms: list[Fraction], norm: int) -> tuple[bool, float]:
    """One kind's audit: (every count / norm isclose to its step's printed form, the largest rel gap).

    ``counts`` holds one column per group and a row per element, the rows
    of step s from ``starts[s]`` on.  The values that are isclose to one
    printed p form an interval, and |x - p| / x is largest at an end of
    any interval of x > 0: so each group's min and max decide it.
    """
    low, high = np.minimum.reduceat(counts, starts), np.maximum.reduceat(counts, starts)
    printed = np.repeat([float(form) for form in forms], low.shape[1]).tolist() * 2  # at low's, then high's
    ends = (np.concatenate((low, high)) / norm).ravel().tolist()
    matches = all(math.isclose(x, p, rel_tol=1e-9, abs_tol=1e-15) for x, p in zip(ends, printed))
    stops = np.append(starts[1:], len(counts))
    for s, j in zip(*np.nonzero((low == 0) & (high > 0))):  # a 0 has no gap: its group's least positive count
        group = counts[starts[s] : stops[s], j]
        low[s, j] = group[group > 0].min()
    ends = (np.concatenate((low, high)) / norm).ravel().tolist()
    return matches, max((abs(x - p) / x for x, p in zip(ends, printed) if x > 0), default=0.0)


@dataclass(frozen=True)
class CentralityReport:
    """Exact betweenness counts of every vertex and edge, and each closed form once per birth step.

    ``vertex_counts`` and ``edge_counts`` (by corner-pair position)
    count unordered pairs; ``vertex`` and ``edge`` are the same values
    normalized by ``pair_norm``.  ``paper_vertex``, ``firstorder`` and
    ``paper_edge`` hold one Fraction per birth step 0..t, read at a
    vertex's birth step and at an edge's ``edge_steps``.
    """

    graph: KochGraph = field(repr=False)
    pair_norm: int
    vertex_counts: np.ndarray
    edge_counts: np.ndarray
    paper_vertex: list[Fraction]
    firstorder: list[Fraction]
    paper_edge: list[Fraction]
    gamma_hat: float | None

    @property
    def vertex(self) -> np.ndarray:
        return self.vertex_counts / self.pair_norm

    @property
    def edge(self) -> np.ndarray:
        return self.edge_counts / self.pair_norm

    def audit(self) -> dict:
        """Each printed formula against the exact values in floats, one kind at a time.

        A kind matches when every element is isclose at rel_tol 1e-9; ``max_rel_gap`` is the
        largest |exact - printed| / exact over the elements of positive exact betweenness.
        Vertices are grouped by birth step, and edges by birth step and corner-pair column.
        """
        starts = self.graph.step_starts  # a step's first vertex, and half of it its first triangle row
        eq9, gap_v = _against_printed(self.vertex_counts[:, None], starts, self.paper_vertex, self.pair_norm)
        eq12, gap_e = _against_printed(self.edge_counts.reshape(-1, 3), starts // 2, self.paper_edge, self.pair_norm)
        return {
            "eq9_matches": eq9,
            "eq12_matches": eq12,
            "max_rel_gap": max(gap_v, gap_e),
            "gamma_hat": self.gamma_hat,
        }


def edge_steps(graph: KochGraph) -> np.ndarray:
    """The birth step an edge's closed form is read at: its later endpoint's, by corner-pair position.

    That is son b, 2k+2, of its row k: ids grow with birth, and a row's sons are born together.
    """
    return np.repeat(graph.birth[2::2], 3)


def step_forms(m: int, t: int, edges: bool = False) -> dict[str, list[Fraction]]:
    """Each closed form once per birth step 0..t, by CSV column name.

    Vertices have ``paper`` and ``firstorder``, edges ``paper``.
    """
    if edges:
        forms = {"paper": paper_edge_betweenness}
    else:
        forms = {"paper": paper_vertex_betweenness, "firstorder": firstorder_vertex_betweenness}
    return {name: [form(m, t, b) for b in range(t + 1)] for name, form in forms.items()}


def per_element(forms: list[Fraction], steps: np.ndarray) -> np.ndarray:
    """A per-birth-step closed form as floats at each element's step, each converted once."""
    return np.array([float(form) for form in forms])[steps]


def centrality_report(graph: KochGraph) -> CentralityReport:
    """Exact counts per vertex and edge; printed formulas and firstorder composition per step.

    The closed forms depend on the birth step alone, so each is evaluated
    once per step.  From t = 3 on, ``gamma_hat`` is the ``scaling_fit``
    slope.
    """
    vertex, edge = betweenness_counts(graph)
    norm = _pair_norm(graph.n_vertices)
    vertex_forms = step_forms(graph.m, graph.t)
    gamma_hat = None
    if graph.t >= 3:
        first = graph.step_starts
        gamma_hat = scaling_fit(graph.degrees[first].tolist(), (vertex[first] / norm).tolist())[0]
    return CentralityReport(
        graph=graph,
        pair_norm=norm,
        vertex_counts=vertex,
        edge_counts=edge,
        paper_vertex=vertex_forms["paper"],
        firstorder=vertex_forms["firstorder"],
        paper_edge=step_forms(graph.m, graph.t, edges=True)["paper"],
        gamma_hat=gamma_hat,
    )


def scaling_fit(degrees: list[int], exact: list[float]) -> tuple[float, float]:
    """Least-squares slope of log(exact betweenness) against log(degree).

    ``degrees`` and ``exact`` hold one vertex's values per birth step
    0..t.  One point per step 1..t-1 (hubs and the zero-betweenness
    leaves are excluded); the target exponent is ln(3m+1)/ln(m+1).
    """
    t = len(degrees) - 1
    if t < 3:
        raise AnalysisError(
            f"scaling fit needs t >= 3 (got t={t}: fewer than two degree classes)"
        )
    xs = np.array([math.log(d) for d in degrees[1:t]])
    ys = np.array([math.log(x) for x in exact[1:t]])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return float(slope), residual
