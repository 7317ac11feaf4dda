import math
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest

from kochnet import (
    build,
    centrality_report,
    descendant_count,
    exact_betweenness,
    firstorder_vertex_betweenness,
    paper_edge_betweenness,
    paper_vertex_betweenness,
)
from kochnet import verify
from kochnet.analytics import delta_v
from kochnet.centrality import betweenness_counts, edge_betweenness_counts, edge_steps, scaling_fit
from kochnet.errors import AnalysisError
from kochnet.graph import EDGE_CLASSES, edge_class_ids, vertex_count
from kochnet.routing import ancestor_chain

from conftest import adjacency, all_labels, cached_graph, corner_pair_ends, python_betweenness, traced_peak


class TestDescendants:
    def test_leaf(self):
        assert descendant_count(2, 3, 3) == 0

    def test_hub_k11(self):
        assert descendant_count(1, 1, 0) == 2

    def test_formula_value(self):
        assert descendant_count(2, 2, 1) == 4

    @pytest.mark.parametrize("m,t", [(1, 2), (2, 2)])
    def test_matches_ancestor_chains(self, m, t):
        graph = cached_graph(m, t)
        below = [0] * graph.n_vertices
        for label in all_labels(graph):
            for anc in ancestor_chain(m, label)[1:]:
                below[graph.vertex_by_label(anc)] += 1
        for v, birth in enumerate(graph.birth.tolist()):
            assert below[v] == descendant_count(m, t, birth)


class TestExactOracle:
    def test_k11_hub(self):
        cb = exact_betweenness(cached_graph(1, 1))[0]
        assert abs(cb[0] - 3 / 7) < 1e-15

    def test_k11_edges(self):
        graph = cached_graph(1, 1)
        eb = exact_betweenness(graph)[1]
        hub_son = graph.corner_pair(0, 3)  # "1" -- "10.1"
        comp = graph.corner_pair(3, 4)  # "10.1" -- "10.2"
        hubs = graph.corner_pair(0, 1)
        assert abs(eb[hub_son] - 1 / 4) < 1e-15
        assert abs(eb[comp] - 1 / 28) < 1e-15
        assert abs(eb[hubs] - 9 / 28) < 1e-15

    def test_triangle_edges(self):
        eb = exact_betweenness(cached_graph(2, 0))[1]
        assert np.allclose(eb, 1.0)

    def test_leaves_zero(self):
        graph = cached_graph(2, 2)
        cb = exact_betweenness(graph)[0]
        for v, birth in enumerate(graph.birth.tolist()):
            if birth == 2:
                assert cb[v] == 0.0

    def test_birth_step_symmetry(self):
        graph = cached_graph(2, 2)
        cb = exact_betweenness(graph)[0]
        step1 = [cb[v] for v, birth in enumerate(graph.birth.tolist()) if birth == 1]
        assert len(step1) == 12
        assert max(step1) - min(step1) <= 1e-15

    @pytest.mark.parametrize("m,t", [(1, 1), (1, 2), (2, 1)])
    def test_against_python_reference(self, m, t):
        graph = cached_graph(m, t)
        cb = exact_betweenness(graph)[0]
        ref, _ = python_betweenness(adjacency(graph))
        n = graph.n_vertices
        norm = (n - 1) * (n - 2) // 2
        for v in range(n):
            assert abs(cb[v] - float(ref[v] / norm)) < 1e-12

    @pytest.mark.parametrize("m,t", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    def test_counts_match_networkx(self, m, t):
        nx = pytest.importorskip("networkx")
        graph = cached_graph(m, t)
        g = nx.Graph(graph.edges.tolist())
        vertex, edge = betweenness_counts(graph)
        ref_v = nx.betweenness_centrality(g, normalized=False)
        ref_e = nx.edge_betweenness_centrality(g, normalized=False)
        assert [ref_v[v] for v in range(graph.n_vertices)] == vertex.tolist()
        ref_e = {tuple(sorted(e)): x for e, x in ref_e.items()}
        assert [ref_e[e] for e in corner_pair_ends(graph)] == edge.tolist()


    @pytest.mark.parametrize("m,t", [(1, 6), (2, 4), (3, 3)])
    def test_edge_counts_sit_at_their_edges(self, m, t):
        # each triangle's three products land at the positions ``corner_pair`` finds for its corner pairs
        graph = cached_graph(m, t)
        tri, parts = graph.triangles, graph.corner_parts
        want = np.empty(graph.n_edges, np.int64)
        want[graph.corner_pair(tri[:, [0, 0, 1]], tri[:, [1, 2, 2]])] = parts[:, [0, 0, 1]] * parts[:, [1, 2, 2]]
        assert np.array_equal(betweenness_counts(graph)[1], want)

    def test_edge_counts_peak_at_32_bytes_per_edge(self):
        # the products are written into one C-ordered array, laid out by corner-pair position with no copy
        graph = build(2, 5)
        graph.corner_parts
        assert traced_peak(lambda: edge_betweenness_counts(graph)) <= 32 * graph.n_edges


class TestPaperFormulas:
    def test_eq_vertex_vanishes_at_t1(self):
        assert paper_vertex_betweenness(1, 1, 0) == 0

    def test_eq_vertex_disagrees_with_oracle(self):
        cb = exact_betweenness(cached_graph(1, 1))[0]
        assert abs(cb[0] - 3 / 7) < 1e-15  # oracle says 3/7, the printed form 0

    def test_eq_edge_value(self):
        assert paper_edge_betweenness(1, 1, 1) == Fraction(63, 504) == Fraction(1, 8)

    def test_eq_edge_disagrees_with_oracle(self):
        graph = cached_graph(1, 1)
        eb = exact_betweenness(graph)[1]
        assert abs(eb[graph.corner_pair(0, 3)] - 1 / 4) < 1e-15  # vs printed 1/8


class TestFirstOrder:
    def test_matches_exact_at_m1(self):
        graph = cached_graph(1, 1)
        cb = exact_betweenness(graph)[0]
        assert firstorder_vertex_betweenness(1, 1, 0) == Fraction(3, 7)
        assert abs(cb[0] - 3 / 7) < 1e-15

    def test_leaf_zero(self):
        assert firstorder_vertex_betweenness(2, 3, 3) == 0

    def test_strictly_below_exact_at_depth_two(self):
        graph = cached_graph(1, 2)
        cb = exact_betweenness(graph)[0]
        assert float(firstorder_vertex_betweenness(1, 2, 0)) < cb[0]

    def test_m1_equality_at_young_vertices(self):
        for t in (1, 2, 3):
            graph = cached_graph(1, t)
            cb = exact_betweenness(graph)[0]
            for v, birth in enumerate(graph.birth.tolist()):
                if t - birth <= 1:
                    expected = float(firstorder_vertex_betweenness(1, t, birth))
                    assert abs(cb[v] - expected) < 1e-12

    def test_m2_young_vertices_break_equality(self):
        # sons of one father in different groups still route through it, so
        # the descendants-times-rest composition undershoots whenever m > 1
        graph = cached_graph(2, 1)
        cb = exact_betweenness(graph)[0]
        assert cb[0] > float(firstorder_vertex_betweenness(2, 1, 0))
        norm = 14 * 13 // 2
        assert abs(cb[0] - 44 / norm) < 1e-12
        assert firstorder_vertex_betweenness(2, 1, 0) == Fraction(40, norm)


class TestReport:
    def test_rows_and_audit(self):
        report = centrality_report(cached_graph(1, 1))
        assert len(report.vertex) == 9
        assert len(report.edge) == 12
        audit = report.audit()
        assert audit["eq9_matches"] is False
        assert audit["eq12_matches"] is False
        assert audit["max_rel_gap"] > 0
        assert set(report.graph.birth.tolist()) == {0, 1}
        assert len(report.paper_vertex) == len(report.firstorder) == len(report.paper_edge) == 2

    def test_edge_classes_partition(self):
        graph = cached_graph(2, 2)
        report = centrality_report(graph)
        classes = edge_class_ids(graph)
        assert len(classes) == len(report.edge)
        counts = dict(zip(EDGE_CLASSES, np.bincount(classes, minlength=3).tolist()))
        assert counts == {"hub-hub": 3, "companion": 48, "father-child": 96}

    def test_monotone_in_birth(self):
        for m, t in [(1, 3), (2, 2)]:
            graph = cached_graph(m, t)
            report = centrality_report(graph)
            values = report.vertex[graph.step_starts].tolist()  # the first vertex of each step
            assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m,t", [(1, 1), (2, 2), (1, 4)])
    def test_closed_forms_per_birth_step(self, m, t):
        graph = cached_graph(m, t)
        report = centrality_report(graph)
        steps = range(t + 1)
        assert report.paper_vertex == [paper_vertex_betweenness(m, t, b) for b in steps]
        assert report.firstorder == [firstorder_vertex_betweenness(m, t, b) for b in steps]
        assert report.paper_edge == [paper_edge_betweenness(m, t, b) for b in steps]
        labels = all_labels(graph)
        assert report.graph.birth.tolist() == [label.birth for label in labels]
        # an edge is keyed by its later endpoint's birth step
        later = [max(labels[u].birth, labels[v].birth) for u, v in corner_pair_ends(graph)]
        assert edge_steps(report.graph).tolist() == later

    @pytest.mark.parametrize("m,t", [(1, 1), (2, 2), (1, 4)])
    @pytest.mark.parametrize("rel_tol", [1e-9, 0.5, 100.0])
    def test_audit_matches_isclose_reference(self, m, t, rel_tol):
        graph = cached_graph(m, t)
        report = centrality_report(graph)
        vertex = list(zip(report.vertex.tolist(), graph.birth.tolist()))
        birth = graph.birth.tolist()
        edge = list(zip(report.edge.tolist(), [max(birth[u], birth[v]) for u, v in corner_pair_ends(graph)]))
        paper_v = [float(paper_vertex_betweenness(m, t, b)) for _, b in vertex]
        paper_e = [float(paper_edge_betweenness(m, t, b)) for _, b in edge]
        pairs_v = [(x, p) for (x, _), p in zip(vertex, paper_v)]
        pairs_e = [(x, p) for (x, _), p in zip(edge, paper_e)]
        worst = 0.0
        for x, p in pairs_v + pairs_e:
            if x > 0:
                worst = max(worst, abs(x - p) / x)

        def matches(pairs, tol):
            return all(math.isclose(x, p, rel_tol=tol, abs_tol=1e-15) for x, p in pairs)

        assert report.audit() == {
            "eq9_matches": matches(pairs_v, 1e-9),
            "eq12_matches": matches(pairs_e, 1e-9),
            "max_rel_gap": worst,
            "gamma_hat": report.gamma_hat,
        }

    def test_audit_of_uneven_groups_matches_isclose_reference(self):
        # counts that vary within their groups: one vertex above the 1e-9 tolerance, at the top of its
        # group, and one edge group whose bottom is a 0 and, below the tolerance, the largest gap of all
        graph = cached_graph(2, 2)
        rng = np.random.default_rng(11)
        norm, base = 10**13, 10**12
        forms = [Fraction(base * (s + 1), norm) for s in range(graph.t + 1)]  # 1/10, 2/10, 3/10
        births, steps = graph.birth.astype(np.int64), edge_steps(graph).astype(np.int64)
        vertex = base * (births + 1) + rng.integers(-500, 500, graph.n_vertices)
        edge = base * (steps + 1) + rng.integers(-500, 500, len(steps))
        vertex[graph.step_starts[1]] += 5000  # the first vertex born at step 1
        edge[-1], edge[-4] = 0, base * (graph.t + 1) - 10**5  # the sons' pairs of the last two rows: one group
        report = replace(
            centrality_report(graph),
            pair_norm=norm,
            vertex_counts=vertex,
            edge_counts=edge,
            paper_vertex=forms,
            paper_edge=forms,
        )
        printed = [float(form) for form in forms]
        pairs_v = list(zip((vertex / norm).tolist(), [printed[s] for s in births.tolist()]))
        pairs_e = list(zip((edge / norm).tolist(), [printed[s] for s in steps.tolist()]))
        eq9, eq12 = (all(math.isclose(x, p, rel_tol=1e-9, abs_tol=1e-15) for x, p in pairs) for pairs in (pairs_v, pairs_e))
        worst = max(abs(x - p) / x for x, p in pairs_v + pairs_e if x > 0)
        assert (eq9, eq12, worst) == (False, False, abs(edge[-4] / norm - printed[-1]) / (edge[-4] / norm))
        assert report.audit() == {
            "eq9_matches": eq9,
            "eq12_matches": eq12,
            "max_rel_gap": worst,
            "gamma_hat": report.gamma_hat,
        }


class TestScalingFit:
    def test_recovers_synthetic_slope(self):
        degrees = [2 ** (5 - birth) for birth in range(0, 6)]
        exact = [(2.0 ** (5 - birth)) ** 1.75 for birth in range(0, 6)]
        gamma, residual = scaling_fit(degrees, exact)
        assert abs(gamma - 1.75) < 1e-12
        assert residual < 1e-12

    def test_needs_enough_classes(self):
        with pytest.raises(AnalysisError):
            scaling_fit([4, 2, 1], [0.5, 0.25, 0.0])

    def test_m1_t4_sane(self):
        report = centrality_report(cached_graph(1, 4))
        assert report.gamma_hat is not None
        assert abs(report.gamma_hat - 2.0) / 2.0 < 0.25


def test_sum_rule_against_distances():
    from kochnet import _kernels

    graph = cached_graph(2, 2)
    n = graph.n_vertices
    cb = exact_betweenness(graph)[0]
    interior = cb.sum() * ((n - 1) * (n - 2) // 2)
    indptr, indices = graph.csr
    expected = _kernels.all_distance_total(indptr, indices) / 2 - n * (n - 1) / 2
    assert math.isclose(interior, expected, rel_tol=1e-12)


def step_count(m: int, t: int, birth: int) -> int:
    """A vertex's exact count, from its birth step alone: pairs split between components of G - v.

    One component is everything outside the vertex's own part in the
    triangle it was born in.  Each triangle it spawns at step s holds two
    corners born at s, each with its descendants; it spawns m such
    triangles per triangle it already lies in.
    """
    n = vertex_count(m, t)
    sizes = [(1, n - 1 - descendant_count(m, t, birth))]
    for s in range(birth + 1, t + 1):
        sizes.append((m * (m + 1) ** (s - 1 - birth), 2 * (1 + descendant_count(m, t, s))))
    return ((n - 1) ** 2 - sum(k * size**2 for k, size in sizes)) // 2


def old_float_gap(counts, births, forms, pair_norm) -> float:
    """The normalized gap the float rule of ``centrality/firstorder-young`` bounded by 1e-12."""
    return float(np.max(np.abs(counts / pair_norm - np.array([float(f) for f in forms])[births])))


class TestIntegerVerdicts:
    """The count verdicts decided on closed-form per-step counts, with no graph."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_step_counts_match_betweenness_counts(self, m, t):
        graph = cached_graph(m, t)
        n = graph.n_vertices
        vertex = betweenness_counts(graph)[0]
        assert vertex.tolist() == [step_count(m, t, b) for b in graph.birth.tolist()]
        young = vertex[graph.birth == t - 1]
        assert young.tolist() == [2 * m * (n - m - 2)] * len(young)
        pair_norm = (n - 1) * (n - 2) // 2
        assert firstorder_vertex_betweenness(m, t, t - 1) * pair_norm == 2 * m * (n - 2 * m - 1)
        assert not vertex[graph.birth == t].any()

    @pytest.mark.parametrize(
        "m,t,n,gap",
        [(4, 6, 9_653_619, "5.15063842424e-13"), (2, 8, 11_529_603, "6.01812762798e-14")],
    )
    def test_firstorder_young_found_where_the_float_gap_is_below_1e12(self, m, t, n, gap):
        assert vertex_count(m, t) == n
        pair_norm = (n - 1) * (n - 2) // 2
        forms = [firstorder_vertex_betweenness(m, t, b) for b in range(t + 1)]
        births = np.array([t - 1, t])
        counts = np.array([step_count(m, t, t - 1), step_count(m, t, t)])
        assert counts.tolist() == [2 * m * (n - m - 2), 0]
        # off by 2m(m-1) pairs per vertex born at t - 1: under the 1e-12 float bound
        assert old_float_gap(counts, births, forms, pair_norm) <= 1e-12
        result = verify._firstorder_young(m, counts, births, forms, pair_norm)
        assert result.status == verify.DISCREPANCY
        assert result.detail.startswith(f"max_gap={gap} (grouped sons")

    @pytest.mark.parametrize("m,t", [(4, 6), (2, 8), (1, 12)])
    def test_one_pair_flips_each_count_verdict(self, m, t):
        n = vertex_count(m, t)
        pairs, pair_norm = n * (n - 1) // 2, (n - 1) * (n - 2) // 2
        steps = np.array([step_count(m, t, b) for b in range(t + 1)])
        assert steps[t - 1] < 2**53  # exact in the float rule's arithmetic too
        total = sum(delta_v(m, b) * int(x) for b, x in enumerate(steps))
        distance_total = 2 * (total + pairs)
        assert verify._sum_rule(m, t, total, distance_total, None).status == verify.PASS
        assert verify._sum_rule(m, t, total, distance_total, distance_total).status == verify.PASS
        for wrong in ((total + 1, distance_total), (total + 1, distance_total + 2)):
            assert verify._sum_rule(m, t, *wrong, None).status == verify.FAIL
        assert verify._sum_rule(m, t, total, distance_total + 2, None).status == verify.FAIL
        assert verify._sum_rule(m, t, total, distance_total, distance_total + 2).status == verify.FAIL
        assert 1 < 1e-6 * total  # one pair is inside the float rule's relative bound

        assert verify._birth_symmetry(steps, steps, pair_norm).status == verify.PASS
        high = steps.copy()
        high[t - 1] += 1
        assert verify._birth_symmetry(steps, high, pair_norm).status == verify.FAIL
        assert 1 / pair_norm <= 1e-12  # the float rule's bound on the normalized spread

        forms = [firstorder_vertex_betweenness(m, t, b) for b in range(t + 1)]
        births = np.array([t - 1, t - 1, t])
        composition = np.array([int(forms[b] * pair_norm) for b in births.tolist()])
        assert verify._firstorder_young(m, composition, births, forms, pair_norm).status == verify.PASS
        composition[1] += 1
        assert old_float_gap(composition, births, forms, pair_norm) <= 1e-12
        assert verify._firstorder_young(m, composition, births, forms, pair_norm).status == (
            verify.FAIL if m == 1 else verify.DISCREPANCY
        )

    def test_sum_rule_detail_prints_the_exact_total(self):
        m, t = 4, 6
        n = vertex_count(m, t)
        total = sum(delta_v(m, b) * step_count(m, t, b) for b in range(t + 1))
        result = verify._sum_rule(m, t, total, 2 * (total + n * (n - 1) // 2), None)
        assert result.detail == "sum=3.57237302489e+14 expected=3.57237302489e+14"


class TestReportCounts:
    def test_frozen_and_float_views_are_exact_betweenness(self):
        graph = cached_graph(2, 3)
        report = centrality_report(graph)
        with pytest.raises(FrozenInstanceError):
            report.gamma_hat = 0.0
        vertex, edge = exact_betweenness(graph)
        assert report.vertex_counts.dtype == report.edge_counts.dtype == np.int64
        assert report.vertex.tobytes() == vertex.tobytes()
        assert report.edge.tobytes() == edge.tobytes()
        counts = betweenness_counts(graph)
        assert [report.vertex_counts.tolist(), report.edge_counts.tolist()] == [c.tolist() for c in counts]
