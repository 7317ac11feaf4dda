from fractions import Fraction

import numpy as np
import pytest

from kochnet import claim_audit, closed_forms, empirical_stats, stats_report
from kochnet.analytics import (
    APL_EXACT_MAX_N,
    _measured_triangles,
    apl_closed_form,
    clustering_closed_form,
    cumulative_degree_check,
    degree_exponent,
    degree_histogram_closed_form,
    delta_v,
)
from kochnet.errors import AnalysisError

from conftest import adjacency, cached_graph, python_bfs


class TestClosedForms:
    def test_counts(self):
        cf = closed_forms(2, 2)
        assert (cf.n_vertices, cf.n_edges, cf.n_triangles) == (99, 147, 49)
        assert cf.delta_v == [12, 84]

    def test_apl_values(self):
        assert apl_closed_form(1, 0) == 1
        assert apl_closed_form(1, 1) == 2
        assert apl_closed_form(2, 1) == Fraction(711, 315) == Fraction(237, 105)

    def test_gamma(self):
        assert degree_exponent(1) == 2.0
        assert abs(degree_exponent(2) - 1.7712437491614221) < 1e-15

    def test_histogram(self):
        assert degree_histogram_closed_form(2, 2) == {18: 3, 6: 12, 2: 84}

    def test_growth_telescopes(self):
        for m in (1, 2, 3):
            for t in (1, 2, 3, 4):
                assert 3 + sum(delta_v(m, i) for i in range(1, t + 1)) == 2 * (3 * m + 1) ** t + 1


class TestEmpirical:
    def test_k11_apl(self):
        emp = empirical_stats(cached_graph(1, 1))
        assert emp.apl == 2

    def test_histogram_matches(self):
        emp = empirical_stats(cached_graph(2, 2))
        assert emp.degree_histogram == {2: 84, 6: 12, 18: 3}

    def test_local_clustering_inverse_degree(self):
        for m, t in [(1, 2), (2, 2), (3, 1), (1, 0)]:
            emp = empirical_stats(cached_graph(m, t))
            assert emp.local_clustering_is_inverse_degree

    def test_clustering_matches_closed_form(self):
        for m, t in [(1, 3), (2, 2)]:
            emp = empirical_stats(cached_graph(m, t))
            assert emp.clustering == clustering_closed_form(m, t)

    @pytest.mark.parametrize("m,t", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_apl_equals_closed_form_exactly(self, m, t):
        report = stats_report(cached_graph(m, t))
        assert report.apl_matches is True

    @pytest.mark.parametrize("m,t", [(1, 0), (1, 3), (2, 3), (3, 2), (1, 5)])
    def test_triangles_match_networkx(self, m, t):
        nx = pytest.importorskip("networkx")
        graph = cached_graph(m, t)
        ref = nx.triangles(nx.Graph(graph.edges.tolist()))
        got = _measured_triangles(graph.n_vertices, graph.edges)
        assert got.tolist() == [ref[v] for v in range(graph.n_vertices)]

    @pytest.mark.parametrize("seed", range(4))
    def test_triangles_on_any_simple_graph(self, seed):
        # not a cactus: vertices with many lower neighbours, triangles sharing edges
        nx = pytest.importorskip("networkx")
        g = nx.gnp_random_graph(30, 0.3, seed=seed)
        edges = np.array(sorted((min(e), max(e)) for e in g.edges()), np.int64).reshape(-1, 2)
        ref = nx.triangles(g)
        assert _measured_triangles(30, edges).tolist() == [ref[v] for v in range(30)]

    def test_apl_against_python_bfs(self):
        graph = cached_graph(2, 1)
        adj = adjacency(graph)
        total = sum(sum(python_bfs(adj, s).values()) for s in range(graph.n_vertices))
        n = graph.n_vertices
        assert Fraction(total, n * (n - 1)) == empirical_stats(graph).apl


# every graph the tests build with at most APL_EXACT_MAX_N vertices
BFS_GRAPHS = [(1, t) for t in range(6)] + [(2, t) for t in range(5)] + [(3, t) for t in range(4)]


class TestDistanceTotal:
    @pytest.mark.parametrize("m,t", BFS_GRAPHS)
    def test_structural_equals_bfs_oracle(self, m, t):
        graph = cached_graph(m, t)
        assert graph.n_vertices <= APL_EXACT_MAX_N
        assert graph.distance_total == graph.bfs_distance_total

    @pytest.mark.parametrize("m,t", [(2, 6), (3, 5)])
    def test_structural_equals_closed_form_above_oracle_cap(self, m, t):
        graph = cached_graph(m, t)
        n = graph.n_vertices
        assert n > APL_EXACT_MAX_N
        assert Fraction(graph.distance_total, n * (n - 1)) == apl_closed_form(m, t)
        assert empirical_stats(graph).apl == apl_closed_form(m, t)


class TestChecks:
    def test_cumulative_degree(self):
        hist = degree_histogram_closed_form(2, 3)
        assert cumulative_degree_check(2, 3, hist)
        bad = dict(hist)
        bad[2] -= 1
        assert not cumulative_degree_check(2, 3, bad)

    def test_claim_audit(self):
        report = stats_report(cached_graph(1, 2))
        audit = claim_audit(report)
        assert report.apl_matches is True
        assert cumulative_degree_check(1, 2, report.empirical.degree_histogram)
        assert report.closed.clustering == report.empirical.clustering
        assert audit.apl_increment_target == 1.0

    def test_claim_audit_needs_t2(self):
        with pytest.raises(AnalysisError):
            claim_audit(stats_report(cached_graph(1, 1)))

    def test_clustering_limit_m1(self):
        # the claimed infinite-t limit for m=1, approached from below by t=6
        value = float(clustering_closed_form(1, 6))
        assert abs(value - 0.82008) < 0.01

    def test_apl_increment_near_asymptote(self):
        inc = float(apl_closed_form(1, 5) - apl_closed_form(1, 4))
        assert abs(inc - 1.0) / 1.0 < 0.05
