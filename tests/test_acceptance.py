"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass; tolerances are pinned here and nowhere else.
"""

import subprocess
import sys

import numpy as np

from kochnet import (
    _kernels,
    build,
    centrality_report,
    exact_betweenness,
    firstorder_vertex_betweenness,
    format_label,
    paper_edge_betweenness,
    paper_vertex_betweenness,
    path_profile,
    route,
    solve,
)
from kochnet.analytics import apl_closed_form, clustering_closed_form, empirical_stats
from kochnet.centrality import edge_steps
from kochnet.graph import edge_count, vertex_count

from conftest import (
    adjacency,
    all_labels,
    cached_graph,
    chain_splits,
    corner_pair_ends,
    enumerate_labels,
    neighbor_partition,
    python_bfs_sigma,
    python_extra_parents,
    verify_path_in_graph,
)


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_order_size():
    worst = ""
    ok = True
    for m in (1, 2, 3):
        for t in range(0, 6):
            graph = build(m, t) if t >= 5 else cached_graph(m, t)
            good = (
                graph.n_vertices == vertex_count(m, t)
                and len(graph.edges) == edge_count(m, t)
            )
            if not good:
                ok = False
                worst = f"m={m} t={t}"
    _report(1, ok, "N=2(3m+1)^t+1 and E=3(3m+1)^t exactly, m<=3, t<=5" + worst)


def test_criterion_02_label_bijection():
    ok = True
    for m in (1, 2, 3):
        for t in range(0, 5):
            graph = cached_graph(m, t)
            labels = enumerate_labels(m, t)
            built = set(all_labels(graph))
            resolved = {graph.vertex_by_label(lab) for lab in labels}
            ok &= len(labels) == graph.n_vertices == len(resolved) and labels == built
    _report(2, ok, "|labels| = N and labels resolve to distinct vertices, m<=3, t<=4")


def test_criterion_03_neighbor_theorems():
    ok = True
    checked = 0
    for m in (1, 2, 3):
        for t in range(0, 5):
            graph = cached_graph(m, t)
            labels = all_labels(graph)
            for label, nbrs in zip(labels, adjacency(graph)):
                part = neighbor_partition(m, t, label)
                adjacent = {labels[w] for w in nbrs}
                if part.as_set() != adjacent or len(part) != len(adjacent):
                    ok = False
                checked += 1
    _report(3, ok, f"label partition == adjacency on {checked} vertices, zero tolerance")


def _bfs_distances(graph, src, dst):
    """BFS distance of every pair (src[p], dst[p]), from one multi-source sweep."""
    return _kernels.pair_distances(*graph.csr, src, dst)[0].tolist()


def test_criterion_04_routing_optimality():
    mismatches = 0
    op_budget_ok = True
    pairs_checked = 0
    for m in (1, 2):
        for t in range(0, 4):
            graph = cached_graph(m, t)
            n = graph.n_vertices
            src, dst = np.triu_indices(n, 1)
            for s, v, dist in zip(src.tolist(), dst.tolist(), _bfs_distances(graph, src, dst)):
                path = route(m, t, graph.label_of(s), graph.label_of(v))
                pairs_checked += 1
                if path.length != dist or not verify_path_in_graph(graph, path):
                    mismatches += 1
                if path.ops_used > 2 * t + 3:
                    op_budget_ok = False
    for m in (1, 2, 3):
        t = 4
        graph = cached_graph(m, t)
        n = graph.n_vertices
        rng = np.random.default_rng(0x6B6F6368 + m)
        src = rng.integers(0, n, 10**5)
        dst = rng.integers(0, n - 1, 10**5)
        dst[dst >= src] += 1
        for s, v, dist in zip(src.tolist(), dst.tolist(), _bfs_distances(graph, src, dst)):
            path = route(m, t, graph.label_of(s), graph.label_of(v))
            pairs_checked += 1
            if path.length != dist:
                mismatches += 1
            if path.ops_used > 2 * t + 3:
                op_budget_ok = False
    _report(
        4,
        mismatches == 0 and op_budget_ok,
        f"route==BFS on {pairs_checked} pairs (all pairs m<=2,t<=3; 1e5 seeded each m at t=4),"
        f" ops<=2t+3, mismatches={mismatches}",
    )


def test_criterion_05_uniqueness():
    violations = []
    for m in (1, 2):
        for t in range(0, 4):
            graph = cached_graph(m, t)
            sources = np.arange(graph.n_vertices)  # every source swept to its last level
            _, extra = _kernels.pair_distances(*graph.csr, sources, np.zeros_like(sources))
            adj = adjacency(graph)
            assert extra == python_extra_parents(adj, sources.tolist())
            if extra:
                for s in range(graph.n_vertices):
                    _, sigma = python_bfs_sigma(adj, s)
                    for v in sorted(x for x in sigma if sigma[x] > 1):
                        violations.append((m, t, str(graph.label_of(s)), str(graph.label_of(v))))
    _report(
        5,
        not violations,
        "sigma_st = 1 for all pairs, m in {1,2}, t<=3"
        + (f"; violations={violations[:10]}" if violations else ""),
    )


def test_criterion_06_degree_structure():
    ok = True
    for m in (1, 2, 3):
        for t in range(0, 5):
            graph = cached_graph(m, t)
            emp = empirical_stats(graph)
            expected = {2 * (m + 1) ** t: 3}
            for i in range(1, t + 1):
                expected[2 * (m + 1) ** (t - i)] = 6 * m * (3 * m + 1) ** (i - 1)
            ok &= dict(emp.degree_histogram) == expected
            ok &= emp.local_clustering_is_inverse_degree
    _report(6, ok, "degree histogram exact and local clustering = 1/(deg-1), m<=3, t<=4")


def test_criterion_07_apl_closed_form():
    ok = True
    for m in (1, 2, 3):
        for t in range(0, 4):
            graph = cached_graph(m, t)
            emp = empirical_stats(graph)
            ok &= emp.apl == apl_closed_form(m, t)
    clustering = float(clustering_closed_form(1, 6))
    c_gap = abs(clustering - 0.82008)
    ok &= c_gap <= 0.01
    measured = empirical_stats(cached_graph(1, 6))
    ok &= measured.clustering == clustering_closed_form(1, 6)
    inc = float(apl_closed_form(1, 5) - apl_closed_form(1, 4))
    inc_dev = abs(inc - 1.0)
    ok &= inc_dev <= 0.05
    _report(
        7,
        ok,
        f"APL rational equality m<=3 t<=3; m=1 clustering(t=6) gap {c_gap:.6f} <= 0.01;"
        f" APL increment dev {inc_dev:.4f} <= 5%",
    )


def test_criterion_08_betweenness_properties():
    ok = True
    details = []
    for m, t in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (1, 4)]:
        graph = cached_graph(m, t)
        cb = exact_betweenness(graph)[0]
        by_birth: dict[int, list[float]] = {}
        for v, birth in enumerate(graph.birth.tolist()):
            by_birth.setdefault(birth, []).append(float(cb[v]))
        spread = max(max(v) - min(v) for v in by_birth.values())
        ok &= spread <= 1e-12
        ok &= max(by_birth[t]) == 0.0
    # the composition from descendant counts; exactness pinned at m=1 where
    # a father's sons born in one step form a single group
    for t in (1, 2, 3, 4):
        graph = cached_graph(1, t)
        cb = exact_betweenness(graph)[0]
        for v, birth in enumerate(graph.birth.tolist()):
            if t - birth <= 1:
                want = float(firstorder_vertex_betweenness(1, t, birth))
                ok &= abs(cb[v] - want) <= 1e-12
    g11 = cached_graph(1, 1)
    cb = exact_betweenness(g11)[0]
    ok &= abs(cb[0] - 3 / 7) <= 1e-12
    report = centrality_report(g11)
    hub_son = g11.corner_pair(0, 3)
    ok &= [format_label(g11.label_of(v)) for v in (0, 3)] == ["1", "10.1"]
    ok &= abs(report.edge[hub_son] - 1 / 4) <= 1e-12
    # the discrepancy report itself: present, well formed, and honest
    audit = report.audit()
    ok &= audit["eq9_matches"] is False and audit["eq12_matches"] is False
    ok &= audit["max_rel_gap"] > 0
    g11_labels = all_labels(g11)
    ok &= report.graph.birth.tolist() == [label.birth for label in g11_labels]
    ok &= all(
        report.paper_vertex[b] == paper_vertex_betweenness(1, 1, b)
        and report.firstorder[b] == firstorder_vertex_betweenness(1, 1, b)
        and report.paper_edge[b] == paper_edge_betweenness(1, 1, b)
        for b in range(2)
    )
    ok &= edge_steps(report.graph).tolist() == [
        max(g11_labels[u].birth, g11_labels[v].birth) for u, v in corner_pair_ends(g11)
    ]
    deep = centrality_report(cached_graph(1, 6))
    gamma_dev = abs(deep.gamma_hat - 2.0) / 2.0
    ok &= gamma_dev <= 0.15
    details.append(f"gamma_hat={deep.gamma_hat:.4f} dev={gamma_dev:.4f} <= 15%")
    _report(8, ok, "symmetry/leaves/firstorder/goldens + discrepancy report; " + "; ".join(details))


def test_criterion_09_electrical_theorems():
    ok = True
    worst_off = worst_v = worst_split = worst_r = 0.0
    graph = cached_graph(1, 1)
    pair_list = [
        (s, v) for s in range(graph.n_vertices) for v in range(s + 1, graph.n_vertices)
    ]
    g22 = cached_graph(2, 2)
    rng = np.random.default_rng(0xC0FFEE)
    seen = set()
    while len(seen) < 50:
        s, v = rng.integers(0, g22.n_vertices, 2)
        if s != v:
            seen.add((min(int(s), int(v)), max(int(s), int(v))))
    jobs = [(graph, p) for p in pair_list] + [(g22, p) for p in sorted(seen)]
    for g, (s, v) in jobs:
        prof = path_profile(g, s, v)
        d = prof.distance
        worst_off = max(worst_off, prof.max_offpath_current)
        expected_path = [1 - k / d for k in range(d + 1)]
        expected_mid = [1 - (2 * k + 1) / (2 * d) for k in range(d)]
        worst_v = max(
            worst_v,
            max(abs(a - b) for a, b in zip(prof.on_path_voltages, expected_path)),
            max(abs(a - b) for a, b in zip(prof.companion_voltages, expected_mid)),
        )
        for direct, da, db in chain_splits(g, prof.field, s, v):
            worst_split = max(
                worst_split, abs(direct - 2 / 3), abs(da - 1 / 3), abs(db - 1 / 3)
            )
        worst_r = max(worst_r, abs(prof.field.effective_resistance - 2 * d / 3))
    ok &= worst_off < 1e-9 and worst_v < 1e-9 and worst_split < 1e-9 and worst_r < 1e-9
    base = solve(cached_graph(3, 0), 0, 1)
    ok &= abs(base.effective_resistance - 2 / 3) < 1e-10
    _report(
        9,
        ok,
        f"Thm checks on K11 all pairs + 50 K22 pairs: offpath<{worst_off:.1e},"
        f" voltages<{worst_v:.1e}, split<{worst_split:.1e}, |R-2d/3|<{worst_r:.1e},"
        f" triangle R=2/3",
    )


def test_criterion_10_determinism():
    cmd = [
        sys.executable, "-m", "kochnet.cli",
        "verify", "--m", "2", "--t", "2", "--suite", "all", "--seed", "0",
    ]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = a.stdout == b.stdout and a.returncode == b.returncode == 0
    _report(10, ok, "two `verify --suite all` runs are byte-identical and exit 0")
