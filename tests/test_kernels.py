"""The numpy kernels and the structural betweenness counts against
plain-Python references that share no code with them (dict/deque BFS,
exact ``Fraction`` dependency accumulation)."""

import numpy as np
import pytest

from kochnet import _kernels
from kochnet.centrality import betweenness_counts

from conftest import cached_graph, python_betweenness, python_bfs, python_bfs_sigma

GRAPHS = [(1, 2), (2, 2), (1, 3)]


@pytest.mark.parametrize("m,t", GRAPHS)
def test_bfs_matches_python(m, t):
    graph = cached_graph(m, t)
    indptr, indices = graph.csr
    for source in (0, 3, graph.n_vertices - 1):
        dist = _kernels.bfs_distances(indptr, indices, source)
        ref = python_bfs(graph.adjacency, source)
        assert [int(d) for d in dist] == [ref[v] for v in range(graph.n_vertices)]


@pytest.mark.parametrize("m,t", GRAPHS)
def test_sigma_matches_python(m, t):
    graph = cached_graph(m, t)
    indptr, indices = graph.csr
    for source in (0, 5):
        dist, sigma = _kernels.bfs_sigma(indptr, indices, source)
        ref_d, ref_s = python_bfs_sigma(graph.adjacency, source)
        assert [int(x) for x in dist] == [ref_d[v] for v in range(graph.n_vertices)]
        assert [int(x) for x in sigma] == [ref_s[v] for v in range(graph.n_vertices)]


@pytest.mark.parametrize("m,t", GRAPHS)
def test_distance_total_matches_python(m, t):
    graph = cached_graph(m, t)
    indptr, indices = graph.csr
    total = 0
    multi = 0
    for s in range(graph.n_vertices):
        ref_d, ref_s = python_bfs_sigma(graph.adjacency, s)
        total += sum(ref_d.values())
        multi += sum(1 for c in ref_s.values() if c > 1)
    assert _kernels.all_distance_total(indptr, indices) == total
    assert _kernels.multi_sigma_count(indptr, indices) == multi == 0


@pytest.mark.parametrize("m,t", GRAPHS)
def test_betweenness_totals_match_python(m, t):
    graph = cached_graph(m, t)
    vertex, edge = betweenness_counts(graph)
    ref_v, ref_e = python_betweenness(graph.adjacency)
    # shortest paths are unique, so every reference total is a whole number of pairs
    assert all(x.denominator == 1 for x in [*ref_v, *ref_e.values()])
    assert vertex.dtype == edge.dtype == np.int64
    assert vertex.tolist() == [int(x) for x in ref_v]
    edges = list(map(tuple, graph.edges.tolist()))
    assert sorted(ref_e) == edges
    assert edge.tolist() == [int(ref_e[e]) for e in edges]


def test_multi_sigma_detects_square():
    # C4 has two shortest paths between opposite corners
    indptr = np.array([0, 2, 4, 6, 8], np.int64)
    indices = np.array([1, 3, 0, 2, 1, 3, 0, 2], np.int64)
    assert _kernels.multi_sigma_count(indptr, indices) == 4
    assert _kernels.multi_sigma_count(indptr, indices, [0, 2]) == 2  # from two of the sources


def _blocks(n, rows):
    return [np.arange(s, min(s + rows, n)) for s in range(0, n, rows)]


@pytest.mark.parametrize("m,t", GRAPHS)
def test_bfs_block_matches_single_source_rows(m, t):
    graph = cached_graph(m, t)
    indptr, indices = graph.csr
    n = graph.n_vertices
    rows = 7 if n % 7 else 11  # blocks that do not divide N
    for block in _blocks(n, rows):
        dist = _kernels.bfs_block(indptr, indices, block)
        dist_s, sigma = _kernels.bfs_block(indptr, indices, block, with_sigma=True)
        assert dist.shape == sigma.shape == (len(block), n)
        for r, s in enumerate(block.tolist()):
            assert (dist[r] == _kernels.bfs_distances(indptr, indices, s)).all()
            ref_d, ref_s = _kernels.bfs_sigma(indptr, indices, s)
            assert (dist_s[r] == ref_d).all() and (sigma[r] == ref_s).all()


def _sweep_totals(indptr, indices):
    """The all-sources totals one single-source sweep at a time."""
    n = indptr.shape[0] - 1
    total = multi = 0
    for s in range(n):
        dist, sigma = _kernels.bfs_sigma(indptr, indices, s)
        total += int(dist.sum())
        multi += int(np.count_nonzero(sigma > 1.0))
    return total, multi


def _csr(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    indptr = np.cumsum([0] + [len(a) for a in adj]).astype(np.int64)
    return indptr, np.array([w for a in adj for w in sorted(a)], np.int64)


@pytest.mark.parametrize(
    "shape",
    [
        (1, 3),
        (2, 2),
        (3, 2),
        # C4 plus a pendant path, and a graph with two components (-1 distances)
        _csr(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]),
        _csr(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
    ],
)
def test_all_sources_totals_unchanged_by_blocking(monkeypatch, shape):
    indptr, indices = cached_graph(*shape).csr if isinstance(shape[0], int) else shape
    n = indptr.shape[0] - 1
    want = _sweep_totals(indptr, indices)
    for entries in (1 << 20, 3 * n, 1):  # one block, blocks of 3 sources, one source each
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", entries)
        total = _kernels.all_distance_total(indptr, indices)
        assert (total, _kernels.multi_sigma_count(indptr, indices)) == want
