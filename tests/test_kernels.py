"""The numpy kernels and the structural betweenness counts against
plain-Python references that share no code with them (dict/deque BFS,
exact ``Fraction`` dependency accumulation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kochnet import _kernels
from kochnet.centrality import betweenness_counts
from kochnet.routing import bfs_distances

from conftest import (
    adjacency,
    cached_graph,
    corner_pair_ends,
    csr_lists,
    python_betweenness,
    python_bfs,
    python_bfs_sigma,
    python_extra_parents,
)

GRAPHS = [(1, 2), (2, 2), (1, 3)]


@pytest.mark.parametrize("m,t", GRAPHS)
def test_bfs_matches_python(m, t):
    # the single-source oracle: one packed-bit sweep from the source to every vertex
    graph = cached_graph(m, t)
    for source in (0, 3, graph.n_vertices - 1):
        dist = bfs_distances(graph, source)
        ref = python_bfs(adjacency(graph), source)
        assert dist.tolist() == [ref[v] for v in range(graph.n_vertices)]


@pytest.mark.parametrize("m,t", GRAPHS)
def test_sigma_matches_python(m, t):
    # one sweep gives the distances and the extra BFS parents, which are 0 on a Koch network
    graph = cached_graph(m, t)
    n = graph.n_vertices
    adj = adjacency(graph)
    for source in (0, 5):
        dist, extra = _kernels.pair_distances(*graph.csr, [source] * n, np.arange(n))
        ref_d, ref_s = python_bfs_sigma(adj, source)
        assert dist.tolist() == [ref_d[v] for v in range(n)]
        assert extra == python_extra_parents(adj, [source]) == 0
        assert set(ref_s.values()) == {1}


@pytest.mark.parametrize("m,t", GRAPHS)
def test_distance_total_matches_python(m, t):
    graph = cached_graph(m, t)
    indptr, indices = graph.csr
    total = 0
    multi = 0
    adj = adjacency(graph)
    for s in range(graph.n_vertices):
        ref_d, ref_s = python_bfs_sigma(adj, s)
        total += sum(ref_d.values())
        multi += sum(1 for c in ref_s.values() if c > 1)
    assert _kernels.all_distance_total(indptr, indices) == total
    sources = np.arange(graph.n_vertices)  # each swept to its last level, whatever its one target
    _, extra = _kernels.pair_distances(indptr, indices, sources, np.zeros_like(sources))
    assert extra == python_extra_parents(adj, sources.tolist()) == multi == 0


@pytest.mark.parametrize("m,t", GRAPHS)
def test_betweenness_totals_match_python(m, t):
    graph = cached_graph(m, t)
    vertex, edge = betweenness_counts(graph)
    ref_v, ref_e = python_betweenness(adjacency(graph))
    # shortest paths are unique, so every reference total is a whole number of pairs
    assert all(x.denominator == 1 for x in [*ref_v, *ref_e.values()])
    assert vertex.dtype == edge.dtype == np.int64
    assert vertex.tolist() == [int(x) for x in ref_v]
    assert sorted(ref_e) == list(map(tuple, graph.edges.tolist()))
    assert edge.tolist() == [int(ref_e[e]) for e in corner_pair_ends(graph)]


def test_multi_sigma_detects_square():
    # C4 has two shortest paths between opposite corners: the far corner has two parents,
    # one extra per distinct source, whichever targets the pairs name
    indptr = np.array([0, 2, 4, 6, 8], np.int64)
    indices = np.array([1, 3, 0, 2, 1, 3, 0, 2], np.int64)
    adj = csr_lists(indptr, indices)
    dist, extra = _kernels.pair_distances(indptr, indices, np.arange(4), [2, 3, 0, 1])
    assert dist.tolist() == [2, 2, 2, 2] and extra == python_extra_parents(adj, range(4)) == 4
    assert _kernels.pair_distances(indptr, indices, [2, 0, 2], [0, 1, 1])[1] == 2  # two distinct sources
    dist, extra = _kernels.pair_distances(indptr, indices, [], [])
    assert dist.tolist() == [] and extra == 0


def _chord_graph():
    """K(1,2) with one extra edge across a distance-3 pair, which closes a 4-cycle, as CSR."""
    graph = cached_graph(1, 2)
    far = int(np.flatnonzero(bfs_distances(graph, 3) == 3)[0])
    return _csr(graph.n_vertices, [*map(tuple, graph.edges.tolist()), (3, far)])


@pytest.mark.parametrize("shape", ["square", "chord"])
@pytest.mark.parametrize("entries", [1 << 20, 1])  # one block, or blocks of 64 sources
def test_multi_sigma_pairs_match_python_sigma(monkeypatch, shape, entries):
    # the extra-parent count of graphs with more than one shortest path between some pairs
    indptr, indices = _csr(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) if shape == "square" else _chord_graph()
    n = indptr.shape[0] - 1
    adj = csr_lists(indptr, indices)
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(7)
    # every vertex; a shuffled half; 150 drawn with repeats, each counted once
    for sources in (np.arange(n), rng.permutation(n)[: n // 2], rng.integers(0, n, 150)):
        want = python_extra_parents(adj, sources.tolist())
        assert want > 0
        assert _kernels.pair_distances(indptr, indices, sources, rng.integers(0, n, len(sources)))[1] == want


def _blocks(n, rows):
    return [np.arange(s, min(s + rows, n)) for s in range(0, n, rows)]


def _every_pair(sources, n):
    """(src, dst) over every (source, vertex) pair, source by source."""
    return np.repeat(sources, n), np.tile(np.arange(n), len(sources))


def _python_row(indptr, indices, s):
    """Distances (-1 if unreachable) from source s, by the Python BFS."""
    dist = python_bfs(csr_lists(indptr, indices), s)
    return [dist.get(v, -1) for v in range(indptr.shape[0] - 1)]


@pytest.mark.parametrize("m,t", GRAPHS)
def test_pair_distances_match_single_source_rows(m, t):
    graph = cached_graph(m, t)
    indptr, indices = graph.csr
    n = graph.n_vertices
    rows = 7 if n % 7 else 11  # blocks that do not divide N
    for block in _blocks(n, rows):
        src, dst = _every_pair(block, n)
        dist, extra = _kernels.pair_distances(indptr, indices, src, dst)
        assert dist.shape == (len(block) * n,)
        assert extra == python_extra_parents(csr_lists(indptr, indices), block.tolist())
        for r, s in enumerate(block.tolist()):
            assert dist[r * n : (r + 1) * n].tolist() == _python_row(indptr, indices, s)


def _sweep_totals(indptr, indices):
    """The all-sources distance total and extra-parent count, one Python BFS at a time."""
    n = indptr.shape[0] - 1
    total = sum(sum(_python_row(indptr, indices, s)) for s in range(n))
    return total, python_extra_parents(csr_lists(indptr, indices), range(n))


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
        _, extra = _kernels.pair_distances(indptr, indices, np.arange(n), np.zeros(n, np.int64))
        assert (total, extra) == want


@st.composite
def _graphs(draw):
    """A random simple graph as CSR, often with isolated vertices; half the time the last one is."""
    n = draw(st.integers(1, 150))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=n // 2, max_size=3 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    if draw(st.booleans()):  # a trailing isolated vertex: its CSR row starts at len(indices)
        edges = {(u, v) for u, v in edges if v != n - 1}
    return _csr(n, sorted(edges))


@settings(max_examples=80, deadline=None)
@given(_graphs(), st.sampled_from([1, 63, 64, 65, 130]), st.data())
def test_pair_distances_match_single_source_sweeps(csr, k, data):
    # k sources with repeats, every (source, vertex) pair in a shuffled order; more than 64
    # distinct sources take several words of one block, or with one word per block split into
    # blocks of 64 whose last ends inside a word
    indptr, indices = csr
    n = indptr.shape[0] - 1
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    entries = data.draw(st.sampled_from([1 << 20, 1]))
    src, dst = _every_pair(sources, n)
    order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(src))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_BLOCK_ENTRIES", entries)
        dist, extra = _kernels.pair_distances(indptr, indices, src[order], dst[order])
    dist[order] = dist.copy()
    dist = dist.reshape(k, n)
    for r, s in enumerate(sources):
        assert dist[r].tolist() == _python_row(indptr, indices, s)
    assert extra == python_extra_parents(csr_lists(indptr, indices), sources)  # a repeated source counts once


@pytest.mark.parametrize("entries", [1, 2 * 129, 1 << 20])
def test_pair_distances_in_source_blocks(monkeypatch, entries):
    # K(1,3) has N = 129: blocks of 64 and of 128 sources end inside a word, or one block takes all
    graph = cached_graph(1, 3)
    indptr, indices = graph.csr
    rng = np.random.default_rng(5)
    src, dst = rng.integers(0, 129, 5000), rng.integers(0, 129, 5000)
    rows = {s: python_bfs(adjacency(graph), s) for s in set(src.tolist())}
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", entries)
    assert _kernels.pair_distances(indptr, indices, src, dst)[0].tolist() == [
        rows[s][v] for s, v in zip(src.tolist(), dst.tolist())
    ]


def test_pair_distances_trailing_isolated_vertex():
    indptr, indices = _csr(5, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4 and vertex 4 alone
    dist, extra = _kernels.pair_distances(indptr, indices, *_every_pair([0, 4], 5))
    assert dist.tolist() == [0, 1, 2, 1, -1] + [-1, -1, -1, -1, 0]
    assert extra == python_extra_parents(csr_lists(indptr, indices), [0, 4]) == 1  # vertex 2 from 0


def test_multi_flag_from_slots_apart_in_their_row():
    # from 3, vertex 4 is reached through 0 and 2, which are not next to each other in its row
    indptr, indices = _csr(5, [(3, 0), (3, 2), (4, 0), (4, 1), (4, 2)])
    dist, extra = _kernels.pair_distances(indptr, indices, *_every_pair([3], 5))
    assert dist.tolist() == [1, 3, 1, 0, 2]
    # vertex 4 has two parents; vertex 1, below it, has one, so it adds no extra
    assert extra == python_extra_parents(csr_lists(indptr, indices), [3]) == 1
