"""Shared fixtures: cached builds and slow-but-independent reference oracles.

The reference implementations here deliberately avoid the package's
kernels (plain dict/deque BFS, pair-by-pair counting) so that kernel and
label arithmetic bugs cannot cancel out.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import pytest

from kochnet import build

_CACHE: dict[tuple[int, int], object] = {}


def cached_graph(m: int, t: int):
    key = (m, t)
    if key not in _CACHE:
        _CACHE[key] = build(m, t)
    return _CACHE[key]


@pytest.fixture
def graph_factory():
    return cached_graph


def python_bfs(adjacency, source):
    """Plain BFS over adjacency lists; returns the distance dict."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def python_bfs_sigma(adjacency, source):
    """BFS with shortest-path counts, no numpy."""
    dist = {source: 0}
    sigma = {source: 1}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                sigma[w] = 0
                queue.append(w)
            if dist[w] == dist[u] + 1:
                sigma[w] += sigma[u]
    return dist, sigma


def python_betweenness(adjacency):
    """Unordered-pair betweenness by explicit dependency accumulation.

    Returns (per-vertex list, per-edge dict keyed by (u, v) with u < v);
    edge values count the pairs that end at an endpoint of the edge.
    """
    n = len(adjacency)
    cb = [Fraction(0)] * n
    eb: dict[tuple[int, int], Fraction] = {}
    for s in range(n):
        dist = {s: 0}
        sigma = {s: 1}
        preds: dict[int, list[int]] = {s: []}
        order = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    sigma[w] = 0
                    preds[w] = []
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = {v: Fraction(0) for v in order}
        for w in reversed(order):
            for v in preds[w]:
                c = Fraction(sigma[v], sigma[w]) * (1 + delta[w])
                delta[v] += c
                edge = (v, w) if v < w else (w, v)
                eb[edge] = eb.get(edge, Fraction(0)) + c
            if w != s:
                cb[w] += delta[w]
    return [x / 2 for x in cb], {e: x / 2 for e, x in eb.items()}
