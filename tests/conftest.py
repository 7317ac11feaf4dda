"""Shared fixtures: cached builds and slow-but-independent reference oracles.

The reference implementations here deliberately avoid the package's
kernels (plain dict/deque BFS, pair-by-pair counting, a per-vertex build
loop) so that kernel, array and label arithmetic bugs cannot cancel out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from kochnet import Label, build, format_label

_CACHE: dict[tuple[int, int], object] = {}


def cached_graph(m: int, t: int):
    key = (m, t)
    if key not in _CACHE:
        _CACHE[key] = build(m, t)
    return _CACHE[key]


@pytest.fixture
def graph_factory():
    return cached_graph


def laplacian(graph) -> sp.csr_array:
    """Unit-resistor Laplacian D - A of a built graph, float64, canonical CSR."""
    n = graph.n_vertices
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    rows = np.concatenate((u, v, np.arange(n)))
    cols = np.concatenate((v, u, np.arange(n)))
    ones = -np.ones(len(u))
    vals = np.concatenate((ones, ones, graph.degrees.astype(np.float64)))
    return sp.csr_array((vals, (rows, cols)), shape=(n, n))


@dataclass(frozen=True)
class ReferenceVertex:
    id: int
    label: Label
    birth_step: int
    father_id: int | None
    companion_id: int | None


def reference_build(m: int, t: int) -> tuple[list[ReferenceVertex], list[tuple[int, int, int]]]:
    """Vertices and triangles of K_{m,t}, grown one vertex at a time in plain Python."""
    vertices: list[ReferenceVertex] = [
        ReferenceVertex(i, Label(i + 1), 0, None, None) for i in range(3)
    ]

    for step in range(1, t + 1):
        n_existing = len(vertices)
        for v in range(n_existing):
            rec = vertices[v]
            age = step - rec.birth_step - 1  # full steps the father has already lived
            # the father sits in (m+1)^age triangles and gives each m groups of two sons
            width = 2 * m * (m + 1) ** age
            bits = rec.label.bits + "0" + "1" * age
            base = 0 if rec.label.is_hub else (rec.label.index - 1) * width
            for slot in range(0, width, 2):
                ia = len(vertices)
                ib = ia + 1
                la = Label(rec.label.subnet, bits, base + slot + 1)
                lb = Label(rec.label.subnet, bits, base + slot + 2)
                vertices.append(ReferenceVertex(ia, la, step, v, ib))
                vertices.append(ReferenceVertex(ib, lb, step, v, ia))

    triangles = [(0, 1, 2)] + [(r.father_id, r.id, r.id + 1) for r in vertices[3::2]]
    return vertices, triangles


def reference_edge_class(vertices: list[ReferenceVertex], u: int, v: int) -> str:
    """Class of edge (u, v), u < v, read off the reference records."""
    ru, rv = vertices[u], vertices[v]
    if ru.birth_step == 0 and rv.birth_step == 0:
        return "hub-hub"
    if ru.companion_id == v:
        return "companion"
    return "father-child"


def reference_write_edgelist(graph, fp) -> None:
    """The exports as one ``Label`` and one ``fp.write`` per row, the reference for the chunked writers."""
    for u, v in graph.edges.tolist():
        fp.write(f"{u} {v}\n")


def reference_write_json(graph, fp) -> None:
    fp.write(f'{{"m":{graph.m},"t":{graph.t},"vertices":[')
    rows = zip(graph.labels, graph.birth.tolist(), graph.degrees.tolist())
    sep = ""
    for v, (label, birth, degree) in enumerate(rows):
        fp.write(f'{sep}{{"id":{v},"label":"{format_label(label)}","birth":{birth},"degree":{degree}}}')
        sep = ","
    fp.write('],"edges":[')
    sep = ""
    for u, v in graph.edges.tolist():
        fp.write(f"{sep}[{u},{v}]")
        sep = ","
    fp.write("]}\n")


def reference_write_dot(graph, fp) -> None:
    fp.write("graph koch {\n")
    for v, label in enumerate(graph.labels):
        fp.write(f'  {v} [label="{format_label(label)}"];\n')
    for u, v in graph.edges.tolist():
        fp.write(f"  {u} -- {v};\n")
    fp.write("}\n")


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
