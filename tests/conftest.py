"""Shared fixtures: cached builds and slow-but-independent reference oracles.

The reference implementations here deliberately avoid the package's
kernels (plain dict/deque BFS, pair-by-pair counting, a per-vertex build
loop, a labels suite with one ``Label`` per vertex, a route that climbs
one father formula per hop, writers that format one row at a time) so
that kernel, array and label arithmetic bugs cannot cancel out.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np
import pytest
import scipy.sparse as sp

from kochnet import Label, build, centrality, children, companion, electrical, father, format_label, verify
from kochnet import graph as graph_module
from kochnet import labels as labels_module
from kochnet import routing as routing_module
from kochnet.analytics import delta_v
from kochnet.graph import EDGE_CLASSES, edge_class_ids, edge_count, triangle_count, vertex_count
from kochnet.labels import l_max, validate_in_graph

_CACHE: dict[tuple[int, int], object] = {}


def cached_graph(m: int, t: int):
    key = (m, t)
    if key not in _CACHE:
        _CACHE[key] = build(m, t)
    return _CACHE[key]


@pytest.fixture
def graph_factory():
    return cached_graph


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during ``call()`` (numpy reports its arrays)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def laplacian(graph) -> sp.csr_array:
    """Unit-resistor Laplacian D - A of a built graph, float64, canonical CSR."""
    n = graph.n_vertices
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    rows = np.concatenate((u, v, np.arange(n)))
    cols = np.concatenate((v, u, np.arange(n)))
    ones = -np.ones(len(u))
    vals = np.concatenate((ones, ones, graph.degrees.astype(np.float64)))
    return sp.csr_array((vals, (rows, cols)), shape=(n, n))


def all_labels(graph) -> list[Label]:
    """The label of every vertex in id order, each made by the checking constructor from the label arrays."""
    codes = ((1 << graph.birth.astype(np.int64)) | graph.bits).tolist()  # a leading 1 keeps the bits' zeros
    rows = zip(graph.subnet.tolist(), codes, graph.index.tolist())
    return [Label(subnet, bin(code)[3:], index or None) for subnet, code, index in rows]


def adjacency(graph) -> list[list[int]]:
    """Sorted neighbour ids of every vertex, as Python lists, from the CSR arrays."""
    return csr_lists(*graph.csr)


def csr_lists(indptr, indices) -> list[list[int]]:
    """The rows of a CSR adjacency as Python lists."""
    flat, bounds = indices.tolist(), indptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.fixture
def label_count(monkeypatch):
    """``label_count()`` is the number of ``Label``s made so far in the test, checked or derived."""
    made = [0]
    new, derived = Label.__new__, labels_module._derived

    def counted_new(cls, *fields, **named):
        made[0] += 1
        return new(cls, *fields, **named)

    def counted_derived(*fields):
        made[0] += 1
        return derived(*fields)

    monkeypatch.setattr(Label, "__new__", counted_new)
    for module in (labels_module, graph_module):
        monkeypatch.setattr(module, "_derived", counted_derived)
    return lambda: made[0]


def _reference_widths(m: int, t: int) -> tuple[int, ...]:
    """Child-block widths 2m(m+1)^k for k = 0..t-1 (k is the father's age at the child's birth)."""
    return tuple(2 * m * (m + 1) ** k for k in range(t))


def _reference_father_step(widths: tuple[int, ...], bits: str, index: int) -> tuple[str, int | None]:
    """The father formula on plain fields: (bits, index) of a non-hub vertex to its father's.

    ``widths`` is ``_reference_widths(m, b)`` for any b >= len(bits); a hub
    father is ("", None).
    """
    j = bits.rfind("0")  # 0-based position of the rightmost 0
    if j == 0:
        return "", None
    return bits[:j], -(-index // widths[len(bits) - 1 - j])


def reference_route(m: int, t: int, a: Label, b: Label) -> routing_module.RoutePath:
    """``routing.route`` with one father step per hop on plain (bits, index) pairs, each
    hop made by the checking ``Label`` constructor: the oracle for the class-table climb.
    """
    validate_in_graph(m, t, a)
    validate_in_graph(m, t, b)
    if a == b:
        return routing_module.RoutePath((a,), 0)

    # the ancestor chains as (bits, index), from the vertex up to its hub ("", None)
    widths = _reference_widths(m, max(len(a.bits), len(b.bits)))
    chain_a, chain_b = [(a.bits, a.index)], [(b.bits, b.index)]
    for chain in (chain_a, chain_b):
        bits, index = chain[0]
        while bits:
            bits, index = _reference_father_step(widths, bits, index)
            chain.append((bits, index))
    ops = (len(chain_a) - 1) + (len(chain_b) - 1)
    i, j = len(chain_a) - 1, len(chain_b) - 1  # the last hop taken from each chain

    if a.subnet == b.subnet:
        # scan from the hub end for the deepest common vertex
        while i >= 0 and j >= 0 and chain_a[i] == chain_b[j]:
            i -= 1
            j -= 1
        i += 1  # keep the splice vertex on a's side
        if i >= 1 and j >= 0:
            ops += 1
            (bits, l), (bits_b, l_b) = chain_a[i - 1], chain_b[j]
            if bits == bits_b and l_b == (l + 1 if l % 2 == 1 else l - 1):
                # companions: splice the two sibling subtrees directly, skip their father
                i -= 1

    hops = [a] + [Label(a.subnet, bits, index) for bits, index in chain_a[1 : i + 1]]
    if j >= 0:  # j = -1 when b itself is the splice vertex
        hops += [Label(b.subnet, bits, index) for bits, index in chain_b[j:0:-1]]
        hops.append(b)
    return routing_module.RoutePath(tuple(hops), ops)


@dataclass(frozen=True)
class NeighborPartition:
    """Neighbor labels split by degree relative to the vertex."""

    equal: frozenset[Label]
    lower: frozenset[Label]
    higher: frozenset[Label]

    def as_set(self) -> set[Label]:
        return set(self.equal) | set(self.lower) | set(self.higher)

    def __len__(self) -> int:
        return len(self.equal) + len(self.lower) + len(self.higher)


def neighbor_partition(m: int, t: int, label: Label) -> NeighborPartition:
    """Full neighbor set of the vertex, from label arithmetic alone.

    Non-hub: equal = {companion}, lower = children, higher = {father}.
    Hubs have the two other hubs as their equal-degree neighbors and no
    higher-degree neighbor.
    """
    validate_in_graph(m, t, label)
    lower = frozenset(children(m, t, label))
    if label.is_hub:
        equal = frozenset(Label(n) for n in (1, 2, 3) if n != label.subnet)
        higher: frozenset[Label] = frozenset()
    else:
        equal = frozenset((companion(label),))
        higher = frozenset((father(m, label),))
    return NeighborPartition(equal=equal, lower=lower, higher=higher)


def _bit_strings(length: int) -> Iterator[str]:
    # all valid strings of one length: leading 0, rest free
    for k in range(1 << (length - 1)):
        yield "0" + format(k, f"0{length - 1}b") if length > 1 else "0"


def enumerate_labels(m: int, t: int) -> set[Label]:
    """The complete label set of K_{m,t} (hubs plus every per-step class)."""
    if m < 1 or t < 0:
        raise ValueError(f"need m >= 1 and t >= 0, got m={m}, t={t}")
    out: set[Label] = {Label(1), Label(2), Label(3)}
    for j in range(1, t + 1):
        for bits in _bit_strings(j):
            bound = l_max(m, bits)
            for n in (1, 2, 3):
                for l in range(1, bound + 1):
                    out.add(Label(n, bits, l))
    return out


def batch_hops(batch: routing_module.RouteBatch) -> np.ndarray:
    """A ``RouteBatch``'s routes as one int64 (pairs, 2t + 2) matrix of label keys.

    Row p holds hops 0..length[p], then -1: a's half from ``chains``, then
    b's half read back down to b.
    """
    width = batch.chains.shape[1]
    k = np.arange(2 * width)  # hop columns
    padded = np.full((len(batch.chains), len(k)), -1, np.int64)  # column `width` on is -1
    padded[:, :width] = batch.chains
    back = batch.length[:, None] - k  # the column of b's chain at hop k, past a's hops
    from_b = np.take_along_axis(
        padded[batch.b_row], np.where((back >= 0) & (back < width), back, width), axis=1
    )
    return np.where(k < batch.a_hops[:, None], padded[batch.a_row], from_b)


def corner_pair_ends(graph) -> list[tuple[int, int]]:
    """The edge (u, v), u < v, at each corner-pair position 3k + j, read from the triangle table row by row."""
    return [pair for f, a, b in graph.triangles.tolist() for pair in ((f, a), (f, b), (a, b))]


def verify_path_in_graph(graph, path: routing_module.RoutePath) -> bool:
    """Every consecutive hop pair must be an edge of the graph."""
    ids = np.array([graph.vertex_by_label(hop) for hop in path.hops], np.int64)
    return bool(np.all(graph.corner_pair(ids[:-1], ids[1:]) >= 0))


def reference_labels_suite(graph) -> list:
    """``verify.labels_suite`` one ``Label`` at a time: the enumerated label set, and each
    vertex's label-arithmetic neighbours against its adjacency list.

    ``neighbor_partition`` raises ``LabelFormatError`` on a label whose index exceeds l_max.
    """
    m, t = graph.m, graph.t
    check = verify._check
    out = []
    n, e, tri = graph.n_vertices, len(graph.edges), len(graph.triangles)
    out.append(
        check(
            "labels/order-size",
            "vertex/edge/triangle counts match the closed forms",
            (n, e, tri) == (vertex_count(m, t), edge_count(m, t), triangle_count(m, t)),
            f"N={n} E={e} T={tri}",
        )
    )

    seen: dict[tuple[int, int], int] = {}
    for a, b, c in graph.triangles.tolist():
        for u, v in ((a, b), (a, c), (b, c)):
            seen[(min(u, v), max(u, v))] = seen.get((min(u, v), max(u, v)), 0) + 1
    edges = set(map(tuple, graph.edges.tolist()))
    out.append(
        check(
            "labels/edge-triangle",
            "every edge belongs to exactly one triangle",
            set(seen) == edges and all(v == 1 for v in seen.values()),
            f"covered={len(seen)}",
        )
    )

    enum = enumerate_labels(m, t)
    labels = all_labels(graph)
    out.append(
        check(
            "labels/bijection",
            "enumerated label set equals the built vertex labels, no duplicates",
            enum == set(labels) and len(enum) == n and len(set(labels)) == n,
            f"|labels|={len(enum)}",
        )
    )

    bad = 0
    witness = ""
    for label, nbrs in zip(labels, adjacency(graph)):
        part = neighbor_partition(m, t, label)
        adj_labels = {labels[w] for w in nbrs}
        if part.as_set() != adj_labels or len(part) != len(adj_labels):
            bad += 1
            witness = witness or str(label)
    out.append(
        check(
            "labels/partition",
            "companion+children+father from arithmetic equal the adjacency list, all vertices",
            bad == 0,
            f"vertices={n} mismatches={bad}" + (f" first={witness}" if witness else ""),
        )
    )

    fathers = graph.father_of(np.arange(3, n)).tolist()
    bad = sum(father(m, labels[v]) != labels[f] for v, f in enumerate(fathers, start=3))
    out.append(
        check(
            "labels/father-blocks",
            "father formula inverts the child-block assignment for every non-hub",
            bad == 0,
            f"mismatches={bad}",
        )
    )

    bad = sum(d != 2 * (m + 1) ** (t - b) for d, b in zip(graph.degrees.tolist(), graph.birth.tolist()))
    out.append(
        check("labels/degree-formula", "every degree equals 2(m+1)^(t-birth)", bad == 0, f"mismatches={bad}")
    )

    ok = True
    for j in range(1, t + 1):
        patterns = ["0" + format(k, f"0{j - 1}b") if j > 1 else "0" for k in range(1 << (j - 1))]
        ok &= 3 * sum(l_max(m, bits) for bits in patterns) == delta_v(m, j)
    out.append(
        check(
            "labels/index-space",
            "per-step index space sums to the per-step growth 6m(3m+1)^(j-1)",
            ok,
        )
    )
    return out


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
    rows = zip(all_labels(graph), graph.birth.tolist(), graph.degrees.tolist())
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
    for v, label in enumerate(all_labels(graph)):
        fp.write(f'  {v} [label="{format_label(label)}"];\n')
    for u, v in graph.edges.tolist():
        fp.write(f"  {u} -- {v};\n")
    fp.write("}\n")


def reference_betweenness(graph, mode: str, edges: bool) -> None:
    """``kochnet betweenness`` on stdout with one ``%`` row template per row, the reference for
    the byte-column CSV writer."""
    report = None if mode == "formula" else centrality.centrality_report(graph)
    columns = {}
    if report is not None:
        columns["exact"] = report.edge if edges else report.vertex
    if mode != "exact":
        steps = centrality.edge_steps(graph) if edges else graph.birth
        for name, forms in centrality.step_forms(graph.m, graph.t, edges).items():
            columns[name] = centrality.per_element(forms, steps)

    texts = [format_label(graph.label_of(v)) for v in range(graph.n_vertices)]
    if edges:
        # the values are by corner-pair position; the rows go out sorted by their ends
        head, prefix = "u,v,class", "%s,%s,%s"
        ends = corner_pair_ends(graph)
        order = np.array(sorted(range(len(ends)), key=ends.__getitem__), np.int64)
        classes = edge_class_ids(graph)

        def cells(at):
            u, v = zip(*map(ends.__getitem__, at.tolist()))
            names = map(EDGE_CLASSES.__getitem__, classes[at].tolist())
            return map(texts.__getitem__, u), map(texts.__getitem__, v), names
    else:
        head, prefix = "label,birth,degree", "%s,%d,%d"
        order = np.arange(graph.n_vertices)

        def cells(at):
            return map(texts.__getitem__, at.tolist()), graph.birth[at].tolist(), graph.degrees[at].tolist()

    sys.stdout.write(",".join([head, *columns]) + "\n")
    row = prefix + ",%r" * len(columns) + "\n"
    values = zip(*cells(order), *(column[order].tolist() for column in columns.values()))
    sys.stdout.write("".join([row % cell for cell in values]))
    if mode == "compare":
        print(json.dumps(report.audit(), separators=(",", ":")))


def reference_cfb(graph) -> None:
    """``kochnet electrical --cfb`` on stdout with one f-string per row."""
    values = electrical.current_flow_betweenness(graph)
    texts = [format_label(graph.label_of(v)) for v in range(graph.n_vertices)]
    sys.stdout.write("label,current_flow_betweenness\n")
    cells = zip(texts, values.tolist())
    sys.stdout.write("".join([f"{text},{value!r}\n" for text, value in cells]))


def chain_splits(graph, field, source, target) -> list[tuple[float, float, float]]:
    """Each route triangle's shares of the pair current: (direct edge, detour edge, detour edge).

    Read from a unit-current field's edge currents along the label route
    from source to target, so each current is its share; each hop's third
    corner is the one vertex adjacent to both of its ends.
    """
    adj = [set(row) for row in adjacency(graph)]
    path = routing_module.route(graph.m, graph.t, graph.label_of(source), graph.label_of(target))
    ids = [graph.vertex_by_label(h) for h in path.hops]
    current = np.abs(field.edge_currents)
    splits = []
    for u, v in zip(ids, ids[1:]):
        (w,) = adj[u] & adj[v]
        splits.append(tuple(float(current[graph.corner_pair(a, b)]) for a, b in ((u, v), (u, w), (v, w))))
    return splits


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


def python_extra_parents(adjacency, sources):
    """Over the distinct sources, the sum of parents(v) - 1 for every vertex v != s that s reaches.

    A parent of v is a neighbour one step nearer s, by the ``python_bfs_sigma``
    distances; the sum is 0 exactly when every such v has one shortest path
    from s.  No numpy.
    """
    extra = 0
    for s in set(sources):
        dist, _ = python_bfs_sigma(adjacency, s)
        for v, d in dist.items():
            if v != s:
                extra += sum(1 for w in adjacency[v] if dist.get(w) == d - 1) - 1
    return extra


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
