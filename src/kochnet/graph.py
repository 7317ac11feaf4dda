"""Iterative construction of the labeled Koch network K_{m,t}.

The build replays the growth process: start from a triangle on the three
hubs and, at every step, give each vertex of every existing triangle m
groups of two new sons (each group closes a fresh triangle with its
father).  Labels are assigned arithmetically while building so that the
father/companion formulas hold by construction: the children a father
with index f gains at one step occupy the contiguous index block
((f-1)*D, f*D], ordered by the father's triangle list (creation order),
then group number, then the two sons of a group on consecutive odd/even
offsets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .errors import SettingError, SizeCapError, UnknownLabelError
from .labels import Label, format_label

DEFAULT_VERTEX_CAP = 10**7
_CAP_ENV = "KOCH_MAX_VERTICES"

EDGE_HUB_HUB = "hub-hub"
EDGE_COMPANION = "companion"
EDGE_FATHER_CHILD = "father-child"


def vertex_count(m: int, t: int) -> int:
    return 2 * (3 * m + 1) ** t + 1


def edge_count(m: int, t: int) -> int:
    return 3 * (3 * m + 1) ** t


def triangle_count(m: int, t: int) -> int:
    return (3 * m + 1) ** t


@dataclass(frozen=True)
class VertexRecord:
    id: int
    label: Label
    birth_step: int
    father_id: int | None
    companion_id: int | None


@dataclass
class KochGraph:
    """Immutable generated network; safe for concurrent read-only use."""

    m: int
    t: int
    vertices: list[VertexRecord]
    adjacency: list[list[int]]  # sorted neighbor ids
    triangles: list[tuple[int, int, int]]
    label_index: dict[Label, int]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return 3 * len(self.triangles)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def label_of(self, v: int) -> Label:
        return self.vertices[v].label

    def vertex_by_label(self, label: Label) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise UnknownLabelError(
                f"label {format_label(label)} not present in K_{{{self.m},{self.t}}}"
            ) from None

    @cached_property
    def neighbor_sets(self) -> list[set[int]]:
        return [set(nbrs) for nbrs in self.adjacency]

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted ascending."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    out.append((u, v))
        out.sort()
        return out

    @cached_property
    def edge_ids(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form (indptr, indices), int64."""
        degs = np.fromiter((len(a) for a in self.adjacency), np.int64, self.n_vertices)
        indptr = np.zeros(self.n_vertices + 1, np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = np.fromiter(
            (v for nbrs in self.adjacency for v in nbrs), np.int64, int(indptr[-1])
        )
        return indptr, indices

    @cached_property
    def csr_edge_ids(self) -> np.ndarray:
        """Undirected edge id for every CSR slot (parallel to csr indices)."""
        indptr, indices = self.csr
        eids = np.empty(indices.shape[0], np.int64)
        lookup = self.edge_ids
        pos = 0
        for u in range(self.n_vertices):
            for v in self.adjacency[u]:
                eids[pos] = lookup[(u, v) if u < v else (v, u)]
                pos += 1
        return eids

    @cached_property
    def triangle_of_edge(self) -> dict[tuple[int, int], int]:
        """Each edge lies in exactly one triangle; map (u,v) with u<v to its triangle."""
        out: dict[tuple[int, int], int] = {}
        for ti, (a, b, c) in enumerate(self.triangles):
            for u, v in ((a, b), (a, c), (b, c)):
                out[(u, v) if u < v else (v, u)] = ti
        return out

    def edge_class(self, u: int, v: int) -> str:
        ru, rv = self.vertices[u], self.vertices[v]
        if ru.birth_step == 0 and rv.birth_step == 0:
            return EDGE_HUB_HUB
        if ru.companion_id == v:
            return EDGE_COMPANION
        return EDGE_FATHER_CHILD

    # ---- exports -------------------------------------------------------

    def write_edgelist(self, fp: IO[str]) -> None:
        for u, v in self.edges:
            fp.write(f"{u} {v}\n")

    def write_json(self, fp: IO[str]) -> None:
        doc = {
            "m": self.m,
            "t": self.t,
            "vertices": [
                {
                    "id": r.id,
                    "label": format_label(r.label),
                    "birth": r.birth_step,
                    "degree": self.degree(r.id),
                }
                for r in self.vertices
            ],
            "edges": [[u, v] for u, v in self.edges],
        }
        json.dump(doc, fp, separators=(",", ":"))
        fp.write("\n")

    def write_dot(self, fp: IO[str]) -> None:
        fp.write("graph koch {\n")
        for r in self.vertices:
            fp.write(f'  {r.id} [label="{format_label(r.label)}"];\n')
        for u, v in self.edges:
            fp.write(f"  {u} -- {v};\n")
        fp.write("}\n")


def _resolve_cap(max_vertices: int | None) -> int:
    if max_vertices is not None:
        return max_vertices
    env = os.environ.get(_CAP_ENV)
    if not env:
        return DEFAULT_VERTEX_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise SettingError(f"{_CAP_ENV} must be an integer >= 1, got {env!r}")
    return int(env)


def build(m: int, t: int, max_vertices: int | None = None) -> KochGraph:
    """Construct K_{m,t} with canonical labels.

    Raises SizeCapError when 2(3m+1)^t + 1 would exceed the cap
    (default 10^7, overridable via the KOCH_MAX_VERTICES env var or the
    ``max_vertices`` argument).
    """
    if not isinstance(m, int) or not isinstance(t, int) or m < 1 or t < 0:
        raise ValueError(f"need integer m >= 1 and t >= 0, got m={m!r}, t={t!r}")
    cap = _resolve_cap(max_vertices)
    n_final = vertex_count(m, t)
    if n_final > cap:
        raise SizeCapError(
            f"K_{{{m},{t}}} has {n_final} vertices, exceeding the cap of {cap}"
        )

    vertices: list[VertexRecord] = [
        VertexRecord(i, Label(i + 1), 0, None, None) for i in range(3)
    ]
    adjacency: list[list[int]] = [[1, 2], [0, 2], [0, 1]]
    triangles: list[tuple[int, int, int]] = [(0, 1, 2)]
    tri_lists: list[list[int]] = [[0], [0], [0]]

    for step in range(1, t + 1):
        n_existing = len(vertices)
        tri_counts = [len(tri_lists[v]) for v in range(n_existing)]
        for v in range(n_existing):
            rec = vertices[v]
            age = step - rec.birth_step - 1  # full steps the father has already lived
            width = 2 * m * (m + 1) ** age
            bits = rec.label.bits + "0" + "1" * age
            base = 0 if rec.label.is_hub else (rec.label.index - 1) * width
            for tri_pos in range(tri_counts[v]):
                for g in range(m):
                    slot = tri_pos * 2 * m + 2 * g
                    ia = len(vertices)
                    ib = ia + 1
                    la = Label(rec.label.subnet, bits, base + slot + 1)
                    lb = Label(rec.label.subnet, bits, base + slot + 2)
                    vertices.append(VertexRecord(ia, la, step, v, ib))
                    vertices.append(VertexRecord(ib, lb, step, v, ia))
                    adjacency[v].extend((ia, ib))
                    adjacency.append([v, ib])
                    adjacency.append([v, ia])
                    tid = len(triangles)
                    triangles.append((v, ia, ib))
                    tri_lists[v].append(tid)
                    tri_lists.append([tid])
                    tri_lists.append([tid])

    label_index = {rec.label: rec.id for rec in vertices}
    return KochGraph(
        m=m,
        t=t,
        vertices=vertices,
        adjacency=adjacency,
        triangles=triangles,
        label_index=label_index,
    )


def edge_class_counts(graph: KochGraph) -> dict[str, int]:
    counts = {EDGE_HUB_HUB: 0, EDGE_COMPANION: 0, EDGE_FATHER_CHILD: 0}
    for u, v in graph.edges:
        counts[graph.edge_class(u, v)] += 1
    return counts
