"""Iterative construction of the labeled Koch network K_{m,t}.

The build replays the growth process: start from a triangle on the three
hubs and, at every step, give each vertex of every existing triangle m
groups of two new sons (each group closes a fresh triangle with its
father).  Label positions are assigned arithmetically while building so the
father/companion formulas hold by construction: the children a father
with index f gains at one step occupy the contiguous index block
((f-1)*D, f*D], ordered by the father's triangle list (creation order),
then group number, then the two sons of a group on consecutive odd/even
offsets.  Each growth step is a handful of numpy operations over the
existing vertices, so a vertex is an id into four narrow arrays: int8
``birth`` and ``subnet``, and int32 ``bits`` (the growth bits as a binary
number of ``birth`` digits) and ``index`` (0 for a hub).  These arrays are
the only stored form of the labels: ``label_of`` makes one ``Label`` when
asked for.
``label_keys`` packs the four fields into one int64 key per label, and
``vertex_by_label`` and ``vertex_by_label_key`` map labels and keys back
to ids by arithmetic, as each (subnet, bits) class is one contiguous id
range.
Every bulk text output (the three exports here and the CLI's CSVs) is
formatted from the arrays too, with no ``Label`` and no Python string per
row: ``_text_rows`` lays out ``_EXPORT_ROWS`` rows at a time as one byte
matrix, the constant texts as a template row repeated down it, and every
other column writes its own slice: decimal digits, or whole texts from a
small block (a label's subnet, bits and '.' by label code).  A NUL byte
marks a place that a row drops (a leading zero, a hub's '.' and index),
and the chunk is read out by dropping every NUL in one pass.

The triangle table is the one stored edge structure: an int32 (T, 3)
array whose row 0 is the hubs (0, 1, 2) and whose row k >= 1 is
(father, 2k+1, 2k+2), because the sons of the k-th triangle are created
together as ids 2k+1 and 2k+2.  Every edge lies in exactly one triangle,
so edge (u, v) lies in triangle (max(u, v) - 1) // 2; the father of a
vertex v >= 3 is the first corner of row (v - 1) // 2, and its companion
is the other son of that row.  That position 3k + j among row k's corner
pairs is the one edge id, found by arithmetic (``corner_pair``): every
per-edge array is indexed by it; the sorted ``edges`` order the exports.
They, the degrees, CSR adjacency, corner parts and the Laplacian's one
LDL^T factor (``CactusLDL``, on numpy alone) are derived and cached.

The graph is a cactus of triangles: triangles meet only at vertices, so
removing a triangle's edges splits the graph into the parts that hang at
its three corners (``corner_parts``).  Those sizes give the exact
betweenness counts, current-flow betweenness and the all-pairs distance
total in O(N); the blocked BFS sum ``bfs_distance_total`` is kept as the
total's oracle.

Ids are int32 in every stored array (the triangle table, ``edges``, the
CSR ``indices``), so ``build`` refuses N >= 2^31 before it allocates.
Keys (label, pair and edge ``u * N + v``), corner-pair positions,
degrees and counts are int64: a narrow id is widened first.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from . import _kernels
from .errors import LabelDomainError, LabelFormatError, SettingError, SizeCapError, UnknownLabelError
from .labels import Label, _derived, format_label, validate_in_graph

DEFAULT_VERTEX_CAP = 10**7
_CAP_ENV = "KOCH_MAX_VERTICES"
ID_LIMIT = 1 << 31  # vertex ids are int32: ``build`` refuses N at or above this, whatever the cap
# vertices or edges formatted per write: a chunk's byte matrix (about 0.5 MB) stays in the
# L2 cache and is reused from the heap, while chunks of many MB take fresh pages each write
_EXPORT_ROWS = 1 << 13

EDGE_HUB_HUB = "hub-hub"
EDGE_COMPANION = "companion"
EDGE_FATHER_CHILD = "father-child"
EDGE_CLASSES = (EDGE_HUB_HUB, EDGE_COMPANION, EDGE_FATHER_CHILD)


def vertex_count(m: int, t: int) -> int:
    return 2 * (3 * m + 1) ** t + 1


def edge_count(m: int, t: int) -> int:
    return 3 * (3 * m + 1) ** t


def triangle_count(m: int, t: int) -> int:
    return (3 * m + 1) ** t


def _label_codes(t: int, subnet, birth, bits) -> np.ndarray:
    """A label's subnet and bit string in one int64: (subnet << (t+1)) | (1 << birth) | bits.

    The bit string goes in behind a leading 1, so its length is kept.
    """
    return (np.asarray(subnet, np.int64) << (t + 1)) | (1 << np.asarray(birth, np.int64)) | bits


def label_keys(m: int, t: int, subnet, birth, bits, index) -> np.ndarray:
    """One int64 key per label of K_{m,t}, from its four fields (ints or equal-shaped arrays).

    The index, at most (2m)^t, fills the low digits of the label's code:
    distinct labels get distinct keys.
    """
    return _label_codes(t, subnet, birth, bits) * ((2 * m) ** t + 1) + index


def _son_ids(rows: slice) -> tuple[slice, slice]:
    """The ids of the two sons of triangle rows ``rows``, as slices: row k's are 2k+1 and 2k+2.

    Row 0's are hubs 1 and 2.
    """
    return slice(2 * rows.start + 1, 2 * rows.stop, 2), slice(2 * rows.start + 2, 2 * rows.stop + 1, 2)


# A text column is a str, the same text in every row, or a pair (width, fill): ``fill(out)``
# writes every byte of ``out``, the column's (rows, width) slice of a chunk's byte matrix,
# with a NUL (byte 0) in each place that the row drops.


def _ascii(text: str) -> bytes:
    """The bytes of an ASCII text; ``ValueError`` if it holds a NUL, the byte that marks a dropped place."""
    if "\0" in text:
        raise ValueError("no text may hold a NUL byte: it marks a place that a row drops")
    return text.encode("ascii")


def _block(texts) -> np.ndarray:
    """The texts as the rows of a uint8 block as wide as the longest (at least 1), left-aligned and NUL-padded."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    block = np.zeros((len(texts), int(lengths.max(initial=1))), np.uint8)
    block[np.arange(block.shape[1]) < lengths[:, None]] = np.frombuffer(_ascii("".join(texts)), np.uint8)
    return block


def _table(block: np.ndarray, which) -> tuple:
    """Row r is row ``which[r]`` of a ``_block``, copied whole, as one item of the block's width."""
    items = block.view(f"V{block.shape[1]}")[:, 0]
    return block.shape[1], lambda out: np.copyto(out.view(items.dtype)[:, 0], items[which])


def _decimal(values, omit_zero: bool = False) -> tuple:
    """Ints in [0, 2^32) as decimal digits, right-aligned: a leading zero is NUL.

    A value out of that range raises ``ValueError``.  With ``omit_zero`` a 0
    has no digit at all (a hub's index).  The digits are made in uint32,
    one place at a time, and each place is written into its byte column.
    """
    values = np.asarray(values)
    low, top = (int(values.min()), int(values.max())) if values.size else (0, 0)
    if low < 0 or top >> 32:
        raise ValueError("decimal digits are made for values in [0, 2^32) only")
    width = len(str(top))
    kept = len(str(low)) if low or not omit_zero else 0  # the low places that every row has a digit in

    def fill(out):
        rest = values.astype(np.uint32)
        for col in range(width - 1, -1, -1):
            quotient = rest // 10
            digit = (rest - 10 * quotient).astype(np.uint8)
            digit |= 48 if width - col <= kept else (rest > 0) * np.uint8(48)  # ord("0"), or NUL where rest is 0
            out[:, col] = digit
            rest = quotient

    return width, fill


def _text_rows(n: int, columns) -> str:
    """n rows of text, each the columns side by side, with nothing between rows.

    The constant texts form one template row, repeated down an (n, width)
    byte matrix; each other column writes its own slice of the matrix; and
    the bytes that are not NUL are read out in one pass.
    """
    template, fills = b"", []
    for column in columns:
        if isinstance(column, str):
            template += _ascii(column)
        else:
            width, fill = column
            fills.append((slice(len(template), len(template) + width), fill))
            template += bytes(width)
    matrix = np.frombuffer(template, np.uint8)[None].repeat(n, axis=0)
    for place, fill in fills:
        fill(matrix[:, place])
    return matrix.tobytes().replace(b"\0", b"").decode("ascii")


def _write_rows(fp: IO[str], n: int, columns, sep: str = "") -> None:
    """n rows of ``_text_rows`` joined by ``sep``, a chunk at a time: chunk ``rows``, a slice, has ``columns(rows)``."""
    for lo in range(0, n, _EXPORT_ROWS):
        rows = slice(lo, min(lo + _EXPORT_ROWS, n))
        text = _text_rows(rows.stop - lo, [sep, *columns(rows)])
        fp.write(text if lo else text[len(sep) :])  # the very first row follows no ``sep``


@dataclass(frozen=True)
class CactusLDL:
    """``KochGraph.laplacian_factor``: L D L^T with one set of entries per triangle row (f, a, b).

    Son b's column of L holds -1/D_b at a and at f; son a's holds
    ``a_ratio = a_coupling / a_pivot`` at f, where ``a_coupling`` is the
    a-f entry left once b is eliminated; it and ``1 / a_pivot`` are
    divided once, in the factorization, not once per solve.  A solve is
    one forward and one backward pass over the same batches of rows, a
    few vectorized steps each, on any number of right-hand-side columns
    at once, each laid out contiguously: every step is elementwise per
    column, so a column's bits do not depend on the others.  The sons of
    a batch are two strided slices of the ids (``_son_ids``); only the
    fathers are gathered.
    """

    triangles: np.ndarray  # the graph's int32 table: row k is (father, 2k+1, 2k+2)
    batches: tuple[slice, ...]  # triangle rows eliminated together, in elimination order
    b_pivot: np.ndarray  # D at son b (the higher id), eliminated first
    a_pivot: np.ndarray  # D at son a, eliminated second
    a_coupling: np.ndarray  # the a-f entry once b is eliminated
    a_ratio: np.ndarray  # a_coupling / a_pivot: son a's entry of L at f
    a_inverse: np.ndarray  # 1 / a_pivot

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """phi with phi[0] = 0 and (L phi)[v] = rhs[v] at every other vertex; rhs is (N,) or (N, c).

        phi is column-major: each column is contiguous, as it is alone.
        """
        phi = np.array(rhs, np.float64, order="F")
        x = phi.reshape(len(phi), -1, order="F")  # a view: the columns are solved together
        for rows in self.batches:  # L y = rhs: each son's right-hand side passes on to its father
            a, b = _son_ids(rows)
            carry = x[b] / self.b_pivot[rows, None]
            x[a] += carry
            carry -= self.a_ratio[rows, None] * x[a]
            _kernels.add_at_rows(x, self.triangles[rows, 0], carry)
        x[0] = 0.0  # hub 0 is grounded: what the sons passed on to it is dropped
        for rows in reversed(self.batches):  # D L^T phi = y: each son from its father, oldest first
            a, b = _son_ids(rows)
            xf = np.take(x.T, self.triangles[rows, 0], axis=1).T  # column-major, as x
            # times the reciprocal pivot, as a BLAS triangular solve rounds: printed potentials
            # then keep the bits they had under a sparse LU solve
            x[a] = (x[a] - self.a_coupling[rows, None] * xf) * self.a_inverse[rows, None]
            x[b] = (x[b] + xf + x[a]) / self.b_pivot[rows, None]
        return phi


@dataclass(eq=False)
class KochGraph:
    """Immutable generated network; safe for concurrent read-only use.

    ``triangles`` is the one stored edge structure and the four narrow
    vertex arrays the one stored vertex structure; the edge views and the
    label class table below are derived from them on first use and cached.
    """

    m: int
    t: int
    triangles: np.ndarray  # int32 (T, 3): row 0 the hubs, row k (father, 2k+1, 2k+2)
    birth: np.ndarray  # int8 (N,): growth step that added the vertex, 0 for a hub
    subnet: np.ndarray  # int8 (N,): subnet digit 1..3
    bits: np.ndarray  # int32 (N,): growth bits read as a binary number of `birth` digits
    index: np.ndarray  # int32 (N,): index within (subnet, bits), 0 for a hub

    @property
    def n_vertices(self) -> int:
        return len(self.birth)

    @property
    def n_edges(self) -> int:
        return 3 * len(self.triangles)

    @cached_property
    def step_starts(self) -> np.ndarray:
        """First id of each birth step 0..t: ids are made step by step, so ``birth`` never falls."""
        return np.array([0] + [vertex_count(self.m, b) for b in range(self.t)], np.int64)

    def step_min_max(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Min and max of a per-vertex array over each birth step 0..t."""
        starts = self.step_starts
        return np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)

    def _label_columns(self, ids) -> list:
        """``format_label`` of the given vertices as two text columns: all before the index, then the index."""
        codes = _label_codes(self.t, self.subnet[ids], self.birth[ids], self.bits[ids])
        return [_table(self._label_heads, codes), _decimal(self.index[ids], omit_zero=True)]

    @cached_property
    def _label_heads(self) -> np.ndarray:
        """``_block`` of each label's text before its index, by label code: subnet, and a non-hub's bits and '.'."""
        low = 2 << self.t  # a code's growth bits lie below this, behind a leading 1
        heads = [(code // low, f"{code % low:b}"[1:]) for code in range(4 * low)]
        return _block([f"{subnet}{bits}." if bits else str(subnet) for subnet, bits in heads])

    def check_ids(self, *ids) -> None:
        """Raise ``ValueError`` unless every id, an int or an array of ids, lies in [0, N).

        An int or numpy integer is compared in plain Python, an array by its min and max.
        """
        n = self.n_vertices
        for v in ids:
            if isinstance(v, (int, np.integer)):
                low = high = v
            else:
                v = np.asarray(v)
                if not v.size:
                    continue
                low, high = v.min(), v.max()
            if low < 0 or high >= n:
                raise ValueError(f"vertex ids must lie in [0, {n})")

    def label_of(self, v: int) -> Label:
        """The label of vertex v, made from its four array entries in O(1)."""
        self.check_ids(v)
        bits = bin((1 << int(self.birth[v])) | int(self.bits[v]))[3:]  # a leading 1 keeps the bits' zeros
        return _derived(int(self.subnet[v]), bits, int(self.index[v]) or None)

    @cached_property
    def _label_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """First id and size of every label class (subnet, bits), indexed by label code.

        ``build`` makes sons father by father, and the fathers of one class
        form one class, so each class is one id range in index order.  A
        code with no vertex has size 0.  Both tables have 4 << (t+1) entries.
        """
        codes = _label_codes(self.t, self.subnet, self.birth, self.bits)
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        first, size = np.zeros((2, 4 << (self.t + 1)), np.int64)
        first[codes[starts]] = starts
        size[codes[starts]] = np.diff(starts, append=len(codes))
        return first, size

    def vertex_by_label(self, label: Label) -> int:
        """The id of one label in O(1): its class's first id plus its index less the class's lowest."""
        try:  # a label born after step t has a code that overlaps the subnet's bits
            validate_in_graph(self.m, self.t, label)
        except (LabelDomainError, LabelFormatError):
            text = f"label {format_label(label)} not present in K_{{{self.m},{self.t}}}"
            raise UnknownLabelError(text) from None
        # every label validate_in_graph passes is in the graph
        code = (label.subnet << (self.t + 1)) | (1 << label.birth) | int(label.bits or "0", 2)
        low = 0 if label.is_hub else 1  # the class's lowest index, as in ``vertex_by_label_key``
        return int(self._label_classes[0][code]) + (label.index or 0) - low

    def vertex_by_label_key(self, keys) -> np.ndarray:
        """``vertex_by_label`` on label keys, vectorized: the id of each key, -1 where none.

        The id is the class's first id plus the index less its lowest
        value: 0 for a hub, 1 for any other class.
        """
        keys = np.asarray(keys, np.int64)
        first, size = self._label_classes
        code, index = np.divmod(keys, (2 * self.m) ** self.t + 1)
        inside = (keys >= 0) & (code < len(first))
        code = np.where(inside, code, 0)
        # a hub's code has nothing below its leading 1
        low = ((code & ((2 << self.t) - 1)) != 1).astype(np.int64)
        ok = inside & (index >= low) & (index <= size[code] + low - 1)
        return np.where(ok, first[code] + index - low, -1)

    def father_of(self, v) -> np.ndarray:
        """Father id of vertex v, the first corner of triangle (v - 1) // 2; -1 for a hub.  Vectorized."""
        v = np.asarray(v, np.int64)
        return np.where(v < 3, -1, self.triangles[(v - 1) // 2, 0])

    def companion_of(self, v) -> np.ndarray:
        """The other son of vertex v's triangle: v + 1 for odd v, v - 1 for even; -1 for a hub.

        Ids keep their integer type: an int32 id array gives int32 companions.
        """
        v = np.asarray(v)
        return np.where(v < 3, -1, np.where(v % 2 == 1, v + 1, v - 1))

    def _corner_pair_keys(self) -> np.ndarray:
        """Key u * N + v, int64, of the corner pairs (f, a), (f, b), (a, b) of each triangle row, row by row."""
        tri = self.triangles  # rows are ascending, so each corner pair is (low, high)
        keys = tri[:, [0, 0, 1]].astype(np.int64)
        keys *= self.n_vertices
        keys += tri[:, [1, 2, 2]]
        return keys.ravel()

    def corner_pair_ends(self) -> np.ndarray:
        """Every edge (u, v), u < v, at its row 3k + j: row k's (f, a), (f, b), (a, b); int32 (E, 2)."""
        return self.triangles[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)

    @cached_property
    def edges(self) -> np.ndarray:
        """All edges as rows (u, v) with u < v, sorted ascending: the exports' and the CSR's order; int32 (E, 2)."""
        keys = self._corner_pair_keys()
        keys.sort()
        edges = np.empty((self.n_edges, 2), np.int32)
        np.divmod(keys, self.n_vertices, out=(edges[:, 0], edges[:, 1]))
        return edges

    def corner_pair(self, u, v) -> np.ndarray:
        """Position 3k + j of edge (u, v), either orientation, among the rows' corner pairs; -1 where none.

        Row k, (f, 2k+1, 2k+2), holds (f, 2k+1), (f, 2k+2) and (2k+1, 2k+2) at j = 0, 1, 2,
        and a pair lo < hi can only lie in row (hi - 1) // 2.  Ids outside [0, N) give -1.
        Vectorized: ``u`` and ``v`` are ids or equal-shaped id arrays, widened to int64 first.
        """
        u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        k = (hi - 1) >> 1
        father = lo == self.triangles[np.clip(k, 0, len(self.triangles) - 1), 0]
        # an edge is (f, hi), at 3k + j = k + hi - 1, or the sons (2k+1, 2k+2), at one more
        edge = (father | (lo + hi == 4 * k + 3)) & (lo >= 0) & (lo < hi) & (hi < self.n_vertices)
        return np.where(edge, k + hi - father, -1)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Vertex degrees, int64: two edges per triangle a vertex is a corner of."""
        return 2 * np.bincount(self.triangles.ravel(), minlength=self.n_vertices)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form: int64 ``indptr`` and int32 ``indices``, neighbors ascending.

        A row is its vertex's lower neighbours, then its higher ones.  Row
        by row, the higher ones are the second ids of ``edges`` in edge
        order.  The lower ones are the triangle rows' corner pairs' first
        ids, f, f, a per row: son a's father, then son b's father and a.
        """
        n = self.n_vertices
        v = self.edges[:, 1]
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        lower = np.bincount(v, minlength=n)
        low_slot = np.repeat(np.tile([True, False], n), np.stack((lower, self.degrees - lower), axis=1).ravel())
        indices = np.empty(2 * len(v), np.int32)
        indices[low_slot] = self.triangles[:, [0, 0, 1]].ravel()
        indices[~low_slot] = v
        return indptr, indices

    @cached_property
    def corner_parts(self) -> np.ndarray:
        """Size of the part of the graph that hangs at each corner of each triangle.

        int64 (T, 3), aligned with ``triangles``; each row sums to N.
        A son's part is its subtree: itself plus everything born below it.
        Subtree sizes are summed youngest-first, one birth step at a time,
        so every son's size is complete before it is added to its father's.
        The father's part is the rest of the graph; each hub's part is its
        own subtree.
        """
        n = self.n_vertices
        below = np.ones(n, np.int64)
        for step in range(self.t, 0, -1):
            rows = slice(triangle_count(self.m, step - 1), triangle_count(self.m, step))
            a, b = _son_ids(rows)
            np.add.at(below, self.triangles[rows, 0], below[a] + below[b])
        parts = np.empty((len(self.triangles), 3), np.int64)
        parts[:, 1], parts[:, 2] = below[1::2], below[2::2]  # every row's sons, the hubs' too
        parts[0, 0] = below[0]
        parts[1:, 0] = n - parts[1:, 1] - parts[1:, 2]
        return parts

    @cached_property
    def distance_total(self) -> int:
        """Sum of distances over all ordered vertex pairs, from the corner parts.

        Shortest paths are unique and use at most one edge of a triangle,
        so a pair's distance is the number of triangles whose corner parts
        separate it: triangle parts a, b, c are crossed by ab + bc + ca pairs.
        """
        a, b, c = self.corner_parts.T
        return 2 * int((a * b + b * c + c * a).sum())

    @cached_property
    def bfs_distance_total(self) -> int:
        """``distance_total``'s oracle: one blocked BFS sweep from every vertex, O(N E)."""
        return _kernels.all_distance_total(*self.csr)

    @cached_property
    def laplacian_factor(self) -> CactusLDL:
        """LDL^T of the unit-resistor Laplacian grounded at hub 0, eliminated youngest vertex first.

        Every triangle row (f, a, b) is eliminated son b first, then son a,
        one birth step at a time from step t down, the hub row (0, 1, 2)
        last.  By then each son's children are gone, so its only neighbors
        left are its father and its companion, which are adjacent: no fill.
        Each son's pivot is its degree less what its eliminated children
        took from it.
        """
        tri = self.triangles
        steps = range(self.t, 0, -1)  # youngest first, then row 0, the hubs
        batches = [slice(triangle_count(self.m, s - 1), triangle_count(self.m, s)) for s in steps]
        batches.append(slice(0, 1))
        pivot = self.degrees.astype(np.float64)  # each vertex's diagonal as its sons are eliminated
        b_pivot, a_pivot, a_coupling = (np.empty(len(tri)) for _ in range(3))
        for rows in batches:
            a, b = _son_ids(rows)
            b_pivot[rows] = pivot[b]
            a_pivot[rows] = pivot[a] - 1 / b_pivot[rows]
            a_coupling[rows] = -1 - 1 / b_pivot[rows]
            np.subtract.at(pivot, tri[rows, 0], 1 / b_pivot[rows] + a_coupling[rows] ** 2 / a_pivot[rows])
        return CactusLDL(tri, tuple(batches), b_pivot, a_pivot, a_coupling, a_coupling / a_pivot, 1 / a_pivot)

    # ---- exports -------------------------------------------------------
    # each chunk of rows is laid out by ``_text_rows`` and written at once (``_write_rows``)

    def _write_edges(self, fp: IO[str], before: str, between: str, after: str, sep: str = "") -> None:
        """Every edge (u, v) as the text ``before u between v after``, the rows joined by ``sep``."""

        def columns(rows):
            u, v = self.edges[rows].T
            return [before, _decimal(u), between, _decimal(v), after]

        _write_rows(fp, self.n_edges, columns, sep)

    def write_edgelist(self, fp: IO[str]) -> None:
        self._write_edges(fp, "", " ", "\n")

    def write_json(self, fp: IO[str]) -> None:
        """The bytes of ``json.dump(doc, fp, separators=(",", ":"))`` then a newline, chunk by chunk."""

        def columns(rows):  # label texts are digits and dots, which JSON strings carry unescaped
            ids, label = _decimal(np.arange(rows.start, rows.stop)), self._label_columns(rows)
            birth, degree = _decimal(self.birth[rows]), _decimal(self.degrees[rows])
            return ['{"id":', ids, ',"label":"', *label, '","birth":', birth, ',"degree":', degree, "}"]

        fp.write(f'{{"m":{self.m},"t":{self.t},"vertices":[')
        _write_rows(fp, self.n_vertices, columns, ",")
        fp.write('],"edges":[')
        self._write_edges(fp, "[", ",", "]", ",")
        fp.write("]}\n")

    def write_dot(self, fp: IO[str]) -> None:
        def columns(rows):
            return ["  ", _decimal(np.arange(rows.start, rows.stop)), ' [label="', *self._label_columns(rows), '"];\n']

        fp.write("graph koch {\n")
        _write_rows(fp, self.n_vertices, columns)
        self._write_edges(fp, "  ", " -- ", ";\n")
        fp.write("}\n")


def check_size(m: int, t: int) -> int:
    """Vertex count of K_{m,t}; raises SizeCapError when it exceeds the cap.

    The cap is 10^7 vertices; the KOCH_MAX_VERTICES environment variable
    is the one way to change it.  The magnitude comes first:
    once t log(3m+1) passes log(cap) + 1, the count 2(3m+1)^t + 1 is above
    the cap whatever the float rounding, and it is never computed (at huge
    t it would take minutes or all memory).
    """
    cap = DEFAULT_VERTEX_CAP
    env = os.environ.get(_CAP_ENV)
    if env:
        try:
            cap = int(env) if env.strip().isdecimal() else 0
        except ValueError:  # past int()'s limit of 4300 digits
            cap = 0
        if cap < 1:
            raise SettingError(f"{_CAP_ENV} must be an integer >= 1, got {env[:40]!r}")
    if t * math.log(3 * m + 1) <= math.log(cap) + 1:
        n = vertex_count(m, t)
        if n <= cap:
            return n
    raise SizeCapError(f"K_{{{m},{t}}} has {_count_text(m, t)} vertices, exceeding the cap of {cap}")


def _count_text(m: int, t: int) -> str:
    # the exact count below 10^18; past that it is no use in a message, and at huge t too big to compute
    if t * math.log10(3 * m + 1) < 18 and vertex_count(m, t) < 10**18:
        return str(vertex_count(m, t))
    return f"2*{3 * m + 1}^{t}+1"


def build(m: int, t: int) -> KochGraph:
    """Construct K_{m,t} with canonical labels.

    Raises SizeCapError when 2(3m+1)^t + 1 would exceed the cap (10^7
    vertices; the KOCH_MAX_VERTICES environment variable is the one way
    to change it), at N >= 2^31 whatever the cap (ids are int32), and
    when a son block's width 2m(m+1)^t passes int64 (a huge m at t = 0).
    The refusals come before anything is allocated.
    """
    if not isinstance(m, int) or not isinstance(t, int) or m < 1 or t < 0:
        raise ValueError(f"need integer m >= 1 and t >= 0, got m={m!r}, t={t!r}")
    n_final = check_size(m, t)
    too_many = f"K_{{{m},{t}}} has {_count_text(m, t)} vertices, more than can be allocated"
    if n_final >= ID_LIMIT:
        raise SizeCapError(f"{too_many}: vertex ids are int32, so N must be below 2^31")
    if 2 * m * (m + 1) ** t >= 1 << 63:
        raise SizeCapError(f"K_{{{m},{t}}}: m is too large for the int64 label arithmetic")

    try:
        birth, subnet = np.zeros(n_final, np.int8), np.zeros(n_final, np.int8)
        bits, index = np.zeros(n_final, np.int32), np.zeros(n_final, np.int32)
        triangles = np.empty((triangle_count(m, t), 3), np.int32)
    except MemoryError:
        raise SizeCapError(too_many) from None
    subnet[:3] = (1, 2, 3)
    triangles[0] = (0, 1, 2)
    # by age, the full steps a vertex has already lived: it sits in (m+1)^age triangles and
    # gives each m groups of two sons, whose bits are its own + "0" + "1"*age
    widths = 2 * m * (m + 1) ** np.arange(t, dtype=np.int64)
    ones = (1 << np.arange(t, dtype=np.int32)) - 1
    n = 3
    for step in range(1, t + 1):
        age = step - 1 - birth[:n]
        width = widths[age]
        father = np.repeat(np.arange(n), width)
        new = slice(n, n + len(father))
        birth[new] = step
        subnet[new] = subnet[father]
        bits[new] = ((bits[:n] << (age + 1)) | ones[age])[father]
        # a son's index is its father's block base plus its place in the block, plus 1;
        # hubs own the whole range
        base = np.where(birth[:n] == 0, 0, (index[:n] - 1) * width) - (np.cumsum(width) - width) + 1
        index[new] = base.astype(np.int32)[father]
        index[new] += np.arange(len(father), dtype=np.int32)
        # sons 2k+1 and 2k+2 close triangle k with their father
        first = (n - 1) // 2
        triangles[first : first + len(father) // 2, 0] = father[::2]
        n += len(father)
    triangles[1:, 1] = np.arange(3, n, 2)
    triangles[1:, 2] = triangles[1:, 1] + 1
    return KochGraph(m=m, t=t, triangles=triangles, birth=birth, subnet=subnet, bits=bits, index=index)


def edge_class_ids(graph: KochGraph) -> np.ndarray:
    """Class of every edge, at its corner-pair position, as an index into EDGE_CLASSES.

    An edge u < v joins two hubs when v < 3, a companion pair when v is the
    companion of u, and a father and its child otherwise.  int8.
    """
    u, v = graph.corner_pair_ends().T
    return np.where(v < 3, np.int8(0), np.where(graph.companion_of(u) == v, np.int8(1), np.int8(2)))


def edge_class_counts(graph: KochGraph) -> dict[str, int]:
    counts = np.bincount(edge_class_ids(graph), minlength=len(EDGE_CLASSES))
    return dict(zip(EDGE_CLASSES, counts.tolist()))
