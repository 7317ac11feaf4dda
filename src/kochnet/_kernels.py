"""Hot graph kernels: BFS distances and shortest-path uniqueness, on numpy alone.

Vectorized numpy frontier sweeps over adjacency given as CSR arrays
(int64 offsets; int32 or int64 neighbour ids).  ``_levels`` is the one
BFS: it sweeps a block of sources at once, one bit of a uint64 word per
source and vertex (multi-source BFS on packed bits, after Then et al.,
"The More the Merrier", PVLDB 8(4), 2014): a level is a gather of the
frontier bits over the CSR slots, masked by each slot's row's unseen
bits, and an ``np.bitwise_or.reduceat`` over the rows.  The masked slot
bits are the BFS parents of the fresh bits, so their popcount less the
fresh popcount counts the extra parents: 0 exactly when every shortest
path from the swept sources is unique, with no second bit-plane.
``pair_distances`` reads one bit per (source, target) pair at each
level, by a byte index and bit mask per pair into the plane viewed as
bytes, and sums the extra parents; ``all_distance_total`` only sums the
fresh-bit counts that ``_levels`` makes for the extra parents.
``_BLOCK_ENTRIES`` is the one memory bound: it caps the packed words of
one bit-plane of a sweep block, and a level gathers the slots of a run of
rows at a time (``row_chunks``), at most N slots, so its gathered words
are at most one bit-plane too.  These sweeps are oracles: the library's
distance total and betweenness come from the triangle table in O(N), and
the sweeps check them and the label routes on small graphs.
``add_at_rows`` is the father scatter of the Laplacian back-solves: one
1-D ``np.add.at`` over a column-major block of fields.  Every kernel is
sequential, so results are bit-for-bit deterministic.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ENTRIES = 1 << 20  # uint64 words in one bit-plane of a sweep block
_BYTE_ORDER = 0 if np.little_endian else 56  # flips a bit's byte within its word on a big-endian host


def block_rows(n: int) -> int:
    """uint64 words per vertex in a sweep block of an n-vertex graph: a bit-plane holds ``_BLOCK_ENTRIES``."""
    return max(1, _BLOCK_ENTRIES // max(n, 1))


def add_at_rows(x: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(x, rows, values)`` on an (N,) or column-major (N, c) x, as one 1-D ``np.add.at``.

    Column j's rows are offset by j N into x's storage, so each column
    takes its additions in the order it takes them alone and keeps its
    bits; a 2-D ``np.add.at`` takes numpy's slow path, even at c = 1.  An
    x that is not column-major raises ``ValueError``.
    """
    if not x.flags.f_contiguous:
        raise ValueError("add_at_rows needs a column-major x")
    flat = x.reshape(-1, order="F")  # a view of x's storage
    if len(flat) > len(x):  # more than one column: column j's rows move j N along
        rows = (rows + len(x) * np.arange(len(flat) // len(x))[:, None]).reshape(-1)
    np.add.at(flat, rows, values.reshape(-1, order="F"))


def _blocks(sources: np.ndarray, n: int):
    """Sources in sweep blocks: 64 per word, ``block_rows(n)`` words per vertex."""
    rows = 64 * block_rows(n)
    return (sources[lo : lo + rows] for lo in range(0, len(sources), rows))


def _source_bits(n: int, sources: np.ndarray) -> np.ndarray:
    """uint64 (N, words): bit j of vertex ``sources[j]`` set, one bit per source."""
    bits = np.zeros((n, -(-len(sources) // 64)), np.uint64)
    j = np.arange(len(sources))
    np.bitwise_or.at(bits, (sources, j >> 6), np.uint64(1) << (j & 63).astype(np.uint64))
    return bits


def row_chunks(indptr: np.ndarray, slots: int):
    """Row ranges (lo, hi) in order, each of at most ``slots`` CSR slots or of one row."""
    n, lo = len(indptr) - 1, 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + slots, side="right")) - 1)
        yield lo, hi
        lo = hi


def _segments(degree: np.ndarray) -> tuple[slice | np.ndarray, np.ndarray]:
    """The rows of ``degree`` slots that have any (a slice when all do) and their first slots."""
    starts = np.cumsum(degree) - degree
    if degree.all():
        return slice(None), starts
    rows = np.flatnonzero(degree)
    return rows, starts[rows]


def _row_or(slots: np.ndarray, n_rows: int, segments) -> np.ndarray:
    """The OR of each row's run of ``slots`` (``_segments``); 0 for a row of none."""
    rows, starts = segments
    if isinstance(rows, slice):
        return np.bitwise_or.reduceat(slots, starts, axis=0)
    out = np.zeros((n_rows, slots.shape[1]), slots.dtype)
    if len(rows):
        out[rows] = np.bitwise_or.reduceat(slots, starts, axis=0)
    return out


def _levels(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray):
    """One BFS for each source at once, level by level: yields (d, fresh, count, extra).

    ``fresh`` is uint64 (N, words) with bit j of vertex v set when v is at
    distance d from ``sources[j]``; ``count`` is its popcount.  A level
    gathers the frontier's bits over the CSR slots, a run of rows at a
    time, keeps those of each slot's row that are still unseen, and ORs
    each row.  A kept slot bit is one BFS parent of a fresh bit, so
    ``extra``, the kept bits' count less ``count``, is the sum over the
    fresh bits of their parents less one (0 at d = 0).  It is 0 at every
    level exactly when each vertex has one shortest path from each source.
    """
    n = indptr.shape[0] - 1
    front = _source_bits(n, sources)
    chunks = []  # a chunk's gathered slots are at most one bit-plane
    for lo, hi in row_chunks(indptr, n):
        degree = np.diff(indptr[lo : hi + 1])
        chunks.append((slice(lo, hi), slice(indptr[lo], indptr[hi]), degree, _segments(degree)))
    unseen = ~front
    d, count, extra = 0, len(sources), 0  # each source has its own bit
    while count:
        yield d, front, count, extra
        fresh = np.empty_like(front)
        parents = 0
        for rows, run, degree, segments in chunks:
            slots = np.take(front, indices[run], axis=0)
            slots &= np.repeat(unseen[rows], degree, axis=0)
            fresh[rows] = _row_or(slots, len(degree), segments)
            parents += int(np.bitwise_count(slots).sum())
        count = int(np.bitwise_count(fresh).sum())
        extra = parents - count
        unseen ^= fresh
        front = fresh
        d += 1


def pair_distances(indptr: np.ndarray, indices: np.ndarray, src, dst) -> tuple[np.ndarray, int]:
    """Distance from src[p] to dst[p] for every pair p (int64, -1 if unreachable), and the sweep's extra parents.

    The distinct sources are swept on packed bits (``_levels``),
    ``_blocks`` at a time, each to its last level.  Each pair's bit, for
    target v and source bit j, has one flat index into the (N, words)
    plane viewed as bytes, split once into its byte ``bit >> 3`` and the
    mask of its shift ``bit & 7``, and every pair reads that byte at each
    level: a bit is set in one level's plane only, its distance's, so no
    pair is dropped when it hits, which costs more than reading it again.
    The second value sums ``_levels``'
    extra parents over every level of every distinct source: it is 0
    exactly when every vertex that a source reaches has one shortest path
    from it.
    """
    n = indptr.shape[0] - 1
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    order = np.argsort(src, kind="stable")  # the pairs grouped by source, each source's in order
    by_source = src[order]
    first = np.empty(len(src), bool)  # the first pair of each distinct source
    first[:1] = True
    np.not_equal(by_source[1:], by_source[:-1], out=first[1:])
    sources, col = by_source.compress(first), np.cumsum(first) - 1  # col: each pair's source bit
    dist = np.full(len(src), -1, np.int64)
    extra = 0
    for block in _blocks(np.arange(len(sources)), n):
        lo, hi = np.searchsorted(col, (block[0], block[-1] + 1))
        pairs, j = order[lo:hi], col[lo:hi] - block[0]
        # the pair's bit in the flat plane: word (v, j >> 6), bit j & 63, whose byte of the word
        # is (j & 63) >> 3 on a little-endian host and 7 less that on a big-endian one
        bit = (dst[pairs] * -(-len(block) // 64) + (j >> 6)) * 64 + ((j & 63) ^ _BYTE_ORDER)
        byte, mask = bit >> 3, np.uint8(1) << (bit & 7).astype(np.uint8)
        for d, fresh, _, level_extra in _levels(indptr, indices, sources[block]):
            extra += level_extra
            dist[pairs.compress((fresh.view(np.uint8).reshape(-1)[byte] & mask) != 0)] = d
    return dist, extra


def all_distance_total(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Sum of distances over all ordered vertex pairs, one BFS row per source: O(N E).

    An unreachable pair adds -1, its distance in ``pair_distances``.
    """
    n = indptr.shape[0] - 1
    total = 0
    for block in _blocks(np.arange(n), n):
        reached = 0
        for d, _, count, _ in _levels(indptr, indices, block):
            total += d * count
            reached += count
        total -= len(block) * n - reached
    return total
