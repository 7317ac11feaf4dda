"""Hot graph kernels: BFS distances and multi-path flags, on numpy alone.

Vectorized numpy frontier sweeps over adjacency given as CSR arrays
(int64 offsets; int32 or int64 neighbour ids).  ``_levels`` is the one
BFS: it sweeps a block of sources at once, one bit of a uint64 word per
source and vertex (multi-source BFS on packed bits, after Then et al.,
"The More the Merrier", PVLDB 8(4), 2014): a level is a gather of the
frontier bits over the CSR slots and an ``np.bitwise_or.reduceat`` over
the rows.  ``pair_distances`` reads one
bit per (source, target) pair at each level and ``all_distance_total``
only counts bits.  ``multi_sigma_pairs`` is the one reader of the
multi-path bit-plane; it unpacks a level only when a bit of it is set.
The multi-path bits are found by counting: a row whose slots' popcounts,
masked by its unseen bits, add up to more than its fresh popcount holds
a bit from two frontier neighbours, and only on a run of rows with such a
row does the exact segmented prefix-OR run (never on a Koch network,
whose shortest paths are unique).
``_BLOCK_ENTRIES`` is the one memory bound: it caps the packed words of
one bit-plane of a sweep block, and a level gathers the slots of a run of
rows at a time (``row_chunks``), at most N slots, so its gathered words
are at most one bit-plane too.  These sweeps are oracles: the library's
distance total and betweenness come from the triangle table in O(N), and
the sweeps check them and the label routes on small graphs.  Every
kernel is sequential, so results are bit-for-bit deterministic.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ENTRIES = 1 << 20  # uint64 words in one bit-plane of a sweep block


def block_rows(n: int) -> int:
    """uint64 words per vertex in a sweep block of an n-vertex graph: a bit-plane holds ``_BLOCK_ENTRIES``."""
    return max(1, _BLOCK_ENTRIES // max(n, 1))


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


def _row_reduce(ufunc, slots: np.ndarray, n_rows: int, segments, dtype=None) -> np.ndarray:
    """``ufunc.reduceat`` over each row's run of ``slots`` (``_segments``); 0 for a row of none."""
    rows, starts = segments
    if isinstance(rows, slice):
        return ufunc.reduceat(slots, starts, axis=0, dtype=dtype)
    out = np.zeros((n_rows, slots.shape[1]), dtype or slots.dtype)
    if len(rows):
        out[rows] = ufunc.reduceat(slots, starts, axis=0, dtype=dtype)
    return out


def _prefix_steps(degree: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Hillis-Steele steps of a segmented prefix-OR over rows of ``degree`` slots: (shift, slots that take it)."""
    place = np.arange(degree.sum()) - np.repeat(np.cumsum(degree) - degree, degree)  # slot's place in its row
    shifts = [1 << b for b in range(int(degree.max(initial=0) - 1).bit_length())]
    return [(s, np.flatnonzero(place >= s)) for s in shifts]


def _repeated_bits(slots: np.ndarray, steps: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Per CSR slot, the bits that an earlier slot of its row also holds (the exact pass)."""
    prefix = slots.copy()  # OR of each row's slots up to and including this one
    for s, idx in steps:
        prefix[idx] |= prefix[idx - s]
    repeat = np.zeros_like(slots)
    if steps:
        idx = steps[0][1]
        repeat[idx] = slots[idx] & prefix[idx - 1]
    return repeat


def _levels(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, multi: bool = False):
    """One BFS for each source at once, level by level: yields (d, fresh, fresh_multi).

    ``fresh`` is uint64 (N, words) with bit j of vertex v set when v is at
    distance d from ``sources[j]``.  A level gathers the frontier's bits
    over the CSR slots, a run of rows at a time, and ORs each row.  With
    ``multi``, ``fresh_multi`` marks the fresh bits reached by two or more
    shortest paths: from at least two frontier neighbours, or from a
    frontier neighbour that was.  A row has a bit from two neighbours
    exactly when the popcounts of its slots, masked by its unseen bits,
    add up to more than the popcount of its fresh bits; only on a run of
    rows where some row does is the exact pass (``_repeated_bits``, a
    segmented prefix-OR) run, and the multi bits of the frontier are
    gathered only while some are set.  Without ``multi`` ``fresh_multi``
    is None.
    """
    n = indptr.shape[0] - 1
    front = _source_bits(n, sources)
    chunks = []  # a chunk's gathered slots are at most one bit-plane
    for lo, hi in row_chunks(indptr, n):
        degree = np.diff(indptr[lo : hi + 1])
        chunks.append((slice(lo, hi), slice(indptr[lo], indptr[hi]), degree, _segments(degree)))
    unseen = ~front
    front_multi = np.zeros_like(front) if multi else None
    d = 0
    while front.any():
        yield d, front, front_multi
        fresh = np.empty_like(front)
        fresh_multi = np.zeros_like(front) if multi else None
        carried = multi and bool(front_multi.any())
        for rows, run, degree, segments in chunks:
            slots = np.take(front, indices[run], axis=0)
            fresh[rows] = _row_reduce(np.bitwise_or, slots, len(degree), segments)
            fresh[rows] &= unseen[rows]
            if multi:
                slots &= np.repeat(unseen[rows], degree, axis=0)  # only the bits that can be fresh
                hits = _row_reduce(np.add, np.bitwise_count(slots), len(degree), segments, np.int64)
                twice = bool((hits != np.bitwise_count(fresh[rows])).any())
                if twice or carried:
                    repeat = np.take(front_multi, indices[run], axis=0) if carried else np.zeros_like(slots)
                    if twice:
                        repeat |= _repeated_bits(slots, _prefix_steps(degree))
                    fresh_multi[rows] = _row_reduce(np.bitwise_or, repeat, len(degree), segments) & fresh[rows]
        unseen ^= fresh
        front, front_multi = fresh, fresh_multi
        d += 1


def pair_distances(indptr: np.ndarray, indices: np.ndarray, src, dst) -> np.ndarray:
    """Distance from src[p] to dst[p] for every pair p: int64, -1 if unreachable.

    The distinct sources are swept on packed bits (``_levels``),
    ``_blocks`` at a time.  At each level every pair still open reads its
    one bit, ``(fresh[v, j >> 6] >> (j & 63)) & 1`` for target v and
    source bit j, and a block's sweep stops once all its pairs are read.
    """
    n = indptr.shape[0] - 1
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    sources, col = np.unique(src, return_inverse=True)
    dist = np.full(len(src), -1, np.int64)
    order = np.argsort(col, kind="stable")  # the pairs grouped by source bit
    col = col[order]
    one = np.uint64(1)
    for block in _blocks(np.arange(len(sources)), n):
        lo, hi = np.searchsorted(col, (block[0], block[-1] + 1))
        pairs, j = order[lo:hi], col[lo:hi] - block[0]
        word = dst[pairs] * -(-len(block) // 64) + (j >> 6)  # the pair's word in a flat (N, words) plane
        shift = (j & 63).astype(np.uint64)
        for d, fresh, _ in _levels(indptr, indices, sources[block]):
            hit = ((fresh.reshape(-1)[word] >> shift) & one).astype(bool)
            dist[pairs[hit]] = d
            if hit.all():
                break
            left = ~hit
            pairs, word, shift = pairs[left], word[left], shift[left]
    return dist


def all_distance_total(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Sum of distances over all ordered vertex pairs, one BFS row per source: O(N E).

    An unreachable pair adds -1, its distance in ``pair_distances``.
    """
    n = indptr.shape[0] - 1
    total = 0
    for block in _blocks(np.arange(n), n):
        reached = 0
        for d, fresh, _ in _levels(indptr, indices, block):
            count = int(np.bitwise_count(fresh).sum())
            total += d * count
            reached += count
        total -= len(block) * n - reached
    return total


def multi_sigma_pairs(indptr: np.ndarray, indices: np.ndarray, sources) -> np.ndarray:
    """Keys ``source * N + vertex``, ascending int64, of the pairs joined by more than one shortest path.

    The pairs run from each of the given sources to every vertex.  A
    level's multi-path bit-plane is unpacked only when it holds a set bit.
    """
    n = indptr.shape[0] - 1
    keys = [np.zeros(0, np.int64)]
    for block in _blocks(np.asarray(sources, np.int64), n):
        for _, _, fresh_multi in _levels(indptr, indices, block, multi=True):
            if fresh_multi.any():
                bits = np.unpackbits(fresh_multi.astype("<u8").view(np.uint8), axis=1, bitorder="little")
                v, j = np.nonzero(bits[:, : len(block)])
                keys.append(block[j] * n + v)
    return np.sort(np.concatenate(keys))
