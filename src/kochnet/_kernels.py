"""Hot graph kernels: BFS distances, path counts, and Brandes accumulation.

Vectorized numpy frontier sweeps over adjacency given as int64 CSR
arrays.  Every kernel runs sequentially per source, so results are
bit-for-bit deterministic.  The all-sources kernels call the private
``_bfs_levels`` sweep directly, so only ``bfs_distances`` and
``bfs_sigma`` are single-source entry points.
"""

from __future__ import annotations

import numpy as np


def _gather(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """All CSR slots leaving ``frontier``: (targets, sources, slot positions)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, np.int64)
        return empty, empty, empty
    excl = np.concatenate((np.zeros(1, np.int64), np.cumsum(counts)[:-1]))
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - excl, counts)
    return indices[pos], np.repeat(frontier, counts), pos


def _bfs_levels(indptr, indices, source):
    """One sweep: distances, shortest-path counts and the BFS levels."""
    n = indptr.shape[0] - 1
    dist = np.full(n, -1, np.int64)
    sigma = np.zeros(n, np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    levels = [np.array([source], np.int64)]
    d = 0
    while levels[-1].size:
        nbrs, srcs, _ = _gather(indptr, indices, levels[-1])
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        dist[fresh] = d + 1
        onward = dist[nbrs] == d + 1
        np.add.at(sigma, nbrs[onward], sigma[srcs[onward]])
        d += 1
        levels.append(fresh)
    return dist, sigma, levels[:-1]


def bfs_distances(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """Unweighted single-source distances (int64, -1 if unreachable)."""
    return _bfs_levels(indptr, indices, source)[0]


def bfs_sigma(indptr: np.ndarray, indices: np.ndarray, source: int):
    """Distances plus shortest-path counts from one source."""
    dist, sigma, _ = _bfs_levels(indptr, indices, source)
    return dist, sigma


def all_distance_total(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Sum of distances over all ordered vertex pairs."""
    n = indptr.shape[0] - 1
    total = 0
    for s in range(n):
        total += int(_bfs_levels(indptr, indices, s)[0].sum())
    return total


def multi_sigma_count(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Number of (source, vertex) pairs joined by more than one shortest path."""
    n = indptr.shape[0] - 1
    bad = 0
    for s in range(n):
        sigma = _bfs_levels(indptr, indices, s)[1]
        bad += int(np.count_nonzero(sigma > 1.0))
    return bad


def betweenness_totals(
    indptr: np.ndarray, indices: np.ndarray, csr_eid: np.ndarray, n_edges: int
):
    """Brandes accumulation over every source.

    Returns per-vertex and per-edge dependency totals over *ordered*
    pairs; divide by two for the unordered-pair convention.  Endpoint
    pairs are excluded from vertex totals and included in edge totals.
    """
    n = indptr.shape[0] - 1
    cb = np.zeros(n, np.float64)
    eb = np.zeros(n_edges, np.float64)
    for s in range(n):
        dist, sigma, levels = _bfs_levels(indptr, indices, s)
        delta = np.zeros(n, np.float64)
        for level in levels[:0:-1]:
            nbrs, ws, pos = _gather(indptr, indices, level)
            pred = dist[nbrs] == dist[ws] - 1
            v, w, slots = nbrs[pred], ws[pred], pos[pred]
            contrib = sigma[v] / sigma[w] * (1.0 + delta[w])
            np.add.at(delta, v, contrib)
            np.add.at(eb, csr_eid[slots], contrib)
            cb[level] += delta[level]
    return cb, eb
