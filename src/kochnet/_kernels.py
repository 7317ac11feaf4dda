"""Hot graph kernels: BFS distances and shortest-path counts.

Vectorized numpy frontier sweeps over adjacency given as int64 CSR
arrays.  ``bfs_distances`` and ``bfs_sigma`` sweep one source through
the private ``_bfs``.  ``bfs_block`` sweeps a block of sources at once:
each BFS level is one sparse adjacency x dense frontier-block product.
``all_distance_total`` and ``multi_sigma_count`` run on it, in blocks of
about ``_BLOCK_ENTRIES`` (source, vertex) entries.  These sweeps are
oracles: the library's distance total and betweenness come from the
triangle table in O(N), and the sweeps check them on small graphs.
Every kernel is sequential, so results are bit-for-bit deterministic.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ENTRIES = 1 << 20  # sources x vertices per block: bounds the working arrays


def _gather(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """All CSR slots leaving ``frontier``: (targets, sources)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, np.int64)
        return empty, empty
    excl = np.concatenate((np.zeros(1, np.int64), np.cumsum(counts)[:-1]))
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - excl, counts)
    return indices[pos], np.repeat(frontier, counts)


def _bfs(indptr, indices, source):
    """One sweep: distances and shortest-path counts."""
    n = indptr.shape[0] - 1
    dist = np.full(n, -1, np.int64)
    sigma = np.zeros(n, np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], np.int64)
    d = 0
    while frontier.size:
        nbrs, srcs = _gather(indptr, indices, frontier)
        frontier = np.unique(nbrs[dist[nbrs] < 0])
        dist[frontier] = d + 1
        onward = dist[nbrs] == d + 1
        np.add.at(sigma, nbrs[onward], sigma[srcs[onward]])
        d += 1
    return dist, sigma


def bfs_distances(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """Unweighted single-source distances (int64, -1 if unreachable)."""
    return _bfs(indptr, indices, source)[0]


def bfs_sigma(indptr: np.ndarray, indices: np.ndarray, source: int):
    """Distances plus shortest-path counts from one source."""
    return _bfs(indptr, indices, source)


def block_rows(n: int) -> int:
    """Sources per ``bfs_block`` call on an n-vertex graph."""
    return max(1, _BLOCK_ENTRIES // max(n, 1))


def bfs_block(indptr: np.ndarray, indices: np.ndarray, sources, with_sigma: bool = False):
    """Distances from each of a block of sources: int64 (len(sources), N), -1 if unreachable.

    With ``with_sigma`` also the shortest-path counts, float64 of the same
    shape.  Level d+1 is every unvisited vertex that the product of the
    adjacency with the level-d frontier block reaches.  Distances alone
    multiply in the boolean semiring; path counts multiply in float64,
    where the product's entry is the number of shortest paths arriving.
    The working arrays hold len(sources) x N entries, so callers pass at
    most ``block_rows(N)`` sources.
    """
    import scipy.sparse as sp  # slow to import; only the blocked sweeps need it

    n = indptr.shape[0] - 1
    sources = np.asarray(sources, np.int64)
    dtype = np.float64 if with_sigma else bool
    adj = sp.csr_array((np.ones(len(indices), dtype), indices, indptr), shape=(n, n))
    front = np.zeros((n, len(sources)), dtype)  # one column per source
    front[sources, np.arange(len(sources))] = 1
    unseen = front == 0
    dist = np.where(unseen, -1, 0)
    sigma = front.copy() if with_sigma else None
    d = 0
    while True:
        front = adj @ front
        front *= unseen
        fresh = front != 0
        if not fresh.any():
            break
        d += 1
        dist[fresh] = d
        unseen &= ~fresh
        if with_sigma:
            sigma += front
    if with_sigma:
        return dist.T, sigma.T
    return dist.T


def _blocks(sources: np.ndarray, n: int):
    rows = block_rows(n)
    return (sources[lo : lo + rows] for lo in range(0, len(sources), rows))


def all_distance_total(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Sum of distances over all ordered vertex pairs, one BFS row per source: O(N E)."""
    n = indptr.shape[0] - 1
    return sum(int(bfs_block(indptr, indices, b).sum()) for b in _blocks(np.arange(n), n))


def multi_sigma_count(indptr: np.ndarray, indices: np.ndarray, sources=None) -> int:
    """Number of (source, vertex) pairs joined by more than one shortest path.

    Over every source, or over the given ones.
    """
    n = indptr.shape[0] - 1
    sources = np.arange(n) if sources is None else np.asarray(sources, np.int64)
    return sum(
        int(np.count_nonzero(bfs_block(indptr, indices, b, with_sigma=True)[1] > 1.0))
        for b in _blocks(sources, n)
    )

