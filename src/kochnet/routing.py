"""Shortest-path routing from labels alone, plus BFS oracles.

The route between two labels is assembled from their ancestor chains
(repeated application of the father formula).  Different subnets: climb
both chains to the hubs, which are adjacent.  Same subnet: splice the
chains at their deepest common vertex, and when the two chain vertices
just below the splice point are companions, connect them directly and
drop the splice vertex (that detour through the common father would be
one hop longer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph import KochGraph
from .labels import Label, companion, father, validate_in_graph


@dataclass(frozen=True)
class RoutePath:
    hops: tuple[Label, ...]
    ops_used: int

    @property
    def length(self) -> int:
        return len(self.hops) - 1

    def reversed(self) -> "RoutePath":
        return RoutePath(tuple(reversed(self.hops)), self.ops_used)


def ancestor_chain(m: int, label: Label) -> list[Label]:
    """[label, father, grandfather, ..., hub]."""
    chain = [label]
    while not chain[-1].is_hub:
        chain.append(father(m, chain[-1]))
    return chain


def route(m: int, t: int, a: Label, b: Label) -> RoutePath:
    """Shortest path between two labels of K_{m,t}, by label arithmetic only.

    ``ops_used`` counts father/companion evaluations (the ceil/modulo
    work), which stays below 2t + 3 for any pair.
    """
    validate_in_graph(m, t, a)
    validate_in_graph(m, t, b)
    if a == b:
        return RoutePath((a,), 0)

    chain_a = ancestor_chain(m, a)
    chain_b = ancestor_chain(m, b)
    ops = (len(chain_a) - 1) + (len(chain_b) - 1)

    if a.subnet != b.subnet:
        return RoutePath(tuple(chain_a + chain_b[::-1]), ops)

    # scan from the hub end for the deepest common vertex
    i, j = len(chain_a) - 1, len(chain_b) - 1
    while i >= 0 and j >= 0 and chain_a[i] == chain_b[j]:
        i -= 1
        j -= 1
    if i >= 0 and j >= 0:
        ops += 1
        if companion(chain_a[i]) == chain_b[j]:
            # splice the two sibling subtrees directly, skip their father
            return RoutePath(tuple(chain_a[: i + 1] + chain_b[: j + 1][::-1]), ops)
    return RoutePath(tuple(chain_a[: i + 2] + chain_b[: j + 1][::-1]), ops)


def distance(m: int, t: int, a: Label, b: Label) -> int:
    return route(m, t, a, b).length


def bfs_distances(graph: KochGraph, source: int) -> np.ndarray:
    """Exact single-source distances on the built graph (the routing oracle)."""
    indptr, indices = graph.csr
    return _kernels.bfs_distances(indptr, indices, source)


def bfs_sigma(graph: KochGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances plus per-target shortest-path counts for the uniqueness audit."""
    indptr, indices = graph.csr
    return _kernels.bfs_sigma(indptr, indices, source)


def verify_path_in_graph(graph: KochGraph, path: RoutePath) -> bool:
    """Every consecutive hop pair must be an edge of the graph."""
    ids = [graph.vertex_by_label(h) for h in path.hops]
    sets = graph.neighbor_sets
    return all(v in sets[u] for u, v in zip(ids, ids[1:]))
