"""Shortest-path routing from labels alone, plus a BFS oracle.

The route between two labels is assembled from their ancestor chains
(repeated application of the father formula).  Different subnets: climb
both chains to the hubs, which are adjacent, and join the two climbs.
Same subnet: splice the chains at their deepest common vertex, and when
the two chain vertices just below the splice point are companions,
connect them directly and drop the splice vertex (that detour through
the common father would be one hop longer).

``route`` does this for one pair of ``Label``s, climbing each chain by
the steps ``labels.validate_in_graph`` returns from the label's cached
class table, and making each hop's ``Label`` inline as it climbs.  It
compares hops by their index and bits (the chains share a subnet
wherever it compares them, and the hubs are shared objects), and sets
the two slots of its ``RoutePath`` directly.
``route_batch`` does the same arithmetic for whole arrays of vertex ids
at once, on the four label arrays the graph stores, and returns each
route in two halves, as label keys: the ancestor chain of each distinct
endpoint once, and per pair how many hops come from a's chain and how
many from b's.  It finds the distinct endpoints by marking them in one
bool array over the vertex ids, with no sort, makes each one's chain
once and reads it from the hub end, so the deepest common vertex of a
pair is the first hub column where the two chains differ, found one
column at a time over the pairs that still agree.  A caller reads a
pair's hops from its two halves of ``chains``.
``bfs_distances`` is the oracle: one vertex's distances to all others,
read from the one packed-bit BFS sweep ``_kernels.pair_distances``, which
also counts the extra BFS parents that ``verify``'s uniqueness check reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph import KochGraph, label_keys
from .labels import Label, _ancestors, _class_table, validate_in_graph


@dataclass(frozen=True, slots=True)
class RoutePath:
    hops: tuple[Label, ...]
    ops_used: int

    @property
    def length(self) -> int:
        return len(self.hops) - 1

    def reversed(self) -> "RoutePath":
        return RoutePath(tuple(reversed(self.hops)), self.ops_used)


# the slots' own setters, which the frozen __setattr__ does not guard
_set_hops, _set_ops = RoutePath.hops.__set__, RoutePath.ops_used.__set__


def _path(hops: tuple[Label, ...], ops: int) -> RoutePath:
    """``RoutePath(hops, ops)`` without the frozen ``__init__``: ``route``'s fields are built whole."""
    path = object.__new__(RoutePath)
    _set_hops(path, hops)
    _set_ops(path, ops)
    return path


def ancestor_chain(m: int, label: Label) -> list[Label]:
    """[label, father, grandfather, ..., hub]."""
    return _ancestors(label, _class_table(m, label.bits)[1] if label.bits else ())


def route(m: int, t: int, a: Label, b: Label) -> RoutePath:
    """Shortest path between two labels of K_{m,t}, by label arithmetic only.

    ``ops_used`` counts father/companion evaluations (the ceil/modulo
    work), which stays below 2t + 3 for any pair.
    """
    chain_a = _ancestors(a, validate_in_graph(m, t, a))
    chain_b = _ancestors(b, validate_in_graph(m, t, b))
    ops = len(chain_a) + len(chain_b) - 2
    chain_b.reverse()  # from the hub down to b
    if a.subnet != b.subnet:  # the two hubs are adjacent
        chain_a += chain_b
        return _path(tuple(chain_a), ops)
    # from here on every hop shares the subnet, so index and bits decide equality
    if a is b or (a.index == b.index and a.bits == b.bits):
        return _path((a,), 0)

    # scan from the hub end for the deepest common vertex, kept on a's side
    i, j, last = len(chain_a) - 1, 0, len(chain_b) - 1
    while i >= 0 and j <= last:
        x, y = chain_a[i], chain_b[j]
        if x is not y and (x.index != y.index or x.bits != y.bits):
            break
        i -= 1
        j += 1
    i += 1
    if i >= 1 and j <= last:
        ops += 1
        x, y = chain_a[i - 1], chain_b[j]
        if x.bits == y.bits and y.index == (x.index + 1 if x.index % 2 == 1 else x.index - 1):
            # companions: splice the two sibling subtrees directly, skip their father
            i -= 1
    return _path(tuple(chain_a[: i + 1] + chain_b[j:]), ops)


@dataclass(frozen=True)
class RouteBatch:
    """``route`` for many pairs, as two halves of ancestor chains.

    ``chains`` holds the label keys of each distinct endpoint's ancestor
    chain once, in chain order: the vertex, its father, ..., its hub, then
    -1.  Pair p's route is ``A[:a_hops[p]]`` followed by ``B[:b_hops[p]]``
    read back down to b, where A and B are rows ``a_row[p]`` and
    ``b_row[p]`` of ``chains``: a's climb, a first, up to the splice vertex
    (or to its hub), then b's chain below the splice (or all of it, from
    the other hub).  ``b_hops`` is 0 when b is the splice vertex.
    """

    chains: np.ndarray  # int64 (ends, t + 1)
    a_row: np.ndarray  # int64 (pairs,), rows of chains
    b_row: np.ndarray
    a_hops: np.ndarray  # int64 (pairs,), at least 1
    b_hops: np.ndarray
    ops_used: np.ndarray  # int64 (pairs,)

    @property
    def length(self) -> np.ndarray:
        return self.a_hops + self.b_hops - 1


def _father_fields(m: int, t: int, birth, bits, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The father formula on label arrays: each label's father's (birth, bits, index).

    The subnet is kept.  A hub maps to itself.
    """
    width = 2 * m * (m + 1) ** np.arange(t + 1, dtype=np.int64)
    # the rightmost 0 of the bits sits above the run of r trailing ones: 2^r = (bits+1) & ~bits
    r = np.frexp(((bits + 1) & ~bits).astype(np.float64))[1] - 1
    birth = np.maximum(birth - r - 1, 0)
    return birth, bits >> (r + 1), np.where(birth > 0, -(-index // width[r]), 0)


def _ancestor_keys(graph: KochGraph, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ancestor chains of the vertices ``v`` by the father formula on their label arrays.

    Returns the chains' label keys as an int64 (len(v), t + 1) array in
    chain order (the vertex, its father, ..., the hub, then -1) and the
    chain lengths.
    """
    m, t = graph.m, graph.t
    subnet, birth, bits, index = graph.subnet[v], graph.birth[v], graph.bits[v], graph.index[v]
    keys = np.empty((len(v), t + 1), np.int64)
    for k in range(t + 1):  # each step lowers birth by at least one
        keys[:, k] = label_keys(m, t, subnet, birth, bits, index)
        birth, bits, index = _father_fields(m, t, birth, bits, index)
    length = 1 + np.count_nonzero(keys != keys[:, -1:], axis=1)
    keys[np.arange(t + 1) >= length[:, None]] = -1
    return keys, length


def route_batch(graph: KochGraph, a_ids, b_ids) -> RouteBatch:
    """``route`` between graph vertices a_ids[p] and b_ids[p], for every p at once.

    Label arithmetic only, on the graph's ``subnet``, ``birth``, ``bits``
    and ``index`` arrays; map the chain keys to ids with
    ``graph.vertex_by_label_key``.  The distinct endpoints are marked in
    one bool array over the N vertex ids, with no sort: they are the
    marked ids in ascending order.  A row table over the N ids then takes
    the mark's place and holds each one's row among them, read at the
    pairs' ends.  The table has the narrowest unsigned type that holds
    every row, so a call with up to 256 distinct ends holds one byte per
    vertex and the routing suite's chunks two, and it makes no O(N) pass
    beyond the mark and its scan.  Each distinct endpoint's chain is made
    once, and read once from the hub end, where column c holds the
    ancestor c steps below the hub.  Two chains agree on a prefix of
    those columns exactly when they share a subnet; its length is the
    splice column, which fixes each pair's two hop counts.  The hub
    columns are laid out as rows, so each is one contiguous gather, and
    the splice is found one column at a time over the pairs that still
    agree: most pairs drop out at the hub or a step below it.  The keys
    just below the splice, and each one's companion key, made once per
    end, are read by flat index.  No hop is copied per pair: the result
    is the chains and those counts (see ``RouteBatch``).  An id outside
    [0, N) raises ``ValueError``.
    """
    m, t = graph.m, graph.t
    a, b = np.asarray(a_ids, np.int64), np.asarray(b_ids, np.int64)
    graph.check_ids(a, b)
    n = len(graph.birth)
    mark = np.zeros(n, bool)
    mark[a] = mark[b] = True
    ends = np.flatnonzero(mark)
    del mark  # the row table takes its place, read only at marked ids
    row = np.empty(n, np.min_scalar_type(max(len(ends) - 1, 0)))
    row[ends] = np.arange(len(ends))
    ea, eb = row[a].astype(np.int64), row[b].astype(np.int64)
    chain, length = _ancestor_keys(graph, ends)
    # hub column c of every end, as row c: its ancestor c steps below the hub, -1 past its end
    col = length - 1 - np.arange(t + 1)[:, None]
    hub = np.where(col >= 0, chain[np.arange(len(ends)), np.maximum(col, 0)], -1)

    len_a, len_b = length[ea], length[eb]
    # the splice column: the first hub column where the chains differ, found one column at a
    # time over the pairs that still match; a pair a == b matches throughout, and splices at a
    loop = a == b
    common = np.zeros(len(a), np.int64)
    p, xa, xb = np.arange(len(a)), ea, eb
    for c, keys in enumerate(hub):
        hit = np.flatnonzero(keys[xa] == keys[xb])  # a gather by index: a bool mask compacts far slower
        if not len(hit):
            break
        p, xa, xb = p[hit], xa[hit], xb[hit]
        common[p] = c + 1
    np.copyto(common, len_a, where=loop)
    same = common > 0  # the hubs match
    split = same & (common < len_a) & (common < len_b)  # neither end is the splice vertex
    # the vertices just below the splice sit at hub column `common`, read by flat index where
    # split puts common below t + 1; the companion flips the index within its odd/even pair,
    # which moves the key by one, so each hub key's companion key is made once per end
    companion = hub + np.where(hub % ((2 * m) ** t + 1) % 2 == 1, 1, -1)
    below = np.minimum(common, t) * len(ends)
    shortcut = split & (companion.reshape(-1)[below + ea] == hub.reshape(-1)[below + eb])
    ops = len_a + len_b - 2 + split
    ops[loop] = 0

    return RouteBatch(
        chains=chain,
        a_row=ea,
        b_row=eb,
        a_hops=len_a + same - common - shortcut,  # len_a where the hubs differ: common is 0 there
        b_hops=len_b - common,
        ops_used=ops,
    )


def bfs_distances(graph: KochGraph, source: int) -> np.ndarray:
    """Exact distances from one vertex to every vertex, the routing oracle; ids outside [0, N) raise ValueError."""
    graph.check_ids(source)
    n = graph.n_vertices
    return _kernels.pair_distances(*graph.csr, np.full(n, source), np.arange(n))[0]
