"""Unit-resistor network analysis on built Koch graphs.

Every edge is a 1-ohm resistor.  Because each edge lies in exactly one
triangle and the triangles meet only at vertices, the current injected
between two vertices localizes to the chain of triangles along their
(unique) shortest path: each chain triangle behaves as 1 ohm in parallel
with a 2-ohm detour, so the pair resistance is (2/3) * distance, the
on-path voltages fall arithmetically, and each triangle splits current
2/3 (direct edge) versus 1/3 (detour).  ``path_profile`` measures all of
that against the solver; nothing is assumed.  ``solve`` returns one
frozen field at unit current, and every other call reads such a field
without changing it: ``path_profile`` wraps its own in a frozen
``PathProfile`` with the chain checks, and ``voltage_gap`` takes one that
was already solved.  Currents are read at unit current; only the
reported voltages are divided by the effective resistance, at the
vertices they report, which puts them at a unit pair drop.

Every solve is a back-solve of one factorization per graph,
``KochGraph.laplacian_factor``: a numpy LDL^T of the Laplacian grounded at
hub 0, eliminated youngest vertex first, one birth step of triangles at a
time, with no fill-in.  Factor and solve are O(N) vectorized passes, one
or many right-hand-side columns at once.  Edge drops are made per
triangle row, so a reshape lays them out by corner-pair position.  Each
solve checks the max-norm of L phi - b against 1e-10, evaluated
edge-wise (Kirchhoff's current law: per vertex, the sum of the potential
drops on its edges minus the injection, using L = B^T B).  Summing O(1)
edge currents keeps that check at round-off size; a sparse product
L @ phi sums deg * phi terms instead, and on K(2,6), whose hubs have
degree 1458, its round-off alone reaches 1.2e-10.

Current-flow betweenness needs no solve: by the same localization a
pair's current passes whole through the cut vertices on its path and a
third of it through the detour corner of each triangle it crosses, so
the exact values over all C(N, 2) pairs come from the triangles' corner
parts in O(N), at every N.  Its oracle, ``_exhaustive_cfb`` (N <= 600),
back-solves one column per vertex and then reduces each edge's row of
drops on its own: sorted, the row gives the edge's current summed over
all pairs, and a sum of absolute differences at each endpoint takes out
that endpoint's own pairs.  That is O(E N log N) in blocks of edge rows,
with no loop over sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import vertex_betweenness_counts
from .errors import KochError, SizeCapError
from .graph import KochGraph

RESIDUAL_TOL = 1e-10
SUPPORT_EPS = 1e-9  # absolute current on unit injection
PROFILE_TOL = 1e-9  # absolute tolerance of ``path_profile``'s chain checks
CFB_EXHAUSTIVE_MAX_N = 600  # vertices: cap on the Laplacian oracle of current-flow betweenness
_CFB_BLOCK_ROWS = 128  # edge rows per block of the oracle's reduction


@dataclass(frozen=True)
class ElectricalProfile:
    """One solved field at unit current, target grounded."""

    potentials: np.ndarray
    edge_currents: np.ndarray  # oriented low-id -> high-id, at each edge's corner-pair position
    effective_resistance: float


@dataclass(frozen=True)
class PathProfile:
    """``path_profile``'s chain checks, read from one unit-current ``field``."""

    field: ElectricalProfile
    distance: int
    on_path_voltages: list[float]  # source to target, at a unit pair drop
    companion_voltages: list[float]  # each hop triangle's third corner, at a unit pair drop
    support_edges: frozenset[int]  # corner-pair positions of the edges carrying more than SUPPORT_EPS
    max_offpath_current: float  # largest current off the chain's 3d edges
    thm_support_ok: bool
    thm_voltages_ok: bool
    thm_split_ok: bool


def _row_drops(graph: KochGraph, phi: np.ndarray) -> np.ndarray:
    """phi[u] - phi[v] on the corner pairs (f, a), (f, b), (a, b) of every triangle row: (T, 3) + phi.shape[1:]."""
    a, b = phi[1::2], phi[2::2]  # every row's sons
    f = np.take(phi, graph.triangles[:, 0], axis=0)
    return np.stack((f - a, f - b, a - b), axis=1)


def _kcl_residual(graph: KochGraph, drops: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L @ phi - b evaluated edge-wise, from the ``_row_drops`` of phi.

    Equal to the Laplacian times phi, less b, in exact arithmetic; ``drops``
    and ``b`` may carry one column per solve.  Every vertex but hub 0 is a
    son of one row: only the fathers' sums are scattered.
    """
    net = -b
    net[1::2] += drops[:, 2] - drops[:, 0]
    net[2::2] -= drops[:, 1] + drops[:, 2]
    np.add.at(net, graph.triangles[:, 0], drops[:, 0] + drops[:, 1])
    return net


def _checked_drops(graph: KochGraph, phi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``_row_drops`` of phi, once the residual they give against b is within ``RESIDUAL_TOL``."""
    drops = _row_drops(graph, phi)
    net = _kcl_residual(graph, drops, b)
    residual = float(max(net.max(), -net.min()))  # the max-norm, with no array of absolute values
    if residual > RESIDUAL_TOL:
        raise KochError(f"solver residual {residual:.2e} above {RESIDUAL_TOL:.0e}")
    return drops


def solve(graph: KochGraph, source: int, target: int) -> ElectricalProfile:
    """Laplacian solve for one source/target pair at unit current.

    One ampere in at the source, out at the target; with the target
    grounded, the source potential equals the effective resistance.
    Ids outside [0, N) raise ``ValueError`` before anything is solved.
    """
    graph.check_ids(source, target)
    if source == target:
        raise ValueError("source and target must differ")
    b = np.zeros(graph.n_vertices)
    b[source] = 1.0
    b[target] = -1.0
    phi = graph.laplacian_factor.solve(b)
    phi -= phi[target]
    return ElectricalProfile(phi, _checked_drops(graph, phi, b).reshape(-1), float(phi[source]))


def _chain_path(graph: KochGraph, a: int, b: int) -> list[int]:
    """``routing.route``'s path from a to b, in O(t) on ids: the end with the larger id climbs to its father (a
    father's id is the smaller) until the two ends meet or are adjacent: two hubs, or one triangle row's sons."""
    up_a, up_b = [a], [b]
    while (x := up_a[-1]) != (y := up_b[-1]) and max(x, y) >= 3 and (x - 1) // 2 != (y - 1) // 2:
        up = up_a if x > y else up_b
        up.append(int(graph.triangles[(max(x, y) - 1) // 2, 0]))  # a son's father: its row's first corner
    if up_a[-1] == up_b[-1]:
        up_b.pop()  # the common vertex, once
    return up_a + up_b[::-1]


def path_profile(graph: KochGraph, source: int, target: int) -> PathProfile:
    """``solve``'s field checked against the triangle chain of the shortest path.

    Verifies that (a) current is confined to the 3d edges of the d
    triangles along the shortest path, (b) on-path voltages at a unit pair
    drop fall 1, (d-1)/d, ..., 0 with the chain midpoints at the half
    steps, (c) every chain triangle splits the unit pair current 2/3
    direct versus 1/3 detour, within ``PROFILE_TOL``.
    """
    field = solve(graph, source, target)
    r_eff = field.effective_resistance
    ids = np.array(_chain_path(graph, source, target))
    d = len(ids) - 1
    u, v = ids[:-1], ids[1:]
    w = graph.triangles[(np.maximum(u, v) - 1) // 2].sum(axis=1) - u - v  # the third corner of each hop's row
    # rows: the direct edge, then the detour's edges at u and at v; together the chain's 3d edges
    chain = graph.corner_pair(np.stack((u, u, v)), np.stack((v, w, w)))

    current = np.abs(field.edge_currents)
    support = frozenset(np.flatnonzero(current > SUPPORT_EPS).tolist())
    shares = current[chain]  # of the unit pair current
    split_ok = bool(np.all(np.abs(shares - [[2 / 3], [1 / 3], [1 / 3]]) < PROFILE_TOL))
    current[chain] = 0.0
    max_off = float(current.max())

    on_path = (field.potentials[ids] / r_eff).tolist()
    midpoints = (field.potentials[w] / r_eff).tolist()
    expected_path = [1.0 - k / d for k in range(d + 1)]
    expected_mid = [1.0 - (2 * k + 1) / (2 * d) for k in range(d)]
    return PathProfile(
        field=field,
        distance=d,
        on_path_voltages=on_path,
        companion_voltages=midpoints,
        support_edges=support,
        max_offpath_current=max_off,
        thm_support_ok=bool(max_off < PROFILE_TOL and support == frozenset(chain.ravel().tolist())),
        thm_voltages_ok=bool(
            all(abs(a - b) < PROFILE_TOL for a, b in zip(on_path, expected_path))
            and all(abs(a - b) < PROFILE_TOL for a, b in zip(midpoints, expected_mid))
        ),
        thm_split_ok=split_ok,
    )


def current_flow_betweenness(graph: KochGraph) -> np.ndarray:
    """Average interior current per vertex over all C(N, 2) source/target pairs.

    For an interior vertex the pair current is half the absolute currents
    on its incident edges; the pairs a vertex ends contribute 0 to it.
    A pair's whole current passes each vertex interior to its path, and a
    third of it passes the third corner of each triangle the path crosses,
    the triangles whose other two corner parts hold the pair.  So
    3 C(N, 2) cfb(v) = 3 count(v) + sum over v's triangles of the product
    of the other two corners' parts, with count(v) the exact betweenness
    count: an integer numerator over the corner parts, divided once.
    """
    n = graph.n_vertices
    parts = graph.corner_parts
    others = parts[:, [1, 0, 0]] * parts[:, [2, 2, 1]]  # column k: product at corner k's others
    numerator = 3 * vertex_betweenness_counts(graph)
    np.add.at(numerator, graph.triangles.ravel(), others.ravel())
    return numerator / (3 * (n * (n - 1) // 2))


def _exhaustive_cfb(graph: KochGraph) -> np.ndarray:
    """``current_flow_betweenness``'s oracle: one multi-column back-solve of the Laplacian.

    Column j of ``drops`` is the edge drops for unit current from j to hub
    0, so pair (s, t) carries x_s - x_t on an edge whose row is x.  Sorted
    ascending, the row gives the edge's total over all pairs as
    sum_r x_(r) (2r - N + 1).  An interior vertex takes half the current
    of each incident edge, so vertex v gets half of each incident edge's
    pair total less its spread at v, sum_t |x_v - x_t|: the pairs with v
    as an endpoint, which count 0.  Edge rows are reduced ``_CFB_BLOCK_ROWS`` at a time, which
    bounds the scratch arrays.  Capped at ``CFB_EXHAUSTIVE_MAX_N`` vertices.
    """
    n = graph.n_vertices
    if n > CFB_EXHAUSTIVE_MAX_N:
        raise SizeCapError(
            f"Laplacian current-flow betweenness capped at N={CFB_EXHAUSTIVE_MAX_N}; got N={n}"
        )
    b = np.eye(n)
    b[0] -= 1.0
    drops = _checked_drops(graph, graph.laplacian_factor.solve(b), b).reshape(graph.n_edges, n)
    edge_ends = graph.corner_pair_ends()
    rank = 2.0 * np.arange(n) - (n - 1)
    totals = np.zeros(n)
    for lo in range(0, graph.n_edges, _CFB_BLOCK_ROWS):
        rows = drops[lo : lo + _CFB_BLOCK_ROWS]
        ends = edge_ends[lo : lo + _CFB_BLOCK_ROWS]
        pair_total = (np.sort(rows, axis=1) * rank).sum(axis=1)
        at_ends = np.take_along_axis(rows, ends, axis=1)
        spread = np.abs(rows[:, None, :] - at_ends[:, :, None]).sum(axis=2)
        np.add.at(totals, ends, 0.5 * (pair_total[:, None] - spread))
    return totals / (n * (n - 1) // 2)


@dataclass(frozen=True)
class VoltageGap:
    gap: float
    spectrum: np.ndarray  # sorted potentials, normalized to a unit pair drop


def voltage_gap(field: ElectricalProfile) -> VoltageGap:
    """Largest jump in a solved field's sorted voltage spectrum, as a fraction of the pair drop.

    A strong two-community structure shows up as one dominant jump; the
    spectrum includes the probe vertices, so the statistic is 1/2 for a
    bare triangle probed across one edge.
    """
    spectrum = np.sort(field.potentials / field.effective_resistance)
    return VoltageGap(gap=float(np.max(np.diff(spectrum))), spectrum=spectrum)
