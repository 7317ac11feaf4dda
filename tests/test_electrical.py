import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from kochnet import (
    build,
    current_flow_betweenness,
    parse_label,
    path_profile,
    route,
    solve,
    voltage_gap,
)
from kochnet import electrical, verify
from kochnet.centrality import betweenness_counts
from kochnet.electrical import CFB_EXHAUSTIVE_MAX_N, RESIDUAL_TOL, _exhaustive_cfb, _kcl_residual
from kochnet.errors import KochError, SizeCapError
from kochnet.graph import triangle_count, vertex_count
from kochnet.verify import FAIL, PASS, electrical_suite

from conftest import adjacency, cached_graph, chain_splits, corner_pair_ends, laplacian


def _vid(graph, text):
    return graph.vertex_by_label(parse_label(text, graph.m))


class TestSolve:
    def test_triangle_base_case(self):
        graph = cached_graph(2, 0)
        prof = solve(graph, 0, 1)
        assert abs(prof.effective_resistance - 2 / 3) < 1e-12
        assert abs(prof.potentials[2] - prof.effective_resistance / 2) < 1e-12

    def test_k11_cross_pair(self):
        graph = cached_graph(1, 1)
        prof = solve(graph, _vid(graph, "10.1"), _vid(graph, "20.1"))
        assert abs(prof.effective_resistance - 2.0) < 1e-9

    def test_swap_negates_currents(self):
        graph = cached_graph(1, 2)
        fwd = solve(graph, 4, 19)
        rev = solve(graph, 19, 4)
        assert np.max(np.abs(fwd.edge_currents + rev.edge_currents)) < 1e-9
        assert abs(fwd.effective_resistance - rev.effective_resistance) < 1e-9

    def test_kirchhoff_at_interior_vertices(self):
        graph = cached_graph(1, 1)
        prof = solve(graph, 0, 1)
        net = np.zeros(graph.n_vertices)
        for eid, (u, v) in enumerate(corner_pair_ends(graph)):
            net[u] -= prof.edge_currents[eid]
            net[v] += prof.edge_currents[eid]
        assert abs(net[0] + 1.0) < 1e-10  # source pushes one unit out
        assert abs(net[1] - 1.0) < 1e-10
        mask = np.ones(graph.n_vertices, bool)
        mask[[0, 1]] = False
        assert np.max(np.abs(net[mask])) < 1e-10

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            solve(cached_graph(1, 1), 2, 2)

    def test_k26_far_pair_meets_tolerance(self):
        # evaluated as laplacian @ phi, this pair's residual is 1.2e-10: the
        # round-off of deg * phi products at the hubs, not error in the solve
        graph = build(2, 6)
        s, v = 8200, 223642
        prof = solve(graph, s, v)
        d = route(graph.m, graph.t, graph.label_of(s), graph.label_of(v)).length
        b = np.zeros(graph.n_vertices)
        b[s], b[v] = 1.0, -1.0
        drops = prof.edge_currents.reshape(-1, 3)  # by triangle row
        assert np.max(np.abs(_kcl_residual(graph, drops, b))) < RESIDUAL_TOL
        assert abs(prof.effective_resistance - 2 * d / 3) < 1e-9

    def test_unit_voltage_rescale(self):
        # path_profile and voltage_gap divide solve's own field by R_eff, to the bit
        graph = cached_graph(1, 2)
        s, v = _vid(graph, "100.1"), _vid(graph, "200.3")
        field = solve(graph, s, v)
        unit_drop = field.potentials / field.effective_resistance
        prof = path_profile(graph, s, v)
        assert prof.field.effective_resistance == field.effective_resistance
        assert np.array_equal(prof.field.potentials, field.potentials)
        assert np.array_equal(prof.field.edge_currents, field.edge_currents)
        path = route(graph.m, graph.t, graph.label_of(s), graph.label_of(v))
        ids = [graph.vertex_by_label(h) for h in path.hops]
        adj = [set(row) for row in adjacency(graph)]
        mids = [next(iter(adj[a] & adj[b])) for a, b in zip(ids, ids[1:])]
        assert prof.on_path_voltages == unit_drop[ids].tolist()
        assert prof.companion_voltages == unit_drop[mids].tolist()
        assert prof.on_path_voltages[0] == 1.0 and prof.on_path_voltages[-1] == 0.0
        assert np.array_equal(voltage_gap(field).spectrum, np.sort(unit_drop))

    def test_results_are_frozen(self):
        prof = path_profile(cached_graph(1, 1), 3, 7)
        for result, name in ((prof.field, "potentials"), (prof, "thm_split_ok"), (prof, "field")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, None)


class TestPathProfile:
    def test_k11_progressions(self):
        graph = cached_graph(1, 1)
        prof = path_profile(graph, _vid(graph, "10.1"), _vid(graph, "20.1"))
        assert prof.distance == 3
        np.testing.assert_allclose(prof.on_path_voltages, [1, 2 / 3, 1 / 3, 0], atol=1e-9)
        np.testing.assert_allclose(prof.companion_voltages, [5 / 6, 1 / 2, 1 / 6], atol=1e-9)
        assert len(prof.support_edges) == 9
        assert prof.thm_support_ok and prof.thm_voltages_ok and prof.thm_split_ok
        assert abs(prof.field.effective_resistance - 2.0) < 1e-9

    def test_makes_no_edge_list(self):
        # drops per triangle row, currents by corner-pair position, the chain found by arithmetic
        graph = build(1, 3)
        path_profile(graph, 5, graph.n_vertices - 1)
        assert not {"edges", "csr"} & vars(graph).keys()
        assert not hasattr(graph, "_edge_rank")

    def test_hub_pair_split(self):
        graph = cached_graph(3, 0)
        prof = path_profile(graph, 0, 1)
        ((direct, da, db),) = chain_splits(graph, prof.field, 0, 1)
        assert abs(direct - 2 / 3) < 1e-9
        assert abs(da - 1 / 3) < 1e-9 and abs(db - 1 / 3) < 1e-9

    def test_all_pairs_k11(self):
        graph = cached_graph(1, 1)
        for s in range(graph.n_vertices):
            for v in range(s + 1, graph.n_vertices):
                prof = path_profile(graph, s, v)
                assert prof.thm_support_ok and prof.thm_voltages_ok and prof.thm_split_ok
                assert abs(prof.field.effective_resistance - 2 * prof.distance / 3) < 1e-9
                assert prof.field.effective_resistance <= prof.distance + 1e-12

    def test_fifty_seeded_pairs_k22(self):
        graph = cached_graph(2, 2)
        rng = np.random.default_rng(0xC0FFEE)
        seen = set()
        while len(seen) < 50:
            s, v = rng.integers(0, graph.n_vertices, 2)
            if s != v:
                seen.add((min(s, v), max(s, v)))
        for s, v in sorted(seen):
            prof = path_profile(graph, int(s), int(v))
            assert prof.max_offpath_current < 1e-9
            assert prof.thm_support_ok and prof.thm_voltages_ok and prof.thm_split_ok
            assert abs(prof.field.effective_resistance - 2 * prof.distance / 3) < 1e-9

    @pytest.mark.parametrize("m,t", [(1, 0), (1, 3), (2, 2), (3, 2)])
    def test_chain_path_is_the_label_route(self, m, t):
        # every ordered pair, a == b among them: the ids climbed by the triangle table are route's hops
        graph = cached_graph(m, t)
        for a in range(graph.n_vertices):
            for b in range(graph.n_vertices):
                hops = route(m, t, graph.label_of(a), graph.label_of(b)).hops
                assert electrical._chain_path(graph, a, b) == [graph.vertex_by_label(h) for h in hops]

    def test_builds_no_label_objects(self, label_count):
        # the route is taken on ids and label keys, with no Label per vertex
        graph = build(2, 3)
        prof = path_profile(graph, 7, 400)
        assert label_count() == 0
        ref = cached_graph(2, 3)
        assert type(prof.distance) is int
        assert prof.distance == route(2, 3, ref.label_of(7), ref.label_of(400)).length

    def test_plateaus(self):
        # zero current on a 1-ohm edge means equal potentials: every dangling
        # subtree sits at its attachment potential
        graph = cached_graph(1, 2)
        prof = path_profile(graph, 0, 1)
        for eid, (u, v) in enumerate(corner_pair_ends(graph)):
            if eid not in prof.support_edges:
                assert abs(prof.field.potentials[u] - prof.field.potentials[v]) < 1e-9


CFB_GRAPHS = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 2)]


class TestCurrentFlow:
    def test_triangle_uniform(self):
        values = current_flow_betweenness(cached_graph(1, 0))
        np.testing.assert_allclose(values, 1 / 9, atol=1e-12)

    def test_k11_grouping(self):
        values = current_flow_betweenness(cached_graph(1, 1))
        hubs = values[:3]
        sons = values[3:]
        assert np.max(np.abs(hubs - hubs[0])) < 1e-9
        assert np.max(np.abs(sons - sons[0])) < 1e-9
        assert hubs[0] > sons[0]

    def test_cap(self):
        graph = cached_graph(2, 3)
        assert graph.n_vertices > CFB_EXHAUSTIVE_MAX_N
        with pytest.raises(SizeCapError):
            _exhaustive_cfb(graph)
        assert current_flow_betweenness(graph).shape == (graph.n_vertices,)

    def test_exhaustive_matches_pair_sum(self):
        # independent route: solve() per pair and accumulate by hand
        graph = cached_graph(1, 1)
        n = graph.n_vertices
        totals = np.zeros(n)
        for s in range(n):
            for v in range(s + 1, n):
                prof = solve(graph, s, v)
                through = np.zeros(n)
                for eid, (a, b) in enumerate(corner_pair_ends(graph)):
                    through[a] += abs(prof.edge_currents[eid])
                    through[b] += abs(prof.edge_currents[eid])
                through *= 0.5
                through[[s, v]] = 0.0
                totals += through
        expected = totals / (n * (n - 1) // 2)
        np.testing.assert_allclose(_exhaustive_cfb(graph), expected, atol=1e-9)
        np.testing.assert_allclose(current_flow_betweenness(graph), expected, atol=1e-9)

    def test_exhaustive_matches_per_pair_accumulation(self):
        # drops from a dense pseudo-inverse, accumulated one pair at a time
        graph = cached_graph(1, 3)
        n = graph.n_vertices
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        potentials = np.linalg.pinv(laplacian(graph).toarray())
        drops = potentials[u] - potentials[v]  # column j: unit current injected at j
        totals = np.zeros(n)
        for s in range(n):
            for t in range(s + 1, n):
                current = np.abs(drops[:, s] - drops[:, t])
                through = np.zeros(n)
                np.add.at(through, u, current / 2)
                np.add.at(through, v, current / 2)
                through[[s, t]] = 0.0
                totals += through
        expected = totals / (n * (n - 1) // 2)
        np.testing.assert_allclose(_exhaustive_cfb(graph), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(current_flow_betweenness(graph), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("m,t", CFB_GRAPHS)
    def test_exhaustive_matches_cactus_closed_form(self, m, t, small_blocks, monkeypatch):
        # a pair's whole current passes each vertex interior to its path, and
        # a third of it passes the third corner of each triangle it crosses:
        # 3 C(N,2) cfb(v) = 3 count(v) + sum over v's triangles of the other parts' product
        graph = cached_graph(m, t)
        n = graph.n_vertices
        parts = graph.corner_parts
        others = parts[:, [1, 0, 0]] * parts[:, [2, 2, 1]]  # row k: product at corner k
        crossing = np.zeros(n, np.int64)
        np.add.at(crossing, graph.triangles.ravel(), others.ravel())
        pairs = n * (n - 1) // 2
        expected = (3 * betweenness_counts(graph)[0] + crossing) / (3 * pairs)
        if small_blocks:  # the oracle's edge rows reduced 5 at a time, most often with a short last block
            monkeypatch.setattr(electrical, "_CFB_BLOCK_ROWS", 5)
        np.testing.assert_allclose(_exhaustive_cfb(graph), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("m,t", CFB_GRAPHS)
    def test_structural_matches_laplacian_oracle(self, m, t, small_blocks, monkeypatch):
        graph = cached_graph(m, t)
        if small_blocks:
            monkeypatch.setattr(electrical, "_CFB_BLOCK_ROWS", 5)
        np.testing.assert_allclose(
            current_flow_betweenness(graph), _exhaustive_cfb(graph), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("m,t", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2)])
    def test_matches_networkx(self, m, t):
        nx = pytest.importorskip("networkx")
        graph = cached_graph(m, t)
        n = graph.n_vertices
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(graph.edges.tolist())
        ref = nx.current_flow_betweenness_centrality(g, normalized=False)
        expected = np.array([ref[v] for v in range(n)]) / (n * (n - 1) // 2)
        np.testing.assert_allclose(current_flow_betweenness(graph), expected, rtol=0, atol=1e-12)

    def test_birth_step_symmetry_and_order_above_oracle_cap(self):
        graph = cached_graph(2, 3)
        values = current_flow_betweenness(graph)
        steps = [values[graph.birth == b] for b in range(graph.t + 1)]
        assert all(np.ptp(step) == 0 for step in steps)  # equal integer numerators
        assert all(steps[b].min() > steps[b + 1].max() for b in range(graph.t))


class TestVoltageGap:
    def test_triangle(self):
        gap = voltage_gap(solve(cached_graph(1, 0), 0, 1))
        assert abs(gap.gap - 0.5) < 1e-12
        np.testing.assert_allclose(gap.spectrum, [0, 0.5, 1], atol=1e-12)

    def test_k11_hub_pair_plateaus(self):
        gap = voltage_gap(solve(cached_graph(1, 1), 0, 1))
        spectrum = gap.spectrum
        # subtree plateaus: values only at 0, 1/2, 1, three vertices each
        np.testing.assert_allclose(spectrum, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1], atol=1e-9)

    def test_control_beats_koch(self):
        # the community-gap control: two triangles joined by the bridge (2, 3), unit current in
        # at 0 and out at 3, solved densely with 3 grounded; verify compares against its exact gap
        lap = np.zeros((6, 6))
        for u, v in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]:
            lap[u, u] += 1
            lap[v, v] += 1
            lap[u, v] = lap[v, u] = -1
        keep = np.arange(6) != 3
        phi = np.zeros(6)
        phi[keep] = np.linalg.solve(lap[keep][:, keep], np.eye(6)[0, keep])
        control = float(np.max(np.diff(np.sort(phi / phi[0]))))
        assert abs(control - 3 / 5) < 1e-15
        koch = voltage_gap(solve(cached_graph(1, 1), 0, 1)).gap
        assert control > koch
        assert verify._CONTROL_GAP == 3 / 5
        check = next(c for c in electrical_suite(cached_graph(1, 1)) if c.id == "electrical/community-gap")
        assert check.status == PASS and check.detail == "koch_hub_gap=0.5 control=0.6"


def test_laplacian_structure():
    graph = cached_graph(1, 1)
    lap = laplacian(graph).toarray()
    assert np.allclose(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0)
    assert lap[0, 0] == graph.degrees[0]


def test_pinv_and_grounded_solve_agree():
    graph = cached_graph(1, 1)
    lap = laplacian(graph).toarray()
    pinv = np.linalg.pinv(lap)
    for s, v in [(0, 5), (3, 8)]:
        r_pinv = pinv[s, s] + pinv[v, v] - 2 * pinv[s, v]
        assert abs(solve(graph, s, v).effective_resistance - r_pinv) < 1e-9


def _row_factor(graph):
    """The grounded Laplacian's LDL^T factorized row by row, each pivot its degree less what eliminated sons took.

    Rows go as ``electrical._grounded_solve`` eliminates them: son b, then son a, of every triangle row of one
    birth step, step t first, the hub row last.  Returns (D_b, D_a, the a-f entry once b is gone) per row.
    """
    tri = graph.triangles
    batches = [slice(triangle_count(graph.m, s - 1), triangle_count(graph.m, s)) for s in range(graph.t, 0, -1)]
    pivot = graph.degrees.astype(np.float64)
    b_pivot, a_pivot, a_coupling = (np.empty(len(tri)) for _ in range(3))
    for rows in [*batches, slice(0, 1)]:
        a, b = tri[rows, 1], tri[rows, 2]
        b_pivot[rows] = pivot[b]
        a_pivot[rows] = pivot[a] - 1 / b_pivot[rows]
        a_coupling[rows] = -1 - 1 / b_pivot[rows]
        np.subtract.at(pivot, tri[rows, 0], 1 / b_pivot[rows] + a_coupling[rows] ** 2 / a_pivot[rows])
    return b_pivot, a_pivot, a_coupling


_FACTOR_GRID = [(m, t) for m in range(1, 5) for t in range(6) if vertex_count(m, t) <= 10**5]


@pytest.mark.parametrize("m,t", _FACTOR_GRID)
def test_row_factor_is_four_constants(m, t):
    # every row's D_b, D_a, L_ab = L_fb and L_fa, and the a-f entry and 1 / D_a the solve's steps stand for
    b_pivot, a_pivot, a_coupling = _row_factor(cached_graph(m, t))
    entries = {
        "D_b": (b_pivot, 2.0),
        "D_a": (a_pivot, 1.5),
        "L_fb": (-1 / b_pivot, -0.5),
        "L_fa": (a_coupling / a_pivot, -1.0),
        "a_coupling": (a_coupling, -1.5),
        "1 / D_a": (1 / a_pivot, 1 / 1.5),
    }
    for name, (got, want) in entries.items():
        assert got.tobytes() == np.full(len(got), want).tobytes(), name


@pytest.mark.parametrize("m,t", [(1, 3), (2, 2), (3, 2)])
def test_factor_has_no_fill(m, t):
    # L from the four constants over the triangle table: its entries below the diagonal sit on the grounded
    # graph's edges, and L D L^T is its Laplacian exactly
    graph = cached_graph(m, t)
    n = graph.n_vertices
    lower, pivots = np.eye(n), np.zeros(n)
    f, a, b = graph.triangles.T
    lower[a, b] = lower[f, b] = -0.5
    lower[f, a] = -1.0
    pivots[a], pivots[b] = 1.5, 2.0
    lower, pivots = lower[1:, 1:], pivots[1:]  # hub 0 is grounded
    assert np.count_nonzero(lower) - (n - 1) == graph.n_edges - graph.degrees[0]
    grounded = laplacian(graph).toarray()[1:, 1:]
    assert np.array_equal(lower @ np.diag(pivots) @ lower.T, grounded)


@pytest.mark.parametrize("m,t", [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 2)])
def test_factor_solve_matches_sparse_solve(m, t):
    # the cactus factor against a general sparse solve of the grounded Laplacian
    graph = cached_graph(m, t)
    n = graph.n_vertices
    grounded = laplacian(graph)[1:, 1:].tocsc()
    single = np.zeros(n)
    single[n - 1], single[n // 2] = 1.0, -1.0
    multi = np.eye(n)
    multi[0] -= 1.0  # column j: unit current from j to hub 0, as the current-flow oracle solves
    for rhs in (single, multi):
        want = np.zeros(rhs.shape)
        want[1:] = spla.spsolve(grounded, rhs[1:])
        got = electrical._grounded_solve(graph, rhs)
        assert got.shape == rhs.shape and np.all(got[0] == 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _moved_father(graph, row, father):
    """``graph`` with triangle row ``row`` hung at ``father``: a table the build does not make."""
    triangles = graph.triangles.copy()
    triangles[row, 0] = father
    return dataclasses.replace(graph, triangles=triangles)


def test_father_in_its_sons_batch_fails_the_residual():
    # the last row's father moved to the next id, the first son of the youngest batch: that father's rows
    # are eliminated with it, not before, so the constants are wrong there and the residual says so
    graph = cached_graph(1, 4)
    bad = _moved_father(graph, -1, graph.triangles[-1, 0] + 1)
    assert (bad.triangles[-1, 0] - 1) // 2 >= triangle_count(1, 3)  # a son of a step-4 row
    with pytest.raises(KochError, match="solver residual"):
        electrical_suite(bad)


def test_youngest_first_table_needs_no_canonical_counts():
    # a step-4 row moved from its step-2 father to another step-2 vertex: the elimination still goes
    # youngest first, so the constants hold, though the degrees and subtrees are no longer the build's
    graph = cached_graph(1, 4)
    first = triangle_count(1, 3)  # the first step-4 row
    row = first + int(np.flatnonzero(graph.birth[graph.triangles[first:, 0]] == 2)[0])
    other = graph.triangles[row, 0] + 1
    assert graph.birth[other] == 2
    moved = _moved_father(graph, row, other)
    assert (laplacian(moved) != laplacian(graph)).nnz
    n = moved.n_vertices
    grounded = laplacian(moved)[1:, 1:].tocsc()
    single = np.zeros(n)
    single[n - 1], single[n // 2] = 1.0, -1.0
    multi = np.eye(n)
    multi[0] -= 1.0
    for rhs in (single, multi):
        got = electrical._grounded_solve(moved, rhs)
        electrical._checked_drops(moved, got, rhs)  # raises if the residual is above RESIDUAL_TOL
        want = np.zeros(rhs.shape)
        want[1:] = spla.spsolve(grounded, rhs[1:])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the degrees are no longer uniform in a birth step, so only the current-flow symmetry fails
    statuses = {c.id: c.status for c in electrical_suite(moved)}
    assert statuses.pop("electrical/cfb-symmetry") == FAIL
    assert set(statuses.values()) == {PASS}


@pytest.mark.parametrize("m,t", [(1, 3), (2, 2), (3, 2)])
def test_edgewise_residual_is_laplacian_residual(m, t):
    graph = cached_graph(m, t)
    n = graph.n_vertices
    for s, v in [(0, n - 1), (n // 2, 1), (n - 2, n // 3)]:
        prof = solve(graph, s, v)
        b = np.zeros(n)
        b[s], b[v] = 1.0, -1.0
        edgewise = _kcl_residual(graph, prof.edge_currents.reshape(-1, 3), b)
        expected = laplacian(graph) @ prof.potentials - b
        np.testing.assert_allclose(edgewise, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("k,per_block", [(1, None), (6, None), (6, 1), (6, 4), (5, 2)])
def test_electrical_suite_solves_pair_columns_in_blocks(monkeypatch, k, per_block):
    # the k pairs' fields are the columns of ceil(k / block) solves, block = 2^16 // N; the hub
    # field serves the triangle base and the community gap, and the reversed first pair the
    # reciprocity check, one column each, both solved before the first block
    graph = cached_graph(2, 3)
    n = graph.n_vertices
    assert n > CFB_EXHAUSTIVE_MAX_N  # so no multi-column oracle solve runs
    if per_block is not None:
        monkeypatch.setattr(electrical, "_FIELD_BLOCK_ENTRIES", per_block * n)
    block = electrical._FIELD_BLOCK_ENTRIES // n
    assert block == (per_block or (1 << 16) // n)
    calls = []
    solve_columns = electrical._grounded_solve

    def counted(graph, rhs):
        calls.append(rhs.shape)
        return solve_columns(graph, rhs)

    monkeypatch.setattr(electrical, "_grounded_solve", counted)
    checks = electrical_suite(graph, n_pairs=k)
    assert [c.status for c in checks] == [PASS] * len(checks)
    widths = [min(block, k - lo) for lo in range(0, k, block)]
    assert len(widths) == -(-k // block)
    assert calls == [(n, 1), (n, 1)] + [(n, w) for w in widths]


def _bits(x) -> bytes:
    return np.asarray(x, np.float64).tobytes()


@pytest.mark.parametrize("m,t", [(1, 4), (2, 3)])
@pytest.mark.parametrize("per_block", [1, 7, None])
def test_block_fields_equal_one_pair_solves(monkeypatch, m, t, per_block):
    # 50 pairs in blocks of one column, in 7 full blocks of 7 and a partial one, and all in one
    graph = cached_graph(m, t)
    pairs = verify._probe_pairs(graph.n_vertices, 0, 50)
    assert len(pairs) == 50
    alone = [path_profile(graph, s, v) for s, v in pairs]
    if per_block is not None:
        monkeypatch.setattr(electrical, "_FIELD_BLOCK_ENTRIES", per_block * graph.n_vertices)
    block = electrical._FIELD_BLOCK_ENTRIES // graph.n_vertices
    assert block == per_block if per_block is not None else block >= 50
    for got, want in zip(electrical._path_profiles(graph, pairs), alone, strict=True):
        assert _bits(got.field.potentials) == _bits(want.field.potentials)
        assert _bits(got.field.edge_currents) == _bits(want.field.edge_currents)
        assert _bits(got.field.effective_resistance) == _bits(want.field.effective_resistance)
        for f in dataclasses.fields(got):
            if f.name != "field":
                assert getattr(got, f.name) == getattr(want, f.name), f.name
