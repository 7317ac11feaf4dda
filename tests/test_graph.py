import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kochnet import Label, SizeCapError, UnknownLabelError, build, format_label
from kochnet import bfs_distances, current_flow_betweenness, exact_betweenness, path_profile, route_batch, solve
from kochnet import graph as graph_module
from kochnet.cli import _float_column, main
from kochnet.electrical import CFB_EXHAUSTIVE_MAX_N, _exhaustive_cfb
from kochnet.graph import (
    EDGE_CLASSES,
    KochGraph,
    edge_class_counts,
    edge_class_ids,
    _label_codes,
    edge_count,
    label_keys,
    triangle_count,
    vertex_count,
)
from kochnet.labels import l_max

from conftest import (
    adjacency,
    all_labels,
    cached_graph,
    corner_pair_ends,
    enumerate_labels,
    reference_betweenness,
    reference_build,
    reference_cfb,
    reference_edge_class,
    reference_write_dot,
    reference_write_edgelist,
    reference_write_json,
)


class TestCounts:
    @pytest.mark.parametrize(
        "m,t,n,e,tri",
        [
            (1, 1, 9, 12, 4),
            (1, 0, 3, 3, 1),
            (2, 2, 99, 147, 49),
        ],
    )
    def test_examples(self, m, t, n, e, tri):
        graph = cached_graph(m, t)
        assert graph.n_vertices == n
        assert len(graph.edges) == e
        assert len(graph.triangles) == tri

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_closed_forms(self, m, t):
        graph = cached_graph(m, t)
        assert graph.n_vertices == vertex_count(m, t)
        assert len(graph.edges) == edge_count(m, t)
        assert len(graph.triangles) == triangle_count(m, t)


class TestInvariants:
    @pytest.mark.parametrize("m,t", [(1, 2), (2, 2), (3, 1)])
    def test_each_edge_in_one_triangle(self, m, t):
        graph = cached_graph(m, t)
        cover: dict[tuple, int] = {}
        for a, b, c in graph.triangles:
            for u, v in ((a, b), (a, c), (b, c)):
                key = (u, v) if u < v else (v, u)
                cover[key] = cover.get(key, 0) + 1
        assert set(cover) == set(map(tuple, graph.edges.tolist()))
        assert all(c == 1 for c in cover.values())

    @pytest.mark.parametrize("m,t", [(1, 3), (2, 2), (3, 2)])
    def test_label_bijection(self, m, t):
        graph = cached_graph(m, t)
        labels = all_labels(graph)
        assert set(labels) == enumerate_labels(m, t)
        assert len(set(labels)) == graph.n_vertices
        for v, label in enumerate(labels):
            assert graph.vertex_by_label(label) == v

    def test_adjacency_sorted_and_symmetric(self):
        adj = adjacency(cached_graph(2, 2))
        for u, nbrs in enumerate(adj):
            assert nbrs == sorted(nbrs)
            assert len(nbrs) == len(set(nbrs))
            assert u not in nbrs
            for v in nbrs:
                assert u in adj[v]

    def test_degrees(self):
        graph = cached_graph(2, 2)
        for v, birth in enumerate(graph.birth.tolist()):
            assert graph.degrees[v] == 2 * 3 ** (2 - birth)

    def test_neighborhood_edge_count_is_half_degree(self):
        graph = cached_graph(2, 2)
        adj = adjacency(graph)
        sets = [set(nbrs) for nbrs in adj]
        for v in range(graph.n_vertices):
            inside = sum(1 for a in adj[v] for b in adj[v] if a < b and b in sets[a])
            assert inside == graph.degrees[v] // 2

    def test_companion_and_father_ids(self):
        graph = cached_graph(2, 2)
        ids = np.arange(graph.n_vertices)
        father, companion = graph.father_of(ids), graph.companion_of(ids)
        hub = graph.birth == 0
        assert (father[hub] == -1).all() and (companion[hub] == -1).all()
        assert (companion[companion[~hub]] == ids[~hub]).all()
        assert (graph.birth[father[~hub]] < graph.birth[~hub]).all()

    def test_edge_classes(self):
        graph = cached_graph(2, 2)
        counts = edge_class_counts(graph)
        tri = triangle_count(2, 2)
        assert counts == {"hub-hub": 3, "companion": tri - 1, "father-child": 2 * (tri - 1)}

    def test_deterministic_rebuild(self):
        a, b = build(2, 2), build(2, 2)
        assert all_labels(a) == all_labels(b)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.triangles, b.triangles)


@pytest.mark.parametrize("m,t", [(1, 2), (2, 2), (3, 2)])
def test_derived_index_matches_plain_rebuild(m, t):
    """Edges, CSR, each CSR slot's corner pair and edge->triangle, rebuilt from the triangle table alone."""
    graph = cached_graph(m, t)
    triangle_of, position = {}, {}
    for k, (a, b, c) in enumerate(graph.triangles.tolist()):
        for j, (u, v) in enumerate(((a, b), (a, c), (b, c))):
            triangle_of[(min(u, v), max(u, v))] = k
            position[(min(u, v), max(u, v))] = 3 * k + j
    edges = sorted(triangle_of)
    neighbors = [[] for _ in range(graph.n_vertices)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    indptr, indices, slot_ids = [0], [], []
    for u, row in enumerate(neighbors):
        for v in sorted(row):
            indices.append(v)
            slot_ids.append(position[(min(u, v), max(u, v))])
        indptr.append(len(indices))

    assert [tuple(e) for e in graph.edges.tolist()] == edges
    assert graph.csr[0].tolist() == indptr
    assert graph.csr[1].tolist() == indices
    slot_rows = np.repeat(np.arange(graph.n_vertices), np.diff(graph.csr[0]))
    assert graph.corner_pair(slot_rows, graph.csr[1]).tolist() == slot_ids
    assert ((graph.edges[:, 1] - 1) // 2).tolist() == [triangle_of[e] for e in edges]  # the documented rule
    assert adjacency(graph) == [sorted(row) for row in neighbors]
    assert graph.degrees.tolist() == [len(row) for row in neighbors]

    u, v = zip(*edges)
    assert graph.corner_pair(u, v).tolist() == [position[e] for e in edges]
    assert graph.corner_pair(v, u).tolist() == [position[e] for e in edges]
    assert graph.corner_pair_ends().tolist() == [list(e) for e in sorted(edges, key=position.get)]
    non_edge = next((0, w) for w in range(1, graph.n_vertices) if (0, w) not in position)
    assert graph.corner_pair(*non_edge) == -1
    assert graph.corner_pair(non_edge[1], non_edge[0]) == -1
    assert graph.corner_pair(5, 5) == -1
    assert graph.corner_pair(graph.n_vertices - 1, graph.n_vertices - 1) == -1


@pytest.mark.parametrize("m,t", [(1, 3), (2, 2)])
def test_corner_pair_matches_pair_set(m, t):
    # every ordered pair, u == v and the hubs included, and ids outside [0, N) on either side
    graph = cached_graph(m, t)
    n = graph.n_vertices
    position = {}
    for k, (f, a, b) in enumerate(graph.triangles.tolist()):
        for j, pair in enumerate(((f, a), (f, b), (a, b))):
            position[pair] = 3 * k + j
    ids = np.concatenate((np.arange(-2, n + 3), [2 * n + 1, NEAR_2_31, -NEAR_2_31]))
    u, v = np.repeat(ids, len(ids)), np.tile(ids, len(ids))
    want = [position.get((min(x, y), max(x, y)), -1) for x, y in zip(u.tolist(), v.tolist())]
    got = graph.corner_pair(u, v)
    assert got.dtype == np.int64 and got.tolist() == want
    assert graph.corner_pair(u.astype(np.int32), v.astype(np.int32)).tolist() == want
    assert graph.corner_pair(5, 5) == -1 and graph.corner_pair(0, 1) == 0


def test_corner_pair_refuses_ids_outside_the_graph():
    # an id past either end once aliased another edge's key u * N + v: with N = 9, (0, 11) read
    # as (1, 2) and (-1, 10) as (0, 1)
    graph = cached_graph(1, 1)
    assert graph.n_vertices == 9
    for u, v in ((0, 11), (11, 0), (-1, 10), (10, -1), (0, 9), (-1, -1), (9, 9)):
        assert graph.corner_pair(u, v) == -1
    assert graph.corner_pair([0, -1, 1], [11, 10, 2]).tolist() == [-1, -1, int(graph.corner_pair(1, 2))]
    ids = np.array([[0, -1, 1], [11, 10, 2]], np.int32)
    assert graph.corner_pair(*ids).tolist() == [-1, -1, 2]


REFERENCE_SIZES = [(1, t) for t in range(5)] + [(2, t) for t in range(4)] + [(3, t) for t in range(3)]


@pytest.mark.parametrize("m,t", REFERENCE_SIZES)
def test_array_build_matches_reference_loop(m, t):
    """The per-step array build equals the per-vertex loop it replaced, vertex by vertex."""
    graph = build(m, t)
    vertices, triangles = reference_build(m, t)
    ids = np.arange(graph.n_vertices)
    assert graph.triangles.tolist() == [list(row) for row in triangles]
    assert graph.birth.tolist() == [r.birth_step for r in vertices]
    assert all_labels(graph) == [r.label for r in vertices]
    assert graph.father_of(ids).tolist() == [-1 if r.father_id is None else r.father_id for r in vertices]
    assert graph.companion_of(ids).tolist() == [
        -1 if r.companion_id is None else r.companion_id for r in vertices
    ]
    classes = [reference_edge_class(vertices, u, v) for u, v in corner_pair_ends(graph)]
    assert [EDGE_CLASSES[i] for i in edge_class_ids(graph).tolist()] == classes
    assert edge_class_counts(graph) == {c: classes.count(c) for c in ("hub-hub", "companion", "father-child")}


@pytest.mark.parametrize(
    "s,v",
    [
        (-1, 5),
        (0, 33),
        (32, -1),
        pytest.param(np.int32(-1), 5, id="int32(-1)-5"),
        pytest.param(0, np.int64(33), id="0-int64(33)"),
    ],
)
def test_vertex_ids_outside_the_graph_are_refused_first(s, v):
    # on K(1,2), N = 33: -1 once acted on vertex 32, 33 raised a bare IndexError, and solve(32, -1)
    # failed its residual check; each call now refuses before it builds or solves anything
    graph = build(1, 2)
    bad = s if not 0 <= s < 33 else v
    calls = [
        lambda: solve(graph, s, v),
        lambda: path_profile(graph, s, v),
        lambda: route_batch(graph, [s], [v]),
        lambda: bfs_distances(graph, bad),
        lambda: graph.label_of(bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"vertex ids must lie in \[0, 33\)"):
            call()
    assert not {"csr", "_label_classes"} & vars(graph).keys()


def test_vertex_ids_inside_the_graph_pass_as_any_integer_type():
    # a scalar id is compared in plain Python, whatever its integer type; N = 33 on K(1,2)
    graph = build(1, 2)
    for low, high in [(0, 32), (np.uint8(0), np.uint8(32)), (np.int32(0), np.int32(32)), (np.int64(0), np.int64(32))]:
        assert format_label(graph.label_of(low)) == "1"
        assert graph.label_of(high) == graph.label_of(32)
        assert solve(graph, low, high).potentials[high] == 0.0
        assert bfs_distances(graph, high)[high] == 0


def test_route_batch_checks_every_id_and_takes_no_ids():
    graph = build(1, 2)
    with pytest.raises(ValueError, match=r"vertex ids must lie in \[0, 33\)"):
        route_batch(graph, [0, 33], [1, 2])
    with pytest.raises(ValueError, match=r"vertex ids must lie in \[0, 33\)"):
        route_batch(graph, [0, 1], [2, -1])
    empty = route_batch(graph, [], [])
    assert empty.chains.shape == (0, 3)
    assert all(len(x) == 0 for x in (empty.a_row, empty.b_row, empty.a_hops, empty.b_hops, empty.ops_used))


def test_labels_built_on_first_use():
    # the label arrays are the one stored form of the labels: no list or dict of Labels exists
    graph = build(1, 2)
    assert not {"labels", "label_index", "adjacency", "vertex_by_labels"} & set(dir(graph))
    assert format_label(graph.label_of(3)) == "10.1"
    assert "_label_classes" not in vars(graph)
    assert graph.vertex_by_label(graph.label_of(3)) == 3
    assert set(vars(graph)) == {"m", "t", "triangles", "birth", "subnet", "bits", "index", "_label_classes"}


@pytest.mark.parametrize("m,t", [(1, t) for t in range(5)] + [(2, t) for t in range(4)] + [(3, 2)])
def test_label_of_matches_labels(m, t):
    graph = build(m, t)
    assert [graph.label_of(v) for v in range(graph.n_vertices)] == all_labels(graph)


STEP_GRAPHS = [(1, t) for t in range(5)] + [(2, t) for t in range(4)] + [(3, t) for t in range(3)]


@pytest.mark.parametrize("m,t", STEP_GRAPHS)
def test_step_min_max_matches_dict_by_birth(m, t):
    graph = cached_graph(m, t)
    assert graph.step_starts.tolist() == [graph.birth.tolist().index(b) for b in range(t + 1)]
    arrays = [exact_betweenness(graph)[0], current_flow_betweenness(graph)]
    if graph.n_vertices <= CFB_EXHAUSTIVE_MAX_N:
        arrays.append(_exhaustive_cfb(graph))
    for values in arrays:
        by_birth: dict[int, list[float]] = {}
        for birth, value in zip(graph.birth.tolist(), values.tolist()):
            by_birth.setdefault(birth, []).append(value)
        low, high = graph.step_min_max(values)
        assert low.tolist() == [min(by_birth[b]) for b in range(t + 1)]
        assert high.tolist() == [max(by_birth[b]) for b in range(t + 1)]


def test_unknown_label_is_key_error():
    graph = cached_graph(1, 2)
    with pytest.raises(UnknownLabelError, match="not present in K_{1,2}") as err:
        graph.vertex_by_label(Label(1, "000", 1))  # born at step 3
    assert isinstance(err.value, KeyError)


@pytest.mark.parametrize("label", [Label(1, "000", 1), Label(2, "0", 3), Label(3, "00", 9)])
def test_vertex_by_label_refuses_labels_outside_the_graph(label):
    # born after t, or an index past l_max
    graph = build(1, 2)
    with pytest.raises(UnknownLabelError) as err:
        graph.vertex_by_label(label)
    assert err.value.args == (f"label {format_label(label)} not present in K_{{1,2}}",)


@pytest.mark.parametrize("m,t", [(1, 2), (2, 3), (3, 2)])
def test_vertex_by_label_refuses_one_past_each_class(m, t):
    # index size + low of each class (subnet, bits), where low = 1: one past its last index
    graph = build(m, t)
    first, size = graph._label_classes
    for label in all_labels(graph):
        code = int(_label_codes(t, label.subnet, label.birth, int(label.bits or "0", 2)))
        if label.index == size[code]:
            past = Label(label.subnet, label.bits, int(size[code]) + 1)
            with pytest.raises(UnknownLabelError, match=f"label {format_label(past)} not present"):
                graph.vertex_by_label(past)


@pytest.mark.parametrize("m,t", REFERENCE_SIZES)
def test_vertex_by_label_inverts_all_labels(m, t):
    graph = build(m, t)
    assert [graph.vertex_by_label(label) for label in all_labels(graph)] == list(range(graph.n_vertices))


def _key(m, t, subnet, bits, index):
    """The label key of (subnet, bits string, index), whether or not such a label exists."""
    return int(label_keys(m, t, subnet, len(bits), int(bits or "0", 2), index))


@pytest.mark.parametrize(
    "m,t", [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)]
)
def test_vertex_by_label_key_matches_label_index(m, t):
    graph = cached_graph(m, t)
    label_index = {label: v for v, label in enumerate(all_labels(graph))}
    keys = [_key(m, t, x.subnet, x.bits, x.index or 0) for x in label_index]
    assert graph.vertex_by_label_key(keys).tolist() == list(label_index.values())


def test_vertex_by_label_key_refuses_keys_of_no_label():
    m, t = 2, 3
    graph = cached_graph(m, t)
    top = l_max(m, "01")
    keys = {
        "hop padding": -1,
        "negative": -_key(m, t, 1, "0", 1),
        "index 0 on a non-hub class": _key(m, t, 1, "01", 0),
        "index l_max + 1": _key(m, t, 1, "01", top + 1),
        "index 1 on a hub code": _key(m, t, 2, "", 1),
        "an absent class, bits not led by 0": _key(m, t, 1, "10", 1),
        "an absent class, subnet 0": _key(m, t, 0, "", 0),
        "a code past the table": _key(m, t, 4, "", 0),
    }
    assert graph.vertex_by_label_key(list(keys.values())).tolist() == [-1] * len(keys)
    # the same classes' own bounds resolve
    edge = [_key(m, t, 1, "01", 1), _key(m, t, 1, "01", top), _key(m, t, 2, "", 0)]
    assert graph.vertex_by_label_key(edge).tolist() == [
        graph.vertex_by_label(Label(1, "01", 1)),
        graph.vertex_by_label(Label(1, "01", top)),
        1,
    ]


@pytest.mark.parametrize("m,t", [(1, 0), (1, 3), (2, 3), (3, 3), (1, 6), (2, 5), (4, 3)])
def test_label_classes_are_contiguous(m, t):
    # each (subnet, bits) class is one id range in index order, which the key lookup relies on
    vertices, _ = reference_build(m, t)
    first, size = build(m, t)._label_classes
    for rec in vertices:
        label = rec.label
        code = int(_label_codes(t, label.subnet, label.birth, int(label.bits or "0", 2)))
        assert first[code] + max(label.index or 0, 1) - 1 == rec.id
        assert size[code] == (l_max(m, label.bits) if label.bits else 1)
    assert size.sum() == len(vertices)


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build(0, 1)
        with pytest.raises(ValueError):
            build(1, -1)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("KOCH_MAX_VERTICES", "100")
        with pytest.raises(SizeCapError):
            build(1, 3)

    def test_huge_m_at_t0_is_refused_past_int64(self):
        # K(m, 0) is one triangle under any cap, but a son block's width 2m(m+1)^t is int64
        assert build(2**61, 0).n_vertices == 3
        for m in (2**62, 10**25):
            with pytest.raises(SizeCapError, match="int64 label arithmetic"):
                build(m, 0)

    def test_past_address_space(self, monkeypatch):
        # numpy refuses 8 * (2 * 4^30 + 1) bytes before allocating anything
        monkeypatch.setenv("KOCH_MAX_VERTICES", str(10**20))
        with pytest.raises(SizeCapError, match="more than can be allocated"):
            build(1, 30)

    @pytest.mark.parametrize("m", [1, 2, 4, 1000])
    def test_cap_is_exact_at_the_boundary(self, m, monkeypatch):
        # the magnitude test only skips counts far above the cap; at it, the exact count decides
        for t in range(40):
            n = vertex_count(m, t)
            monkeypatch.setenv("KOCH_MAX_VERTICES", str(n))
            assert graph_module.check_size(m, t) == n
            text = str(n) if n < 10**18 else f"2*{3 * m + 1}^{t}+1"
            monkeypatch.setenv("KOCH_MAX_VERTICES", str(n - 1))
            with pytest.raises(SizeCapError, match=f"has {re.escape(text)} vertices"):
                graph_module.check_size(m, t)

    def test_cap_env(self, monkeypatch):
        monkeypatch.setenv("KOCH_MAX_VERTICES", "5")
        with pytest.raises(SizeCapError):
            build(1, 1)

    def test_ids_past_int32_refused_before_allocating(self, monkeypatch, tmp_path):
        # K(1,15) has 2^31 + 1 vertices: under a raised cap it passes check_size, and build refuses
        # it before any array is made, whatever the cap says
        monkeypatch.setenv("KOCH_MAX_VERTICES", "3000000000")
        assert graph_module.check_size(1, 15) == vertex_count(1, 15) == 2**31 + 1

        class NoArrays:
            def __getattr__(self, name):
                if name in ("zeros", "empty", "ones", "full", "arange"):
                    raise AssertionError(f"np.{name} called")
                return getattr(np, name)

        monkeypatch.setattr(graph_module, "np", NoArrays())
        with pytest.raises(SizeCapError, match=r"has 2147483649 vertices, more than can be allocated: .* 2\^31$"):
            build(1, 15)
        out = tmp_path / "x.json"
        assert main(["generate", "--m", "1", "--t", "15", "-o", str(out)]) == 3
        assert not out.exists()


def test_stored_arrays_are_narrow():
    # the five stored arrays: an int8 birth and subnet, int32 bits and index, and the int32
    # triangle table at 12 B per row, about half a row per vertex
    graph = build(2, 5)
    arrays = {
        "birth": np.int8,
        "subnet": np.int8,
        "bits": np.int32,
        "index": np.int32,
        "triangles": np.int32,
    }
    assert {name: getattr(graph, name).dtype for name in arrays} == arrays
    assert sum(getattr(graph, name).nbytes for name in arrays) <= 17 * graph.n_vertices
    assert graph.edges.dtype == graph.csr[1].dtype == graph.corner_pair_ends().dtype == np.int32
    assert graph.csr[0].dtype == graph.degrees.dtype == graph.corner_pair(0, 1).dtype == np.int64


NEAR_2_31 = 2**31 - 1


def test_label_keys_widen_narrow_fields():
    # int8 subnet and birth, int32 bits and index up to 2^31 - 1: every key is the exact int64
    for m, t in ((1, 14), (2, 9), (40, 4)):
        births = [0, 1, t // 2, t] + ([7, 8] if t >= 8 else [])
        rows = [
            (subnet, b, bits, index)
            for subnet in (1, 3)
            for b in births
            for bits in sorted({0, (1 << max(b - 1, 0)) - 1} if b else {0})
            for index in (0, 1, NEAR_2_31)
        ]
        dtypes = (np.int8, np.int8, np.int32, np.int32)
        subnet, birth, bits, index = (np.array(col, dtype) for col, dtype in zip(zip(*rows), dtypes))
        keys = label_keys(m, t, subnet, birth, bits, index)
        want = [((s << (t + 1)) | (1 << b) | x) * ((2 * m) ** t + 1) + i for s, b, x, i in rows]
        assert keys.dtype == np.int64 and keys.tolist() == want


def _near_limit_graph(triangles) -> KochGraph:
    """A stand-in of N = 2^31 - 1 vertices whose vertex arrays take no memory: only the ids are real."""
    n = NEAR_2_31
    empty = np.broadcast_to(np.int8(0), (n,))
    return KochGraph(
        m=1, t=0, triangles=np.asarray(triangles, np.int32), birth=empty, subnet=empty, bits=empty, index=empty
    )


def test_edge_keys_widen_ids_near_2_31():
    top = NEAR_2_31 - 1  # the largest id
    rows = [(0, 1, 2), (5, top - 1, top), (top - 5, top - 3, top - 2)]
    graph = _near_limit_graph(rows)
    n = graph.n_vertices
    corner_pairs = [(r[a], r[b]) for r in rows for a, b in ((0, 1), (0, 2), (1, 2))]  # position order
    keys = graph._corner_pair_keys()
    assert keys.dtype == np.int64 and keys.tolist() == [u * n + v for u, v in corner_pairs]
    pairs = sorted(corner_pairs)
    assert graph.edges.dtype == np.int32 and graph.edges.tolist() == [list(p) for p in pairs]
    assert graph.corner_pair_ends().tolist() == [list(p) for p in corner_pairs]


def test_corner_pairs_widen_ids_near_2_31():
    # all 2^30 - 1 rows of the stand-in's table are (5, 0, 0), in no memory: the lookup reads
    # only a row's father, as the sons of row k are 2k+1 and 2k+2 by arithmetic
    rows = (NEAR_2_31 - 1) // 2
    graph = _near_limit_graph(np.broadcast_to(np.array([5, 0, 0], np.int32), (rows, 3)))
    top = NEAR_2_31 - 1  # the largest id, son b of the last row k
    k = rows - 1
    u = np.array([5, top, top - 1, 6, top - 2, 5, -1], np.int32)
    v = np.array([top - 1, 5, top, top, top, top + 1, top], np.int32)
    got = graph.corner_pair(u, v)
    assert got.dtype == np.int64
    assert got.tolist() == [3 * k, 3 * k + 1, 3 * k + 2, -1, -1, -1, -1]
    assert 3 * k > 2**31  # past int32


def test_vertex_by_label_key_widens_near_2_31():
    # a class whose ids run up to 2^31 - 2, looked up by the keys of int8 and int32 fields
    m, t = 1, 14
    graph = _near_limit_graph([(0, 1, 2)])
    graph.m, graph.t = m, t
    size = 1000
    code = int(_label_codes(t, 2, 14, 0b01))
    first, sizes = np.zeros((2, 4 << (t + 1)), np.int64)
    first[code], sizes[code] = NEAR_2_31 - 1 - size, size
    graph._label_classes = (first, sizes)
    index = np.array([1, 2, size, size + 1], np.int32)
    keys = label_keys(m, t, np.int8(2), np.int8(14), np.int32(0b01), index)
    assert graph.vertex_by_label_key(keys).tolist() == [NEAR_2_31 - 1 - size + i for i in (0, 1, size - 1)] + [-1]


class TestExports:
    def test_edgelist(self):
        graph = cached_graph(1, 1)
        buf = io.StringIO()
        graph.write_edgelist(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 12
        pairs = [tuple(map(int, line.split())) for line in lines]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)

    def test_json_schema(self):
        graph = cached_graph(1, 1)
        buf = io.StringIO()
        graph.write_json(buf)
        doc = json.loads(buf.getvalue())
        assert list(doc) == ["m", "t", "vertices", "edges"]
        assert list(doc["vertices"][0]) == ["id", "label", "birth", "degree"]
        assert doc["m"] == 1 and doc["t"] == 1
        assert len(doc["vertices"]) == 9 and len(doc["edges"]) == 12
        assert doc["vertices"][0] == {"id": 0, "label": "1", "birth": 0, "degree": 4}

    def test_dot(self):
        graph = cached_graph(1, 0)
        buf = io.StringIO()
        graph.write_dot(buf)
        text = buf.getvalue()
        assert text.startswith("graph koch {")
        assert '0 [label="1"]' in text
        assert "0 -- 1;" in text
        assert text.endswith("}\n")

    def test_dot_labels_are_textual(self):
        graph = cached_graph(1, 1)
        buf = io.StringIO()
        graph.write_dot(buf)
        assert '[label="10.2"]' in buf.getvalue()


# K(4,3) has 3-digit indices; K(1,6) has ids that pass 10, 100 and 1000 inside one chunk, and
# its 8,193 vertices are one past the default chunk of 2^13 rows, so its default-chunk case
# crosses that boundary
EXPORT_SIZES = [(1, t) for t in range(5)] + [(2, t) for t in range(4)] + [(3, 2), (4, 3), (1, 6)]
# a chunk of 7 rows splits vertices and edges mid-list; a chunk of 1 row, on the graphs of at
# most 30 vertices, puts a chunk boundary before every row and its separator
EXPORT_CASES = [
    pytest.param(m, t, rows, id=f"{m}-{t}-{name}")
    for m, t in EXPORT_SIZES
    for rows, name in ((None, "default-chunk"), (7, "chunk-7"), (1, "chunk-1"))
    if rows != 1 or vertex_count(m, t) <= 30
]
REFERENCE_WRITERS = {
    KochGraph.write_edgelist: reference_write_edgelist,
    KochGraph.write_json: reference_write_json,
    KochGraph.write_dot: reference_write_dot,
}


def test_largest_export_size_crosses_the_default_chunk():
    assert vertex_count(1, 6) == graph_module._EXPORT_ROWS + 1


@pytest.mark.parametrize("m,t,chunk_rows", EXPORT_CASES)
def test_exports_match_reference_writers(m, t, chunk_rows, monkeypatch):
    """Byte equality with the per-Label writers, in every chunking of ``EXPORT_CASES``."""
    if chunk_rows is not None:
        monkeypatch.setattr(graph_module, "_EXPORT_ROWS", chunk_rows)
    graph = build(m, t)
    for write, reference in REFERENCE_WRITERS.items():
        got, want = io.StringIO(), io.StringIO()
        write(graph, got)
        reference(graph, want)
        same = got.getvalue() == want.getvalue()  # a bool: pytest's diff of two long texts takes minutes
        assert same, write.__name__


@pytest.mark.parametrize("m,t", EXPORT_SIZES)
def test_label_texts_are_formatted_labels(m, t):
    graph = cached_graph(m, t)
    labels = all_labels(graph)
    texts = [format_label(label) for label in labels]
    assert [format_label(graph.label_of(v)) for v in range(graph.n_vertices)] == texts
    assert labels == [r.label for r in reference_build(m, t)[0]]


@pytest.mark.parametrize("m,t,chunk_rows", EXPORT_CASES)
def test_csv_match_reference_writers(m, t, chunk_rows, monkeypatch, capsys):
    """``betweenness`` in every mode, with and without --edges, and ``electrical --cfb``: byte
    equality with the per-row writers, chunked as the exports are."""
    if chunk_rows is not None:
        monkeypatch.setattr(graph_module, "_EXPORT_ROWS", chunk_rows)
    graph = build(m, t)
    mt = ["--m", str(m), "--t", str(t)]
    runs = [(["electrical", *mt, "--cfb"], lambda: reference_cfb(graph))]
    for mode in ("formula", "exact", "compare"):
        for edges in (False, True):
            argv = ["betweenness", *mt, "--mode", mode] + ["--edges"] * edges
            runs.append((argv, lambda mode=mode, edges=edges: reference_betweenness(graph, mode, edges)))
    for argv, reference in runs:
        assert main(argv) == 0
        got = capsys.readouterr().out
        reference()
        same = got == capsys.readouterr().out  # a bool: pytest's diff of two long texts takes minutes
        assert same, argv


def float_rows(values) -> list[str]:
    return graph_module._text_rows(len(values), [_float_column(values), "\n"]).splitlines()


def test_float_column_is_repr_on_corner_cases():
    """0.0 and -0.0 stay apart, exponent forms, subnormals, inf and nan print as ``repr`` does."""
    corners = [0.0, -0.0, 1e-05, 5e-324, 1e16, 0.1 + 0.2, float("nan"), float("inf"), float("-inf")]
    values = np.array(corners * 3)
    assert float_rows(values) == [repr(float(x)) for x in values]


def test_float_column_is_repr_on_distinct_values():
    """A column with as many distinct values as rows still formats every row."""
    values = np.random.default_rng(0).standard_normal(1000) * 10.0 ** np.arange(-300, 300, 0.6)
    assert len(np.unique(values)) == len(values)
    assert float_rows(values) == [repr(float(x)) for x in values]


def column_rows(column, n: int) -> list[str]:
    """Each row's bytes, NULs dropped, of a text column (width, fill) of n rows.

    The slice starts as 0xFF, a byte no text holds: a place the fill leaves unwritten fails the decode.
    """
    width, fill = column
    out = np.full((n, width + 2), 0xFF, np.uint8)
    fill(out[:, 1:-1])  # a strided slice, as in a chunk's matrix
    assert (out[:, [0, -1]] == 0xFF).all()  # nothing written outside the slice
    return [row[1:-1][row[1:-1] != 0].tobytes().decode("ascii") for row in out]


def test_decimal_is_str_at_every_digit_count():
    corners = [0, 2**31 - 1, 2**31, 2**32 - 1]
    corners += [p for k in range(10) for p in (10**k - 1, 10**k)]
    sample = np.random.default_rng(24).integers(0, 2**32, 10_000).tolist()
    for values in (corners, sample):
        assert column_rows(graph_module._decimal(np.array(values)), len(values)) == [str(x) for x in values]


def test_decimal_omit_zero_keeps_no_digit_of_a_zero():
    assert column_rows(graph_module._decimal(np.zeros(3, np.int64), omit_zero=True), 3) == ["", "", ""]
    assert column_rows(graph_module._decimal(np.array([0, 7, 10]), omit_zero=True), 3) == ["", "7", "10"]


@pytest.mark.parametrize("values", [[2**32], [0, 2**32 + 5], [-1]])
def test_decimal_refuses_values_outside_32_bits(values):
    with pytest.raises(ValueError):
        graph_module._decimal(np.array(values, np.int64))


@pytest.mark.parametrize(
    "dtype,values",
    [(np.int8, [0, 1, 9, 10, 99, 100, 127]), (np.int32, [0, 7, 10**9 - 1, 10**9, 2**31 - 2, 2**31 - 1])],
)
def test_decimal_of_narrow_columns(dtype, values):
    # the label columns are int8 and int32: widened, each value keeps its digits, and a
    # negative one is refused rather than read as a wrapped unsigned value
    assert column_rows(graph_module._decimal(np.array(values, dtype)), len(values)) == [str(x) for x in values]
    with pytest.raises(ValueError):
        graph_module._decimal(np.array([5, np.iinfo(dtype).min], dtype))


@pytest.mark.parametrize("text", ["\0", "a\0", "1\0.5"])
def test_a_text_that_holds_a_nul_byte_is_refused(text):
    # NUL marks a place a row drops, so a text that held one would lose it unseen
    with pytest.raises(ValueError):
        graph_module._text_rows(2, ["[", text, "]"])
    with pytest.raises(ValueError):
        graph_module._block(["", text])


TEXTS = st.text(alphabet='0123456789.,:"{}[] -', max_size=4)


@st.composite
def text_columns(draw, n):
    """One column for ``_text_rows`` and the text it gives each of n rows."""
    kind = draw(st.sampled_from(["constant", "table", "decimal", "binary"]))
    if kind == "constant":
        text = draw(TEXTS)
        return text, [text] * n
    if kind == "table":
        texts = draw(st.lists(TEXTS, min_size=1, max_size=4))
        which = draw(st.lists(st.integers(0, len(texts) - 1), min_size=n, max_size=n))
        return graph_module._table(graph_module._block(texts), which), [texts[w] for w in which]
    values = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n))
    omit_zero = draw(st.booleans())
    texts = ["" if omit_zero and x == 0 else str(x) for x in values]
    return graph_module._decimal(np.array(values, np.int64), omit_zero), texts


@st.composite
def text_tables(draw):
    n = draw(st.integers(1, 40))
    return n, draw(st.lists(text_columns(n), min_size=1, max_size=6))


@settings(max_examples=40, deadline=None)
@given(text_tables())
def test_text_rows_is_a_per_row_join(table):
    n, columns = table
    want = "".join("".join(texts[row] for _, texts in columns) for row in range(n))
    assert graph_module._text_rows(n, [column for column, _ in columns]) == want


def test_vertex_ids_in_creation_order():
    graph = cached_graph(2, 2)
    assert [format_label(graph.label_of(i)) for i in range(3)] == ["1", "2", "3"]
    births = graph.birth.tolist()
    assert births == sorted(births)
