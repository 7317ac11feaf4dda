import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kochnet
from kochnet import (
    Label,
    LabelDomainError,
    LabelFormatError,
    ancestor_chain,
    bfs_distances,
    build,
    companion,
    l_max,
    parse_label,
    route,
    verify,
)
from kochnet import _kernels
from kochnet import labels as labels_module
from kochnet.graph import label_keys
from kochnet.labels import child_block, validate_in_graph
from kochnet.routing import RoutePath, route_batch

from conftest import (
    adjacency,
    all_labels,
    batch_hops,
    cached_graph,
    python_bfs,
    python_bfs_sigma,
    python_extra_parents,
    reference_route,
    traced_peak,
    verify_path_in_graph,
)


def _labels(text, m):
    return [parse_label(x, m) for x in text.split()]


class TestAncestorChain:
    def test_two_levels(self):
        chain = ancestor_chain(1, parse_label("100.3", 1))
        assert [str(x) for x in chain] == ["100.3", "10.2", "1"]

    def test_hub(self):
        assert ancestor_chain(1, Label(2)) == [Label(2)]

    def test_direct_hub_child(self):
        chain = ancestor_chain(1, parse_label("101.3", 1))
        assert [str(x) for x in chain] == ["101.3", "1"]

    def test_births_strictly_decrease(self):
        for m, t in [(2, 3)]:
            graph = cached_graph(m, t)
            for label in all_labels(graph):
                chain = ancestor_chain(m, label)
                births = [x.birth for x in chain]
                assert births == sorted(births, reverse=True)
                assert chain[-1].is_hub


class TestRoute:
    def test_cross_subnet(self):
        a, b = _labels("10.1 20.1", 1)
        path = route(1, 1, a, b)
        assert [str(x) for x in path.hops] == ["10.1", "1", "2", "20.1"]
        assert path.length == 3

    def test_hub_pair(self):
        assert route(1, 1, Label(1), Label(2)).length == 1

    def test_companion_shortcut(self):
        a, b = _labels("100.1 100.3", 1)
        path = route(1, 2, a, b)
        assert [str(x) for x in path.hops] == ["100.1", "10.1", "10.2", "100.3"]
        assert path.length == 3

    def test_self_distance(self):
        assert route(2, 2, parse_label("20.3", 2), parse_label("20.3", 2)).length == 0

    def test_companions_adjacent(self):
        assert route(1, 1, *_labels("10.1 10.2", 1)).length == 1

    def test_k21_example(self):
        assert route(2, 1, *_labels("10.1 30.4", 2)).length == 3

    def test_ancestor_descendant(self):
        a, b = _labels("100.1 1", 1)
        path = route(1, 2, a, b)
        assert [str(x) for x in path.hops] == ["100.1", "10.1", "1"]

    @pytest.mark.parametrize("m,t", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
    def test_equals_bfs_exhaustively(self, m, t):
        graph = cached_graph(m, t)
        n = graph.n_vertices
        for s in range(n):
            dist = bfs_distances(graph, s)
            for v in range(s + 1, n):
                path = route(m, t, graph.label_of(s), graph.label_of(v))
                assert path.length == int(dist[v])
                assert verify_path_in_graph(graph, path)
                assert path.ops_used <= 2 * t + 3

    def test_reversal(self):
        graph = cached_graph(2, 2)
        rng = np.random.default_rng(7)
        for _ in range(200):
            s, v = rng.integers(0, graph.n_vertices, 2)
            fwd = route(2, 2, graph.label_of(int(s)), graph.label_of(int(v)))
            bwd = route(2, 2, graph.label_of(int(v)), graph.label_of(int(s)))
            assert tuple(reversed(fwd.hops)) == bwd.hops

    @pytest.mark.parametrize(
        "m,t,text,error,message",
        [
            (1, 1, "100.1", LabelDomainError, "100.1 born at step 2 > t=1"),
            (1, 2, "10.3", LabelFormatError, "10.3: index 3 exceeds l_max=2"),
            (2, 3, "2011.37", LabelFormatError, "2011.37: index 37 exceeds l_max=36"),
            (0, 1, "10.1", ValueError, "m must be >= 1, got 0"),
        ],
    )
    def test_rejects_labels_outside_the_graph(self, m, t, text, error, message):
        subnet, bits, index = int(text[0]), text[1:].split(".")[0], int(text.split(".")[1])
        label = Label(subnet, bits, index)
        with pytest.raises(error) as want:
            validate_in_graph(m, t, label)
        assert str(want.value) == message
        for a, b in ((label, Label(1)), (Label(1), label)):
            with pytest.raises(error) as got:
                route(m, t, a, b)
            assert str(got.value) == message

    @pytest.mark.parametrize(
        "m,t,message", [(0, 3, "m must be >= 1, got 0"), (1, -1, "t must be >= 0, got -1")]
    )
    def test_rejects_hubs_outside_the_graph(self, m, t, message):
        # the parameters are checked for hubs too; t < 0 is no label's fault
        with pytest.raises(ValueError) as want:
            validate_in_graph(m, t, Label(1))
        with pytest.raises(ValueError) as got:
            route(m, t, Label(1), Label(2))
        for error in (want, got):
            assert type(error.value) is ValueError and str(error.value) == message

    def test_symmetric_distance(self):
        a, b = _labels("100.4 301.2", 1)
        assert route(1, 2, a, b).length == route(1, 2, b, a).length


# every ordered pair of these graphs is routed against the reference
REFERENCE_GRAPHS = [(1, t) for t in range(5)] + [(2, t) for t in range(4)] + [(3, t) for t in range(3)]


@st.composite
def deep_pairs(draw, t=40):
    """(m, a, b): labels born at up to t bits; b is often drawn below an ancestor of a or
    below that ancestor's companion, so that splices and companion shortcuts occur."""
    m = draw(st.integers(1, 3))

    def label(birth):
        bits = "0" + "".join(draw(st.lists(st.sampled_from("01"), min_size=birth - 1, max_size=birth - 1)))
        return Label(draw(st.integers(1, 3)), bits, draw(st.integers(1, l_max(m, bits))))

    a = label(draw(st.integers(1, t)))
    kind = draw(st.sampled_from(["any", "below-ancestor", "below-companion"]))
    if kind == "any":
        birth = draw(st.integers(0, t))
        b = label(birth) if birth else Label(draw(st.integers(1, 3)))
    else:
        b = draw(st.sampled_from(reference_route(m, t, a, Label(a.subnet)).hops))  # a's chain
        if kind == "below-companion" and not b.is_hub:
            b = companion(b)
        while b.birth < t and draw(st.booleans()):
            bits, first, last = child_block(m, b, draw(st.integers(b.birth + 1, t)))
            b = Label(b.subnet, bits, draw(st.integers(first, last)))
    return (m, b, a) if draw(st.booleans()) else (m, a, b)


class TestRouteEqualsReference:
    @pytest.mark.parametrize("m,t", REFERENCE_GRAPHS)
    def test_every_ordered_pair(self, m, t):
        labels = all_labels(cached_graph(m, t))
        for a in labels:
            for b in labels:
                assert route(m, t, a, b) == reference_route(m, t, a, b), (a, b)

    @settings(deadline=None, max_examples=300)
    @given(deep_pairs())
    def test_deep_label_pairs(self, pair):
        m, a, b = pair
        assert route(m, 40, a, b) == reference_route(m, 40, a, b)

    def test_class_table_stays_bounded_on_deep_labels(self):
        # label-only routes between labels born at step 2000, over more bit classes than
        # the table keeps; an entry holds ints (cut lengths and widths), never bit strings
        m, t = 1, 2000
        rng = random.Random(5)

        def deep_label():
            bits = "0" + "".join(rng.choices("01", k=t - 1))
            return Label(rng.randint(1, 3), bits, rng.randint(1, l_max(m, bits)))

        table = labels_module._class_table
        table.cache_clear()
        size = table.cache_info().maxsize
        for k in range(size // 2 + 8):
            a, b = deep_label(), deep_label()
            path = route(m, t, a, b)
            if k < 2:
                assert path == reference_route(m, t, a, b)
            bound, steps = table(m, a.bits)
            assert type(bound) is int and all(type(x) is int for step in steps for x in step)
        info = table.cache_info()
        assert info.misses > size and info.currsize <= size


class TestRouteObjects:
    @pytest.mark.parametrize("m,t", [(1, 3), (2, 2)])
    def test_hops_are_plain_labels(self, m, t):
        # the climb makes its hops without Label's __init__; each must still behave as one made by it
        labels = all_labels(cached_graph(m, t))
        for a in labels:
            for b in labels:
                hops = route(m, t, a, b).hops
                made = [Label(h.subnet, h.bits, h.index) for h in hops]
                for h, x in zip(hops, made):
                    assert type(h) is Label and h == x and hash(h) == hash(x), (a, b)
                    assert h <= x and x <= h and not h < x and not x < h, (a, b)
                    assert (str(h), repr(h)) == (str(x), repr(x)), (a, b)
                assert sorted(hops) == sorted(made), (a, b)

    def test_route_path_is_slotted_and_frozen(self):
        path = route(1, 2, *_labels("100.1 100.3", 1))
        assert not hasattr(path, "__dict__")
        for name, value in (("hops", ()), ("ops_used", 0)):
            with pytest.raises(AttributeError):
                setattr(path, name, value)
        assert path == RoutePath(path.hops, path.ops_used) and path.reversed().reversed() == path

    def test_route_path_is_its_fields_tuple(self):
        path = route(1, 2, *_labels("100.1 100.3", 1))
        hops, ops = path
        assert path == (hops, ops) and hash(path) == hash((hops, ops)) and path[1] == path.ops_used
        assert path.length == len(hops) - 1 and path.reversed() == (hops[::-1], ops)
        with pytest.raises(AttributeError, match="'x'"):
            path.x = 1
        with pytest.raises(TypeError):
            dataclasses.replace(path, ops_used=0)


class TestOracles:
    def test_triangle(self):
        graph = cached_graph(1, 0)
        assert list(bfs_distances(graph, 0)) == [0, 1, 1]

    def test_hub_eccentricity_k11(self):
        graph = cached_graph(1, 1)
        assert int(bfs_distances(graph, 0).max()) == 2

    def test_two_traversals_agree(self):
        graph = cached_graph(2, 2)
        for source in (0, 17):
            dist = bfs_distances(graph, source)
            ref = python_bfs(adjacency(graph), source)
            assert dist.tolist() == [ref[v] for v in range(graph.n_vertices)]

    @pytest.mark.parametrize("m,t", [(1, 2), (2, 2)])
    def test_sigma_unique(self, m, t):
        adj = adjacency(cached_graph(m, t))
        for s in range(len(adj)):
            _, sigma = python_bfs_sigma(adj, s)
            assert set(sigma.values()) == {1}


def test_ops_counts_father_and_companion_only():
    # chain building costs one father op per hop toward the hub, plus at
    # most one companion test at the splice
    path = route(1, 2, *_labels("100.1 100.3", 1))
    assert path.ops_used == 5  # two father steps each side, one companion test
    path = route(1, 1, *_labels("10.1 20.1", 1))
    assert path.ops_used == 2  # cross-subnet: no companion test


def _assert_batch_matches_route(graph, a, b):
    m, t = graph.m, graph.t
    batch = route_batch(graph, a, b)
    hops = batch_hops(batch)
    ids = graph.vertex_by_label_key(hops)
    assert hops.shape == (len(a), 2 * t + 2)
    for p, (s, v) in enumerate(zip(a.tolist(), b.tolist())):
        path = route(m, t, graph.label_of(s), graph.label_of(v))
        want = [graph.vertex_by_label(h) for h in path.hops]
        assert ids[p, : path.length + 1].tolist() == want, (s, v)
        assert (hops[p, path.length + 1 :] == -1).all()
        assert (int(batch.length[p]), int(batch.ops_used[p])) == (path.length, path.ops_used)


class TestRouteBatch:
    @pytest.mark.parametrize(
        "m,t", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 2)]
    )
    def test_equals_route_on_every_ordered_pair(self, m, t):
        graph = cached_graph(m, t)
        a, b = np.divmod(np.arange(graph.n_vertices**2), graph.n_vertices)
        _assert_batch_matches_route(graph, a, b)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_equals_route_on_random_pairs(self, data):
        m, t = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
        graph = cached_graph(m, t)
        ids = st.integers(0, graph.n_vertices - 1)
        pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40))
        a, b = (np.array(x, np.int64) for x in zip(*pairs))
        _assert_batch_matches_route(graph, a, b)

    @pytest.mark.parametrize("m,t", [(1, 3), (2, 3), (3, 2)])
    def test_each_row_equals_its_pair_alone(self, m, t):
        # repeated endpoints, rows with a == b and shuffled order: the distinct endpoints are
        # shared across rows, and no row may depend on another.  The row table is as narrow as
        # the number of distinct ends allows, and the rows it gives are int64
        graph = cached_graph(m, t)
        rng = np.random.default_rng(3)
        pool = rng.choice(graph.n_vertices, 40, replace=False)
        a, b = rng.choice(pool, 400), rng.choice(pool, 400)
        b[::7] = a[::7]
        order = rng.permutation(len(a))
        a, b = a[order], b[order]
        both = route_batch(graph, a, b)
        both_hops = batch_hops(both)
        assert (a == b).any() and len(np.unique(np.concatenate((a, b)))) < len(a)
        assert both.a_row.dtype == both.b_row.dtype == np.int64
        for p in range(len(a)):
            one = route_batch(graph, a[p : p + 1], b[p : p + 1])
            assert (both_hops[p] == batch_hops(one)[0]).all(), (a[p], b[p])
            assert (both.length[p], both.ops_used[p]) == (one.length[0], one.ops_used[0])

    @pytest.mark.parametrize("m,t", [(1, 3), (2, 2)])
    def test_halves_rebuild_each_route(self, m, t):
        # a's chain up to its split, then b's chain read back down: route's hops, key for key
        graph = cached_graph(m, t)
        a, b = np.divmod(np.arange(graph.n_vertices**2), graph.n_vertices)
        batch = route_batch(graph, a, b)
        assert batch.chains.shape == (len(np.unique(a)), t + 1)
        for p, (s, v) in enumerate(zip(a.tolist(), b.tolist())):
            path = route(m, t, graph.label_of(s), graph.label_of(v))
            half_a = batch.chains[batch.a_row[p], : batch.a_hops[p]]
            half_b = batch.chains[batch.b_row[p], : batch.b_hops[p]]
            want = _key(graph, [graph.vertex_by_label(h) for h in path.hops])
            assert [*half_a.tolist(), *half_b[::-1].tolist()] == want.tolist(), (s, v)
            assert batch.length[p] == batch.a_hops[p] + batch.b_hops[p] - 1 == path.length

    def test_uses_labels_only(self):
        graph = build(2, 2)
        a, b = np.divmod(np.arange(graph.n_vertices**2), graph.n_vertices)
        want = route_batch(cached_graph(2, 2), a, b)

        def unavailable(*args):
            raise AssertionError("route_batch read the graph structure")

        graph.father_of = graph.companion_of = unavailable
        graph.triangles = graph.csr = None
        got = route_batch(graph, a, b)
        assert (batch_hops(got) == batch_hops(want)).all() and (got.ops_used == want.ops_used).all()

    def test_one_pair_holds_about_a_byte_per_vertex(self):
        # two ends on a large graph: the N-long bool mark is freed before the N-long row table,
        # which is uint8, is made
        graph = build(2, 5)
        a, b = [5], [graph.n_vertices - 1]
        route_batch(graph, a, b)  # any cached graph arrays are made outside the measurement
        assert traced_peak(lambda: route_batch(graph, a, b)) < 2 * graph.n_vertices

    @pytest.mark.parametrize("bad", [-1, 9, -(2**40), 2**40])
    def test_refuses_ids_outside_the_graph(self, bad):
        # a -1 once routed from vertex N - 1, as the mark of id -1 wrapped; 9 = N raised IndexError
        graph = cached_graph(1, 1)
        for a, b in (([bad], [5]), ([5], [bad]), ([0, 5], [3, bad])):
            with pytest.raises(ValueError, match=r"\[0, 9\)"):
                kochnet.route_batch(graph, a, b)


class TestRoutingSuite:
    # all pairs of K(1,3) and K(2,2); seeded pairs of K(1,5) and K(2,4)
    @pytest.mark.parametrize("m,t,pairs", [(1, 3, None), (2, 2, None), (1, 5, 3000), (2, 4, 5000)])
    def test_same_results_for_any_chunk_size(self, monkeypatch, m, t, pairs):
        graph = cached_graph(m, t)
        kwargs = {} if pairs is None else {"sample_pairs": pairs}
        reference = verify.routing_suite(graph, **kwargs)
        assert all(c.status == verify.PASS for c in reference)
        # chunks that do not divide the pair count, and BFS blocks of 64 sources, which split
        # the exhaustive sweeps (K(1,3)'s 129 sources take 3 blocks, K(2,2)'s 99 take 2);
        # the 32 sampled sources always fit one block, which holds at least 64
        for chunk, entries in ((1000, 1 << 20), (777, 1 << 20), (333, graph.n_vertices)):
            monkeypatch.setattr(verify, "_CHUNK_PAIRS", chunk)
            monkeypatch.setattr(verify._kernels, "_BLOCK_ENTRIES", entries)
            assert verify.routing_suite(graph, **kwargs) == reference


def test_uniqueness_fails_with_the_extra_parent_count(monkeypatch):
    # one extra edge across a distance-3 pair closes a 4-cycle, so some pairs have two
    # shortest paths; the detail counts the extra BFS parents seen from the sources 0..N-2,
    # or, when the suite samples, from the distinct sources of its pairs
    graph = build(1, 2)
    n = graph.n_vertices
    far = int(np.flatnonzero(bfs_distances(graph, 3) == 3)[0])
    u, v = np.vstack((graph.edges, [[3, far]])).T
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.argsort(src * n + dst)
    indptr = np.searchsorted(src[order], np.arange(n + 1))
    graph.csr = (indptr, dst[order])
    adj = adjacency(graph)
    want = python_extra_parents(adj, range(n - 1))
    assert want > 0
    (check,) = [c for c in verify.routing_suite(graph) if c.id == "routing/uniqueness"]
    assert check.status == verify.FAIL
    assert check.detail == f"multi-path (source,target) incidences={want}"

    swept, distances = [], _kernels.pair_distances

    def recorded(indptr, indices, src, dst):
        swept.extend(src.tolist())
        return distances(indptr, indices, src, dst)

    monkeypatch.setattr(_kernels, "pair_distances", recorded)
    monkeypatch.setattr(verify, "EXHAUSTIVE_PAIR_LIMIT", 0)
    (check,) = [c for c in verify.routing_suite(graph, sample_pairs=40) if c.id == "routing/uniqueness"]
    want = python_extra_parents(adj, swept)
    assert want > 0 and check.status == verify.FAIL
    assert check.detail == f"multi-path incidences={want}"


@pytest.mark.parametrize("pairs,sources", [(10**5, 32), (31, 31), (5, 5)])
def test_sampled_uniqueness_names_the_sources_swept(pairs, sources):
    # only sources that hold a pair are swept, and the scope says how many
    checks = {c.id: c for c in verify.routing_suite(cached_graph(1, 5), sample_pairs=pairs)}
    check = checks["routing/uniqueness"]
    assert check.status == verify.PASS and check.detail == "multi-path incidences=0"
    assert check.description == f"exactly one shortest path from {sources} sampled sources to every target"


def _forward(batch):
    """The suite routes a chunk's pairs forward, then the same pairs backward, in one call."""
    return np.arange(len(batch.a_row)) < len(batch.a_row) // 2


def _with_half(batch, p, side, keys):
    """``batch`` with pair p's half on ``side`` ("a" or "b") read from a new chain row holding ``keys``."""
    batch = dataclasses.replace(batch, chains=np.vstack((batch.chains, keys)))
    getattr(batch, f"{side}_row")[p] = len(batch.chains) - 1
    return batch


def _key(graph, v):
    return label_keys(graph.m, graph.t, graph.subnet[v], graph.birth[v], graph.bits[v], graph.index[v])


def _mutated_suite(monkeypatch, graph, mutate, **kwargs):
    monkeypatch.setattr(verify, "route_batch", lambda graph, a, b: mutate(graph, route_batch(graph, a, b)))
    return {c.id: c for c in verify.routing_suite(graph, **kwargs)}


def test_path_validity_fails_on_a_hop_replaced_by_its_grandfather(monkeypatch):
    def one_hop_off(side):
        def mutate(graph, batch):
            row, hops = getattr(batch, f"{side}_row"), getattr(batch, f"{side}_hops")
            ids = graph.vertex_by_label_key(batch.chains)
            col = np.arange(batch.chains.shape[1])
            # an inner hop of one half, neither an end of the route nor at the junction
            inner = (col > 0) & (col < hops[:, None] - 1) & (graph.birth[ids[row]] >= 2)
            p, k = np.argwhere(inner & _forward(batch)[:, None])[0]
            keys = batch.chains[row[p]].copy()
            keys[k] = _key(graph, graph.father_of(graph.father_of(ids[row[p], k])))
            return _with_half(batch, p, side, keys)

        return mutate

    for side in "ab":
        checks = _mutated_suite(monkeypatch, cached_graph(1, 3), one_hop_off(side))
        assert checks["routing/optimality"].status == verify.PASS  # the lengths are untouched
        check = checks["routing/path-validity"]
        assert check.status == verify.FAIL
        assert check.detail == "invalid=1", side


def test_reversal_fails_on_one_backward_hop_off(monkeypatch):
    # one backward route takes one hop more from its first chain and one fewer from its
    # second: the same length, but the hop where its halves meet moves up the first chain
    def split_moved(graph, batch):
        depth = np.count_nonzero(batch.chains >= 0, axis=1)
        q = np.flatnonzero(~_forward(batch) & (batch.b_hops > 0) & (batch.a_hops < depth[batch.a_row]))[0]
        batch.a_hops[q] += 1
        batch.b_hops[q] -= 1
        return batch

    checks = _mutated_suite(monkeypatch, cached_graph(1, 3), split_moved)
    assert checks["routing/optimality"].status == verify.PASS  # the forward routes are untouched
    assert checks["routing/path-validity"].status == verify.PASS
    check = checks["routing/reversal"]
    assert check.status == verify.FAIL
    assert int(check.detail.removeprefix("asymmetric=")) > 0


@pytest.mark.parametrize("change", ["drop", "add"])
def test_a_companion_shortcut_dropped_or_added_fails(monkeypatch, change):
    # drop: the route runs through the common father, one hop too long but on edges;
    # add: a's half stops below the splice, and its last hop is no neighbour of b's
    def shortcut_changed(graph, batch):
        ids = graph.vertex_by_label_key(batch.chains)
        a_end = ids[batch.a_row, batch.a_hops - 1]
        b_end = ids[batch.b_row, np.maximum(batch.b_hops - 1, 0)]
        companions = (batch.b_hops > 0) & (graph.companion_of(a_end) == b_end)
        if change == "drop":
            p = np.flatnonzero(_forward(batch) & companions)[0]
            batch.a_hops[p] += 1
        else:
            splice = (batch.b_hops > 0) & (graph.father_of(b_end) == a_end) & (batch.a_hops > 1)
            p = np.flatnonzero(_forward(batch) & splice)[0]
            batch.a_hops[p] -= 1
        return batch

    checks = _mutated_suite(monkeypatch, cached_graph(1, 3), shortcut_changed)
    assert checks["routing/optimality"].status == verify.FAIL
    assert checks["routing/path-validity"].status == (verify.PASS if change == "drop" else verify.FAIL)


def test_path_validity_fails_on_the_first_hop_moved_to_its_companion(monkeypatch):
    # the companion shares the first hop's father, so every hop pair stays an edge
    def first_hop_off(graph, batch):
        ids = graph.vertex_by_label_key(batch.chains)
        p = np.flatnonzero(_forward(batch) & (batch.a_hops > 1))[0]
        keys = batch.chains[batch.a_row[p]].copy()
        keys[0] = _key(graph, graph.companion_of(ids[batch.a_row[p], 0]))
        return _with_half(batch, p, "a", keys)

    checks = _mutated_suite(monkeypatch, cached_graph(1, 3), first_hop_off)
    assert checks["routing/optimality"].status == verify.PASS
    assert checks["routing/path-validity"].detail == "invalid=1"


def test_path_validity_fails_on_the_last_hop_off_when_b_is_the_splice(monkeypatch):
    # b is an ancestor of a, so the route is a's half alone and ends on A[a_hops - 1]; that
    # hop is moved to the companion of the hop before it, which keeps every hop pair an edge.
    # All-pairs routes run from the lower id forward, never up to an ancestor, so the pairs
    # are sampled here
    def last_hop_off(graph, batch):
        ids = graph.vertex_by_label_key(batch.chains)
        p = np.flatnonzero(_forward(batch) & (batch.b_hops == 0) & (batch.a_hops > 1))[0]
        keys = batch.chains[batch.a_row[p]].copy()
        k = batch.a_hops[p] - 1
        keys[k] = _key(graph, graph.companion_of(ids[batch.a_row[p], k - 1]))
        return _with_half(batch, p, "a", keys)

    monkeypatch.setattr(verify, "EXHAUSTIVE_PAIR_LIMIT", 0)
    checks = _mutated_suite(monkeypatch, cached_graph(1, 3), last_hop_off, sample_pairs=2000)
    assert checks["routing/optimality"].status == verify.PASS
    check = checks["routing/path-validity"]
    assert check.status == verify.FAIL
    assert check.detail == "invalid=1"


def test_exhaustive_routing_suite_sweeps_its_sources_once(monkeypatch):
    # K(1,4) routes all its pairs against one multi-source sweep from every source of a pair
    # s < v, and the uniqueness check reads the extra parents that the same sweep counts
    sweeps = []
    levels = _kernels._levels

    def counted(*args, **kwargs):
        sweeps.append(args[2])
        return levels(*args, **kwargs)

    monkeypatch.setattr(_kernels, "_levels", counted)
    graph = cached_graph(1, 4)
    checks = verify.routing_suite(graph)
    assert all(c.status == verify.PASS for c in checks)
    n = graph.n_vertices
    assert n == 513 and len(sweeps) == 1
    assert np.array_equal(sweeps[0], np.arange(n - 1))


def test_sampled_routing_suite_sweeps_its_sources_once(monkeypatch):
    # K(2,4) samples: the pairs sit in rows under 32 distinct seeded sources, each row with
    # an equal share of targets other than its source, and one sweep of just those sources
    # reads the distances and the extra parents
    sweeps, pairs = [], []
    levels, distances = _kernels._levels, _kernels.pair_distances

    def counted(*args, **kwargs):
        sweeps.append(np.sort(args[2]))
        return levels(*args, **kwargs)

    def recorded(indptr, indices, src, dst, **kwargs):
        pairs.append((src, dst))
        return distances(indptr, indices, src, dst, **kwargs)

    monkeypatch.setattr(_kernels, "_levels", counted)
    monkeypatch.setattr(_kernels, "pair_distances", recorded)
    total = 10**5 + 7  # 7 rows get one target more
    checks = verify.routing_suite(cached_graph(2, 4), seed=3, sample_pairs=total)
    assert all(c.status == verify.PASS for c in checks)
    assert f"pairs={total} " in checks[0].detail
    ((src, dst),) = pairs
    sources, per_row = np.unique(src, return_counts=True)
    assert len(sources) == verify.SAMPLE_SOURCES and not (src == dst).any()
    assert sorted(per_row.tolist()) == [10**5 // 32] * 25 + [10**5 // 32 + 1] * 7
    assert len(sweeps) == 1 and np.array_equal(sweeps[0], sources)
