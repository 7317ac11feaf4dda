import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kochnet import (
    Label,
    LabelDomainError,
    LabelFormatError,
    build,
    children,
    companion,
    degree_of,
    father,
    format_label,
    l_max,
    parse_label,
    route,
    verify,
)
from kochnet import labels as labels_module
from kochnet.labels import _derived, validate_in_graph
from kochnet.routing import ancestor_chain

from conftest import (
    adjacency,
    all_labels,
    cached_graph,
    enumerate_labels,
    neighbor_partition,
    reference_labels_suite,
)


class TestLmax:
    def test_single_zero(self):
        assert l_max(1, "0") == 2
        assert l_max(2, "0") == 4

    def test_mixed_bits(self):
        assert l_max(2, "011") == 4 * 9  # (2m)^1 (m+1)^2

    def test_hub_rejected(self):
        with pytest.raises(LabelFormatError):
            l_max(1, "")

    def test_per_step_total_matches_growth(self):
        # sum over all bit patterns of one length, times 3 subnets
        for m in (1, 2, 3):
            for j in range(1, 5):
                patterns = ["0" + format(k, f"0{j-1}b") if j > 1 else "0" for k in range(1 << (j - 1))]
                assert 3 * sum(l_max(m, b) for b in patterns) == 6 * m * (3 * m + 1) ** (j - 1)


class TestCodec:
    def test_parse_examples(self):
        lab = parse_label("2011.5", 2)
        assert (lab.subnet, lab.bits, lab.index) == (2, "011", 5)
        assert parse_label("3", 1) == Label(3)

    def test_index_bound(self):
        with pytest.raises(LabelFormatError, match="l_max"):
            parse_label("10.3", 1)

    @pytest.mark.parametrize("bad", ["", "4", "10", "1.5", "11.1", "21.3", "10.0", "1 0.1", "10.-2"])
    def test_malformed(self, bad):
        with pytest.raises(LabelFormatError):
            parse_label(bad, 2)

    @given(
        m=st.integers(1, 3),
        subnet=st.integers(1, 3),
        tail=st.text(alphabet="01", max_size=5),
        draw=st.integers(0, 10**6),
    )
    def test_roundtrip(self, m, subnet, tail, draw):
        bits = "0" + tail
        index = 1 + draw % l_max(m, bits)
        label = Label(subnet, bits, index)
        assert parse_label(format_label(label), m) == label

    @given(subnet=st.integers(1, 3))
    def test_hub_roundtrip(self, subnet):
        assert parse_label(format_label(Label(subnet)), 1) == Label(subnet)

    def test_bad_construction(self):
        with pytest.raises(LabelFormatError):
            Label(1, "10", 1)
        with pytest.raises(LabelFormatError):
            Label(1, "", 2)
        with pytest.raises(LabelFormatError):
            Label(5)


class TestLabelTuple:
    # a Label is the tuple of its fields; every way of making one from fields runs the checks
    @pytest.mark.parametrize(
        "fields",
        [
            (1, "0", 1.5),  # a float index
            (1, "0", True),
            (1, "0", "1"),
            (True,),  # a bool subnet
            (True, "0", 1),
            (2.0, "01", 3),  # a float subnet
            (np.float64(2), "0", 1),
            ("1", "0", 1),
            (np.array([1, 2]), "0", 1),
            (1, 0, 1),  # bits that are not a str
            (1, None),
            (1, b"01", 1),
            (1, ["0"], 1),
        ],
    )
    def test_refuses_non_integer_or_non_str_fields(self, fields):
        with pytest.raises(LabelFormatError):
            Label(*fields)

    def test_numpy_integers_are_stored_as_int(self):
        label = Label(np.int64(2), "0", np.int32(3))
        assert [type(x) for x in label] == [int, str, int]
        assert repr(label) == repr(Label(2, "0", 3)) and str(label) == "20.3"
        assert type(Label(np.int8(3)).subnet) is int

    def test_is_its_fields_tuple(self):
        label = Label(1, "01", 3)
        assert label == (1, "01", 3) and hash(label) == hash((1, "01", 3))
        subnet, bits, index = label
        assert (subnet, bits, index, label[1], len(label)) == (1, "01", 3, "01", 3)
        assert Label(2) == (2, "", None) and label < Label(1, "01", 4) < Label(2)
        with pytest.raises(TypeError):
            dataclasses.replace(label, index=2)

    def test_stray_attribute_raises_attribute_error(self):
        for label in (Label(1), Label(1, "01", 3)):
            assert not hasattr(label, "__dict__")
            with pytest.raises(AttributeError, match="'x'"):
                label.x = 1
            for name in label._fields:
                with pytest.raises(AttributeError):
                    setattr(label, name, getattr(label, name))

    def test_replace_make_copy_and_pickle_run_the_checks(self):
        label = Label(1, "01", 3)
        assert label._replace(index=4) == Label(1, "01", 4) and type(label._replace()) is Label
        assert Label._make((2, "0", 1)) == Label(2, "0", 1) and type(Label._make([3])) is Label
        for same in (copy.copy(label), copy.deepcopy(label), pickle.loads(pickle.dumps(label))):
            assert same == label and type(same) is Label
        with pytest.raises(LabelFormatError):
            label._replace(index=0)
        with pytest.raises(LabelFormatError):
            label._replace(subnet=1.0)
        with pytest.raises(LabelFormatError):
            Label._make((1, "1", 2))
        bad = _derived(1, "01", 0)  # unchecked, so the copies below must check it
        with pytest.raises(LabelFormatError):
            copy.copy(bad)
        with pytest.raises(LabelFormatError):
            pickle.loads(pickle.dumps(bad))

    def test_parse_checks_the_bits_once(self, monkeypatch):
        # the pattern checks the bits; neither l_max nor the checking constructor runs again
        def refuse(*args, **kwargs):
            raise AssertionError("checked twice")

        monkeypatch.setattr(labels_module, "l_max", refuse)
        monkeypatch.setattr(Label, "__new__", refuse)
        assert parse_label("2011.5", 2) == (2, "011", 5) and parse_label("3", 1) == (3, "", None)
        with pytest.raises(LabelFormatError, match=r"^'10\.3': index 3 exceeds l_max=2 for m=1$"):
            parse_label("10.3", 1)
        with pytest.raises(ValueError, match="m must be >= 1"):
            parse_label("10.1", 0)
        monkeypatch.undo()
        for text, m in (("2011.5", 2), ("3", 1), ("10.2", 1)):
            label = parse_label(text, m)
            assert type(label) is Label and repr(label) == repr(Label(*label))


class TestCompanion:
    def test_parity_rule(self):
        assert format_label(companion(parse_label("2011.5", 2))) == "2011.6"
        assert format_label(companion(parse_label("10.2", 1))) == "10.1"

    def test_hub_has_none(self):
        with pytest.raises(LabelDomainError):
            companion(Label(1))

    def test_involution_everywhere(self):
        for label in enumerate_labels(2, 2):
            if not label.is_hub:
                assert companion(companion(label)) == label


class TestFather:
    def test_examples(self):
        assert format_label(father(1, parse_label("100.3", 1))) == "10.2"
        assert format_label(father(1, parse_label("101.3", 1))) == "1"
        assert format_label(father(2, parse_label("20.4", 2))) == "2"

    def test_hub_has_none(self):
        with pytest.raises(LabelDomainError):
            father(1, Label(2))

    def test_father_of_child_is_self(self):
        for m, t in [(1, 3), (2, 2)]:
            for label in enumerate_labels(m, t):
                for child in children(m, t, label):
                    assert father(m, child) == label


class TestChildren:
    def test_step1_vertex(self):
        got = {format_label(c) for c in children(1, 2, parse_label("10.1", 1))}
        assert got == {"100.1", "100.2"}

    def test_hub(self):
        got = {format_label(c) for c in children(1, 2, Label(1))}
        assert got == {"10.1", "10.2", "101.1", "101.2", "101.3", "101.4"}

    def test_latest_generation_childless(self):
        assert children(2, 3, parse_label("2011.5", 2)) == set()

    def test_count_matches_degree(self):
        # two non-child neighbors either way: companion+father, or the other hubs
        m, t = 2, 3
        for label in enumerate_labels(m, t):
            assert len(children(m, t, label)) + 2 == degree_of(m, t, label)


class TestDegree:
    def test_examples(self):
        assert degree_of(2, 2, Label(1)) == 18
        assert degree_of(1, 1, parse_label("10.1", 1)) == 2
        assert degree_of(1, 2, parse_label("10.1", 1)) == 4

    def test_stale_label_rejected(self):
        with pytest.raises(LabelDomainError):
            degree_of(1, 1, parse_label("100.1", 1))  # born at step 2


class TestPartition:
    def test_small_example(self):
        part = neighbor_partition(1, 1, parse_label("10.1", 1))
        assert {format_label(x) for x in part.equal} == {"10.2"}
        assert part.lower == frozenset()
        assert {format_label(x) for x in part.higher} == {"1"}

    def test_hub_neighbors(self):
        part = neighbor_partition(1, 1, Label(1))
        assert {format_label(x) for x in part.as_set()} == {"2", "3", "10.1", "10.2"}

    @pytest.mark.parametrize("m,t", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3)])
    def test_matches_adjacency_exactly(self, m, t):
        graph = cached_graph(m, t)
        labels = all_labels(graph)
        for label, nbrs in zip(labels, adjacency(graph)):
            part = neighbor_partition(m, t, label)
            adjacent = {labels[w] for w in nbrs}
            assert part.as_set() == adjacent
            assert len(part) == len(adjacent)

    def test_cardinality_is_degree(self):
        m, t = 2, 2
        for label in enumerate_labels(m, t):
            assert len(neighbor_partition(m, t, label)) == degree_of(m, t, label)


class TestEnumeration:
    def test_t0(self):
        assert {format_label(x) for x in enumerate_labels(1, 0)} == {"1", "2", "3"}

    def test_t1(self):
        labels = {format_label(x) for x in enumerate_labels(1, 1)}
        assert labels == {"1", "2", "3", "10.1", "10.2", "20.1", "20.2", "30.1", "30.2"}

    @pytest.mark.parametrize("m,t", [(1, 3), (2, 2), (3, 2)])
    def test_cardinality(self, m, t):
        assert len(enumerate_labels(m, t)) == 2 * (3 * m + 1) ** t + 1

    def test_validate_in_graph(self):
        validate_in_graph(1, 2, parse_label("100.1", 1))
        with pytest.raises(LabelDomainError):
            validate_in_graph(1, 1, parse_label("100.1", 1))


# every vertex of these graphs, where the derived labels below are checked
DERIVED_GRAPHS = [(1, t) for t in range(5)] + [(2, t) for t in range(4)] + [(3, t) for t in range(3)]


def _assert_as_if_checked(m, t, label):
    """``label`` is what the validating constructor makes from its fields, and lies in K_{m,t}."""
    checked = Label(label.subnet, label.bits, label.index)
    assert label == checked and repr(label) == repr(checked)  # repr shows any non-int field
    validate_in_graph(m, t, label)


class TestDerivedLabels:
    # father, companion, children, the chains, the route hops and the graph's
    # label_of skip the constructor's checks; each must pass them anyway
    @pytest.mark.parametrize("m,t", DERIVED_GRAPHS)
    def test_valid_by_construction(self, m, t):
        graph = cached_graph(m, t)
        labels = [graph.label_of(v) for v in range(graph.n_vertices)]
        targets = (labels[0], labels[len(labels) // 2], labels[-1])
        for label in labels:
            derived = [label, *children(m, t, label), *ancestor_chain(m, label)]
            if not label.is_hub:
                derived += [father(m, label), companion(label)]
            for target in targets:
                derived += route(m, t, label, target).hops
            for x in derived:
                _assert_as_if_checked(m, t, x)


def _swapped(values, u, v):
    out = values.copy()
    out[[u, v]] = out[[v, u]]
    return out


class TestLabelsSuite:
    # verify.labels_suite reads label keys off the arrays; the reference checks one Label at a time
    @pytest.mark.parametrize(
        "m,t", [(1, t) for t in range(6)] + [(2, t) for t in range(5)] + [(3, t) for t in range(4)]
    )
    def test_matches_reference_on_intact_graphs(self, m, t):
        graph = cached_graph(m, t)
        got = verify.labels_suite(graph)
        assert got == reference_labels_suite(graph)
        assert all(c.status == verify.PASS for c in got)

    @pytest.mark.parametrize("corruption", ["companions' indices swapped", "a triangle row's father changed"])
    def test_matches_reference_on_corrupted_graphs(self, corruption):
        graph = cached_graph(2, 4)
        v = graph.vertex_by_label(parse_label("1011.1", 2))
        if corruption == "companions' indices swapped":
            bad = dataclasses.replace(graph, index=_swapped(graph.index, v, int(graph.companion_of(v))))
        else:
            triangles = graph.triangles.copy()
            triangles[(v - 1) // 2, 0] = 5  # v's father, hub 1, becomes a vertex born at step 1
            bad = dataclasses.replace(graph, triangles=triangles)
        got = verify.labels_suite(bad)
        assert got == reference_labels_suite(bad)
        assert {c.id for c in got if c.status == verify.FAIL} >= {"labels/partition", "labels/father-blocks"}

    def test_far_indices_swapped(self):
        # 1011.1 takes index 46, past l_max = 36 for its bits: the reference stops at that label
        graph = cached_graph(2, 4)
        u = graph.vertex_by_label(parse_label("1011.1", 2))
        v = graph.vertex_by_label(parse_label("3000.46", 2))
        bad = dataclasses.replace(graph, index=_swapped(graph.index, u, v))
        with pytest.raises(LabelFormatError, match=r"^1011\.46: index 46 exceeds l_max=36$"):
            reference_labels_suite(bad)
        got = {c.id: c for c in verify.labels_suite(bad)}
        assert got["labels/bijection"] == verify.CheckResult(
            "labels/bijection",
            "enumerated label set equals the built vertex labels, no duplicates",
            verify.FAIL,
            "|labels|=4803",
        )
        assert got["labels/partition"].status == verify.FAIL

    @pytest.mark.parametrize("slots", [1, 5, 64, 1000])
    @pytest.mark.parametrize(
        "corruption", ["none", "companions' indices swapped", "a triangle row's father changed", "far indices swapped"]
    )
    def test_chunks_do_not_change_a_verdict(self, monkeypatch, slots, corruption):
        # the per-vertex and per-slot checks run over vertex ranges of at most `slots` CSR slots
        # (a hub's row alone is longer than the smaller ones): every detail, witness included,
        # is the one the whole graph gives in one range
        graph = cached_graph(2, 4)
        u = graph.vertex_by_label(parse_label("1011.1", 2))
        if corruption == "companions' indices swapped":
            graph = dataclasses.replace(graph, index=_swapped(graph.index, u, int(graph.companion_of(u))))
        elif corruption == "a triangle row's father changed":
            triangles = graph.triangles.copy()
            triangles[(u - 1) // 2, 0] = 5
            graph = dataclasses.replace(graph, triangles=triangles)
        elif corruption == "far indices swapped":
            v = graph.vertex_by_label(parse_label("3000.46", 2))
            graph = dataclasses.replace(graph, index=_swapped(graph.index, u, v))
        monkeypatch.setattr(verify, "_CHUNK_SLOTS", 2 * graph.csr[0][-1])
        whole = verify.labels_suite(graph)
        monkeypatch.setattr(verify, "_CHUNK_SLOTS", slots)
        assert verify.labels_suite(graph) == whole
        assert all(c.status == verify.PASS for c in whole) == (corruption == "none")

    def test_births_past_seven_pass(self):
        # birth is int8: the degree formula 2(m+1)^(t-birth) and the bit bound 1 << birth widen it
        # first, or K(1,8)'s hubs (degree 2^9) and its vertices born at steps 7 and 8 fail
        graph = build(1, 8)
        assert graph.birth.dtype == np.int8 and int(graph.birth.max()) == 8
        assert all(c.status == verify.PASS for c in verify.labels_suite(graph))

    def test_makes_no_label_per_vertex(self, label_count):
        graph = build(2, 4)
        verify.labels_suite(graph)
        assert label_count() == 0  # a failing partition check makes one, for its first= label
        reference_labels_suite(graph)
        assert label_count() >= graph.n_vertices  # the counter sees the reference's Labels
