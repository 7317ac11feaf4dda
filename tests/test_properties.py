"""Property tests of the label arithmetic on random large-t labels, with no graph build.

Labels are drawn for m <= 4 with bit strings of up to 40 bits, far beyond
any graph that could be built, so these check the arithmetic itself: the
codec, the father formula against the child-block assignment, and the
symmetry, op budget and hop-by-hop adjacency of label-only routing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kochnet import Label, companion, father, format_label, l_max, parse_label, route
from kochnet.labels import child_block

MAX_BITS = 40

ms = st.integers(1, 4)


@st.composite
def labels(draw, m: int, max_birth: int = MAX_BITS) -> Label:
    subnet = draw(st.integers(1, 3))
    birth = draw(st.integers(0, max_birth))
    if birth == 0:
        return Label(subnet)
    bits = format(draw(st.integers(0, 2 ** (birth - 1) - 1)), "b").zfill(birth)  # leading 0
    return Label(subnet, bits, draw(st.integers(1, l_max(m, bits))))


@st.composite
def relatives(draw, m: int, label: Label) -> Label:
    """A vertex below one of ``label``'s ancestors, so that routes splice inside a subnet."""
    while not label.is_hub and draw(st.booleans()):
        label = father(m, label)
    while label.birth < MAX_BITS and draw(st.booleans()):
        step = draw(st.integers(label.birth + 1, MAX_BITS))
        bits, first, last = child_block(m, label, step)
        label = Label(label.subnet, bits, draw(st.integers(first, last)))
    return label


def adjacent_by_arithmetic(m: int, x: Label, y: Label) -> bool:
    """Father/child or companions; the three hubs are each other's companions."""
    if x.is_hub and y.is_hub:
        return x != y
    if (not x.is_hub and father(m, x) == y) or (not y.is_hub and father(m, y) == x):
        return True
    return not x.is_hub and not y.is_hub and companion(x) == y


arithmetic = settings(deadline=None, max_examples=200)


@arithmetic
@given(st.data())
def test_codec_round_trip(data):
    m = data.draw(ms)
    label = data.draw(labels(m))
    assert parse_label(format_label(label), m) == label


@arithmetic
@given(st.data())
def test_father_inverts_child_block(data):
    m = data.draw(ms)
    label = data.draw(labels(m, max_birth=MAX_BITS - 1))
    for step in range(label.birth + 1, MAX_BITS + 1):
        bits, first, last = child_block(m, label, step)
        assert last <= l_max(m, bits)
        child = Label(label.subnet, bits, data.draw(st.integers(first, last)))
        assert father(m, child) == label


@arithmetic
@given(st.data())
def test_route_symmetric_within_budget_and_adjacent(data):
    m = data.draw(ms)
    a = data.draw(labels(m))
    b = data.draw(st.one_of(labels(m), relatives(m, a)))
    t = max(a.birth, b.birth)
    path = route(m, t, a, b)
    assert route(m, t, b, a) == path.reversed()
    assert path.hops[0] == a and path.hops[-1] == b
    assert path.ops_used <= 2 * t + 3
    for x, y in zip(path.hops, path.hops[1:]):
        assert adjacent_by_arithmetic(m, x, y)
