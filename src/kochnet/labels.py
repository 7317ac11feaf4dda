"""Vertex labels and pure label arithmetic.

A vertex label has three parts: the subnet digit n in {1,2,3}, a binary
string recording the growth history (empty exactly for the three hubs),
and a positive index locating the vertex among all vertices that share
the same subnet and bit string.  Textual form: ``"n"`` for a hub,
``"n<bits>.<index>"`` otherwise, e.g. ``"2011.5"``.

Everything in this module is arithmetic on (m, t, label); no adjacency
structure is touched.  The companion / children / father operations
together reconstruct the full neighbor set of any vertex, which the test
suite checks against explicitly built graphs.

The per-class facts have one source, ``_class_table``: one entry per
(m, bits), kept in a bounded cache, holds the class's l_max and, for
each ancestor, the length of its bit prefix and the child-block width
that maps an index to its index.  ``l_max`` checks its arguments and
returns the bound; ``validate_in_graph`` checks a label against it and
returns the climb steps, which ``routing.route`` climbs by; ``father``
and ``routing.ancestor_chain`` read the table's steps directly.  So
after the first lookup one climb step is one ceiling division and one
slice.
A ``Label`` is a tuple of its three fields.  Its constructor, ``_make``
and ``_replace`` check them; a label derived from a valid one (a father,
a companion, a child, a climb hop, the graph's ``label_of``) is made by
``_derived``, one unchecked ``tuple.__new__``, and the climb makes each
hop by that same call, inline.
"""

from __future__ import annotations

import operator
import re
from contextlib import suppress
from functools import lru_cache
from typing import NamedTuple

from .errors import LabelDomainError, LabelFormatError

_LABEL_RE = re.compile(r"([123])(0[01]*)\.([1-9][0-9]*)")
_HUB_RE = re.compile(r"[123]")

# a tuple of the given type holding the given fields, with no check
_tuple_new = tuple.__new__


def _integer(name: str, value) -> int:
    """``value`` as a plain int; a bool, a float or any other non-integer is refused."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise LabelFormatError(f"{name} must be an integer, got {value!r}")


class _LabelFields(NamedTuple):
    subnet: int
    bits: str
    index: int | None


class Label(_LabelFields):
    """Identity of one vertex: subnet digit, growth bits, index within its bit class.

    It equals, hashes, orders, unpacks and indexes as the plain tuple of
    its fields.  Integer fields are stored as Python ints.
    """

    __slots__ = ()

    def __new__(cls, subnet: int, bits: str = "", index: int | None = None) -> Label:
        subnet = _integer("subnet", subnet)
        if subnet not in (1, 2, 3):
            raise LabelFormatError(f"subnet must be 1, 2 or 3, got {subnet}")
        if not isinstance(bits, str):
            raise LabelFormatError(f"bits must be a str, got {bits!r}")
        if bits == "":
            if index is not None:
                raise LabelFormatError("hub labels carry no index")
        else:
            if bits[0] != "0":
                raise LabelFormatError(f"first bit must be 0 (initial vertices have no fathers): {bits!r}")
            if any(c not in "01" for c in bits):
                raise LabelFormatError(f"bits must be over {{0,1}}: {bits!r}")
            if index is None or (index := _integer("index", index)) < 1:
                raise LabelFormatError("non-hub labels need a positive index")
        return _tuple_new(cls, (subnet, bits, index))

    @classmethod
    def _make(cls, iterable) -> Label:
        """A checked Label from an iterable of its fields; ``_replace`` makes its result here."""
        return cls(*iterable)

    @property
    def is_hub(self) -> bool:
        return self.bits == ""

    @property
    def birth(self) -> int:
        """Iteration at which the vertex joined the network (bit-string length)."""
        return len(self.bits)

    def __str__(self) -> str:
        return format_label(self)


def _derived(subnet: int, bits: str, index: int | None) -> Label:
    """A Label for fields derived from a valid Label, made without re-running its checks.

    Only the father, companion and child formulas, ``parse_label`` once its
    pattern matched and the index is in bound, and the graph's own label
    arrays call this; their results are valid by construction.  A
    father's bits are a prefix of valid bits that keeps the leading 0, and
    its index is a ceiling >= 1.  A companion stays in 1..l_max because
    l_max is even for every non-hub bit string.  Children append '0' and
    ones to valid bits, within the index range ``child_block`` gives.
    The ancestor climb ``_ancestors`` makes its hops the same way, inline.
    """
    return _tuple_new(Label, (subnet, bits, index))


# the three hubs, by subnet digit; Labels are immutable, so every caller may share them
_HUBS = (None, Label(1), Label(2), Label(3))

# bit classes whose table ``_class_table`` keeps.  K(m,t) has 2^t - 1 of them, so every
# class of a graph up to t = 8 stays; an entry costs about 90 bytes per ancestor.
_CLASS_TABLE_SIZE = 256


def l_max(m: int, bits: str) -> int:
    """Number of vertices sharing one subnet and the bit string ``bits``.

    Equals (2m)^(j-s) * (m+1)^s for a length-j string with s ones: every
    growth step multiplies the class either by the 2m sons a lone vertex
    spawns (0-steps) or by the m+1 triangles an aging father accumulates
    (1-steps).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not bits:
        raise LabelFormatError("hubs have no index space (empty bit string)")
    if bits[0] != "0" or any(c not in "01" for c in bits):
        raise LabelFormatError(f"invalid bit string {bits!r}")
    return _class_table(m, bits)[0]


def format_label(label: Label) -> str:
    if label.is_hub:
        return str(label.subnet)
    return f"{label.subnet}{label.bits}.{label.index}"


def parse_label(text: str, m: int) -> Label:
    """Parse ``text`` into a Label, enforcing the index bound for parameter m."""
    if _HUB_RE.fullmatch(text):
        return _derived(int(text), "", None)
    match = _LABEL_RE.fullmatch(text)
    if match is None:
        if re.match(r"^[123]1", text):
            raise LabelFormatError(f"{text!r}: first bit must be 0")
        raise LabelFormatError(f"{text!r}: expected 'n' or 'n<bits>.<index>' with n in 1..3")
    subnet, bits, digits = int(match.group(1)), match.group(2), match.group(3)
    try:
        index = int(digits)
    except ValueError:  # more digits than Python converts: sys.get_int_max_str_digits()
        raise LabelFormatError(f"{text!r}: index of {len(digits)} digits is too long") from None
    bound = _class_table(m, bits)[0]  # the pattern has checked the bits
    if index > bound:
        raise LabelFormatError(f"{text!r}: index {index} exceeds l_max={bound} for m={m}")
    return _derived(subnet, bits, index)


def validate_in_graph(m: int, t: int, label: Label) -> tuple[tuple[int, int], ...]:
    """Check the label denotes a vertex of K_{m,t}, and return its climb steps (() for a hub).

    m >= 1, t >= 0, the label is born by step t and its index is within
    the bound of its class table, whose steps (see ``_class_table``) are
    returned.  A Label's bits were checked when it was made (or are valid
    by derivation), so they are not checked again.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    bits = label.bits
    if len(bits) > t:
        raise LabelDomainError(f"{label} born at step {len(bits)} > t={t}")
    if not bits:
        return ()
    bound, steps = _class_table(m, bits)
    if label.index > bound:
        raise LabelFormatError(f"{label}: index {label.index} exceeds l_max={bound}")
    return steps


def companion(label: Label) -> Label:
    """The other son of the same group: same bits, index flipped within its odd/even pair."""
    if label.is_hub:
        raise LabelDomainError(f"hub {label} has no same-group companion")
    l = label.index
    return _derived(label.subnet, label.bits, l + 1 if l % 2 == 1 else l - 1)


def father(m: int, label: Label) -> Label:
    """Label of the unique higher-degree neighbor.

    The rightmost 0 in the bit string sits at position j (1-based); the
    father was born at step j-1 and its child block at the vertex's birth
    step has width 2m(m+1)^(i-j), so the father's index is the ceiling of
    the vertex index over that width.  When j = 1 the father is the hub.
    """
    if label.is_hub:
        raise LabelDomainError(f"hub {label} has no father")
    steps = _class_table(m, label.bits)[1]
    if not steps:
        return _HUBS[label.subnet]
    cut, width = steps[0]
    return _derived(label.subnet, label.bits[:cut], -(-label.index // width))


def _ancestors(label: Label, steps: tuple[tuple[int, int], ...]) -> list[Label]:
    """[label, father, ..., hub], by the steps of the label's class table (() for a hub).

    Each step is one ceiling division of the index and one cut of the bits.
    Each hop is made inline as ``_derived`` makes it, which saves a call per hop.
    """
    subnet, bits, index = label.subnet, label.bits, label.index
    chain = [label]
    if not bits:
        return chain
    for cut, width in steps:
        index = -(-index // width)
        chain.append(_tuple_new(Label, (subnet, bits[:cut], index)))
    chain.append(_HUBS[subnet])
    return chain


@lru_cache(maxsize=_CLASS_TABLE_SIZE)
def _class_table(m: int, bits: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Everything the label arithmetic needs of one non-hub bit class, for parameter m.

    Returns the class's ``l_max`` and one step per non-hub ancestor, from
    the father up: (cut, width), where the ancestor's bits are ``bits[:cut]``
    and its index is the ceiling of the previous index over ``width``, the
    child-block width 2m(m+1)^r for the r ones after the cut's 0.  The hub
    at the top has no step.  Entries hold lengths and widths, never bit
    strings, so a deep class costs O(birth) ints.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ones = bits.count("1")
    bound = (2 * m) ** (len(bits) - ones) * (m + 1) ** ones
    steps = []
    end = len(bits)
    cut = bits.rfind("0", 0, end)
    while cut > 0:  # the rightmost 0 of bits[:end]; at position 0 the father is the hub
        steps.append((cut, 2 * m * (m + 1) ** (end - 1 - cut)))
        end = cut
        cut = bits.rfind("0", 0, end)
    return bound, tuple(steps)


def child_block(m: int, label: Label, step: int) -> tuple[str, int, int]:
    """Bit string and (first, last) index of the children ``label`` gains at ``step``.

    Children arriving at step j carry bits(v) + '0' + (j-birth-1) ones and
    occupy the index block ((l_v-1)*D, l_v*D] with D = 2m(m+1)^(j-birth-1);
    hubs own the whole range of their bit class.
    """
    i = label.birth
    if step <= i:
        raise ValueError(f"step {step} not after birth {i}")
    width = 2 * m * (m + 1) ** (step - i - 1)
    bits = label.bits + "0" + "1" * (step - i - 1)
    base = 0 if label.is_hub else (label.index - 1) * width
    return bits, base + 1, base + width


def children(m: int, t: int, label: Label) -> set[Label]:
    """All lower-degree neighbors of the vertex in K_{m,t}."""
    validate_in_graph(m, t, label)
    out: set[Label] = set()
    for step in range(label.birth + 1, t + 1):
        bits, first, last = child_block(m, label, step)
        out.update(_derived(label.subnet, bits, l) for l in range(first, last + 1))
    return out


def degree_of(m: int, t: int, label: Label) -> int:
    """Degree in K_{m,t}: 2(m+1)^(t - birth)."""
    validate_in_graph(m, t, label)
    return 2 * (m + 1) ** (t - label.birth)
