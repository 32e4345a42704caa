"""The payload renderer against the one it replaced.

``reference_render_value`` / ``reference_render_str_tuple`` are
``engine/tuples.py``'s ``_render_value`` / ``_render_str_tuple`` as they
stood before the write path was sized to its traffic, verbatim (the
module-level ``lru_cache`` included — it is what the new renderer makes
dead).  The renderer decides what is signed and what the bandwidth model
charges, so the new one must produce the same text for every value, and
``payload_size()`` must stay ``len(payload())`` — computed, not estimated.
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.tuples import Fact, _render_value, render_payload
from repro.net.message import key_payload_bytes


# -- the reference -----------------------------------------------------------------


def reference_render_value(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, tuple):
        for element in value:
            if type(element) is not str:
                break
        else:
            return reference_render_str_tuple(value)
        return "[" + "|".join(reference_render_value(v) for v in value) + "]"
    if isinstance(value, list):
        return "[" + "|".join(reference_render_value(v) for v in value) + "]"
    return str(value)


@lru_cache(maxsize=65536)
def reference_render_str_tuple(value: tuple) -> str:
    return "[" + "|".join(value) + "]"


def reference_payload(relation, values):
    rendered = ",".join(map(reference_render_value, values))
    return f"{relation}({rendered})".encode("utf-8")


# -- values --------------------------------------------------------------------------


class Name(str):
    """A ``str`` subclass that is a string in every way but its type."""


class Cost(float):
    """A ``float`` subclass: integral ones still render without the ``.0``."""


SCALARS = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="aπ|[](),", max_size=4),
    st.text(max_size=4).map(Name),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**6), max_value=10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(Cost),
)

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.text(max_size=3), max_size=5).map(tuple),
    ),
    max_leaves=8,
)

RELATIONS = st.sampled_from(["link", "bestPath", "π", "r_1", ""])


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_every_value_renders_as_it_did(value):
    assert _render_value(value) == reference_render_value(value)


@settings(max_examples=300, deadline=None)
@given(RELATIONS, st.lists(VALUES, max_size=5).map(tuple))
def test_payload_and_size_are_the_references(relation, values):
    expected = reference_payload(relation, values)
    assert render_payload(relation, values) == expected
    fact = Fact(relation, values)
    # Size first: payload_size() must render, not estimate, on a cold fact.
    assert fact.payload_size() == len(expected)
    assert fact.payload() == expected
    assert fact.payload_size() == len(fact.payload())
    assert key_payload_bytes((relation, values)) == len(expected)


@pytest.mark.parametrize(
    "value, rendered",
    [
        ("n1", "n1"),
        ("", ""),
        (3, "3"),
        (True, "True"),
        (None, "None"),
        (2.0, "2"),
        (-0.0, "0"),
        (2.5, "2.5"),
        (1e300, str(int(1e300))),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (Cost(4.0), "4"),
        (Cost(4.5), "4.5"),
        (Name("n2"), "n2"),
        ((), "[]"),
        ([], "[]"),
        (("a", "b", "c"), "[a|b|c]"),
        (["a", "b"], "[a|b]"),
        (("a", Name("b")), "[a|b]"),
        (("a", 1.0, ("b", 2)), "[a|1|[b|2]]"),
        ((True, 1, 1.0), "[True|1|1]"),
        (("π", "é"), "[π|é]"),
        ((b"x",), "[b'x']"),
    ],
)
def test_named_values(value, rendered):
    assert _render_value(value) == rendered
    assert reference_render_value(value) == rendered


def test_a_str_subclass_that_overrides_str_renders_as_its_characters_in_a_path():
    # The one input the two renderers disagree on, pinned so the difference
    # stays deliberate: ``"|".join`` reads a str subclass's characters and
    # never calls its ``__str__``; the reference called ``str()`` on every
    # element it did not recognise as an exact ``str``.  ``Name`` above (no
    # ``__str__`` of its own) cannot tell; nothing the parser, the topology
    # builders or the builtins produce is such a subclass.
    class Shouting(str):
        def __str__(self):
            return self.upper()

    path = ("a", Shouting("b"))
    assert _render_value(path) == "[a|b]"
    assert reference_render_value(path) == "[a|B]"
    assert _render_value(Shouting("b")) == reference_render_value(Shouting("b")) == "B"


def test_size_is_bytes_not_characters():
    # A size-by-arithmetic prototype summed character counts: 'π' is two
    # bytes on the wire, in the relation name and in a value alike.
    fact = Fact("π", ("é", ("π", "a"), 1.0))
    assert fact.payload() == "π(é,[π|a],1)".encode("utf-8")
    assert fact.payload_size() == len(fact.payload()) == 15 > len("π(é,[π|a],1)")
    assert key_payload_bytes(fact.key()) == 15


def test_equal_keys_that_render_differently_are_not_conflated():
    # 1 / True / 1.0 are one dict key and three renderings (two sizes): no
    # renderer memo may be keyed by value.
    sizes = [key_payload_bytes(("r", ((flag, "a"),))) for flag in (1, True, 1.0, 1)]
    assert sizes == [len("r([1|a])"), len("r([True|a])"), len("r([1|a])"), len("r([1|a])")]
    assert _render_value((True, "a")) == "[True|a]"
    assert _render_value((1, "a")) == "[1|a]"


def test_key_is_sized_without_building_a_fact(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("key_payload_bytes built a Fact")

    monkeypatch.setattr(Fact, "__init__", forbidden)
    assert key_payload_bytes(("link", ("a", "b", 1.0))) == len(b"link(a,b,1)")
