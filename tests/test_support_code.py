"""Base-support polynomials travel relative to the payload, as support codes.

Under one-fixpoint deletions an exported tuple's base-support polynomial
names base tuples whose arguments the tuple's own values mostly carry.  It
travels as a code — per variable its relation's index, per argument a
payload position or a literal — and the receiver rebuilds the polynomial
from the code and its own copy of the payload before it rebuilds the
tuple's Merkle leaf.  So: a code decodes to the polynomial it was made
from, rendered the same; a malformed code is a counted rejection of its
tuple, never an exception; a tampered position breaks a signed message's
root; and a coded tuple that crosses the frame codec is still admitted.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sealing import deliver, receive, seal

from repro.engine.node_engine import EngineConfig, NodeEngine, OutgoingFact, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.message import MessageBatch
from repro.net.transport import BinaryCodec
from repro.provenance.polynomial import (
    BaseVariables,
    ProvenanceExpression,
    flat_values,
    from_support_code,
    support_code,
)
from repro.security.authenticator import Seal
from repro.security.keystore import KeyStore
from repro.security.says import SaysMode

#: A catalog: ``cost`` (index 0), ``link`` (1), ``tag`` (2).
ARITIES = {"link": 3, "cost": 2, "tag": 1}

#: ``\ud800`` is a lone surrogate: a ``str`` with no UTF-8 form.
NAMES = st.sampled_from(("a", "b", "n1", "n12", "π", "", "\ud800"))
SPECIAL_FLOATS = (7.0, 0.0, -0.0, -3.0, 2.5, 1e300, -(2.0**53), 2.0**53)
NON_FINITE = (float("inf"), float("-inf"), float("nan"))
FLOATS = st.sampled_from(SPECIAL_FLOATS + NON_FINITE) | st.floats(
    allow_nan=True, allow_infinity=True
)
INTS = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
SCALARS = NAMES | INTS | FLOATS
PAYLOADS = st.lists(
    st.one_of(SCALARS, st.lists(SCALARS, max_size=4).map(tuple)), min_size=1, max_size=5
).map(tuple)


@st.composite
def supports(draw):
    """``(payload, support)``: a condensed support over base tuples whose
    arguments are drawn from the payload's values and from literals."""
    values = draw(PAYLOADS)
    flat = flat_values(values)
    arguments = st.sampled_from(flat) | SCALARS if flat else SCALARS
    table = BaseVariables(ARITIES)
    monomials = set()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        variables = set()
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            relation = draw(st.sampled_from(sorted(ARITIES)))
            args = tuple(draw(arguments) for _ in range(ARITIES[relation]))
            variables.add(table.name((relation, args)))
        monomials.add(frozenset(variables))
    support = ProvenanceExpression.from_monomials(
        {tuple((name, 1) for name in sorted(names)): 1 for names in monomials}
    ).condense()
    return values, support, table


@settings(max_examples=300, deadline=None)
@given(supports())
def test_a_code_decodes_to_the_support_it_was_made_from(drawn):
    values, support, table = drawn
    flat = flat_values(values)
    code = support_code(support, flat, table)
    if code is None:
        # Only a variable naming a lone surrogate (rendered escaped) has
        # no code.
        assert any("\\ud800" in name for name in support.variables())
        return
    receiver = BaseVariables(ARITIES)  # knows none of the variables yet
    for names in (receiver, table):
        rebuilt = from_support_code(code, flat, names)
        assert rebuilt == support
        assert rebuilt.to_string() == support.to_string()
    # The receiver enters what it rebuilt only once it admits the support;
    # then each variable is one lookup.
    assert not receiver.keys and set(receiver.fresh) == support.variables()
    receiver.admit(rebuilt)
    assert set(receiver.keys) == support.variables() and not receiver.fresh
    assert from_support_code(code, flat, receiver) == support and not receiver.fresh


def test_an_argument_the_payload_carries_travels_as_its_position():
    table = BaseVariables(ARITIES)
    support = ProvenanceExpression.var(table.name(("link", ("b", "zz", 7.0))))
    flat = flat_values(("a", ("x", "b"), 3, "b"))
    # One monomial of one variable; link is relation 1; ``b`` is position 2
    # (its first occurrence), ``zz`` a literal, 7.0 the zigzag varint 14.
    assert support_code(support, flat, table) == bytes(
        (1, 1, 1, 2, 0x7F, 2)
    ) + b"zz" + bytes((0x7D, 14))
    assert support_code(support, flat_values((1, "b")), table)[3] == 1
    assert support_code(support, flat_values(("zz", "b")), table)[3:5] == bytes((1, 0))


def test_a_support_no_code_can_say_travels_explicitly():
    table = BaseVariables(ARITIES)
    name = table.name(("link", ("a", "b", 1.0)))
    for support in (
        ProvenanceExpression.from_monomials({((name, 1),): 2}),  # a coefficient
        ProvenanceExpression.from_monomials({((name, 2),): 1}),  # an exponent
        ProvenanceExpression.var("link('a','c',1.0)"),  # never named by the table
    ):
        assert support_code(support, ["a", "b"], table) is None
    assert support_code(ProvenanceExpression.var(name), ["a", "b"], table) is not None


@pytest.mark.parametrize(
    "key",
    [
        ("link", ("a", "b", True)),  # a bool argument
        ("link", ("a", ("b",), 1.0)),  # a tuple argument
        ("route", ("a", "b", 1.0)),  # an unknown relation
        ("link", ("a", "b")),  # an arity mismatch
        ("link", ("a", "b", 1 << 64)),  # an int past 64 bits
        ("link", ("a", "\ud800", 1.0)),  # a str with no UTF-8 form
    ],
    ids=["bool", "tuple", "relation", "arity", "big-int", "surrogate"],
)
def test_a_variable_no_code_can_say_sends_its_support_explicitly(key):
    table = BaseVariables(ARITIES)
    good = table.name(("link", ("a", "b", 1.0)))
    support = ProvenanceExpression.var(good) * ProvenanceExpression.var(table.name(key))
    assert support_code(support, ["a", "b"], table) is None
    assert support_code(ProvenanceExpression.var(good), ["a", "b"], table) is not None


def test_the_table_tells_equal_values_with_different_renderings_apart():
    table = BaseVariables(ARITIES)
    names = {table.name(("tag", (value,))) for value in (1, 1.0, 0.0, -0.0, True)}
    assert names == {"tag(1)", "tag(1.0)", "tag(0.0)", "tag(-0.0)", "tag(True)"}
    # A NaN decoded twice is one entry.
    code = support_code(ProvenanceExpression.var(table.name(("tag", (float("nan"),)))), [], table)
    receiver = BaseVariables(ARITIES)
    for _ in range(3):
        rebuilt = from_support_code(code, [], receiver)
        assert rebuilt.to_string() == "tag(nan)"
        receiver.admit(rebuilt)
    assert len(receiver.names) == len(receiver.keys) == 1


# -- malformed codes ----------------------------------------------------------------

#: Beside the payload ``("b", "a", 1.0)``: one monomial, one ``link``
#: variable, ``a`` at position 1, ``b`` at position 0, then 1.0.
GOOD = bytes((1, 1, 2, 1, 0, 0x7D, 2))
MALFORMED = {
    "truncated": GOOD[:-1],
    "trailing": GOOD + b"\x00",
    "past-the-payload": bytes((1, 1, 2, 3, 0, 0x7D, 2)),
    "on-a-number": bytes((1, 1, 2, 2, 0, 0x7D, 2)),
    "unknown-relation": bytes((1, 1, 9, 1, 0, 0x7D, 2)),
    "unknown-tag": bytes((1, 1, 2, 1, 0, 0xFF, 2)),
    # Tags a support's arguments never take: a tuple, None, a nest of
    # tuples deeper than the reader recurses.
    "tuple-argument": bytes((1, 1, 2, 1, 0, 0x80, 1, 0)),
    "none-argument": bytes((1, 1, 2, 1, 0, 0x83)),
    "deep-tuple": bytes((1, 1, 2, 1, 0)) + bytes((0x80, 1)) * 5000 + bytes((0,)),
    "duplicate-variable": bytes((1, 2, 2, 1, 0, 0x7D, 2, 2, 1, 0, 0x7D, 2)),
    "duplicate-monomial": bytes((2, 1, 2, 1, 0, 0x7D, 2, 1, 2, 1, 0, 0x7D, 2)),
    "over-long-varint": bytes((1, 1, 2, 1, 0, 0x7C)) + b"\xff" * 10 + b"\x01",
    "varint-past-64-bits": bytes((1, 1, 2, 1, 0, 0x7C)) + b"\xff" * 9 + b"\x7f",
    "string-past-the-end": bytes((1, 1, 2, 1, 0, 0x7F, 5)) + b"ab",
    "bad-utf8": bytes((1, 1, 2, 1, 0, 0x7F, 1, 0xFF)),
    "empty": b"",
}
PAYLOAD = ("b", "a", 1.0)


def test_the_good_code_decodes():
    table = BaseVariables({"bestPath": 4, "bestPathCost": 3, "link": 3, "path": 4})
    assert from_support_code(GOOD, list(PAYLOAD), table) == ProvenanceExpression.var(
        "link('a','b',1.0)"
    )


@pytest.mark.parametrize("code", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_code_rebuilds_nothing(code):
    table = BaseVariables({"bestPath": 4, "bestPathCost": 3, "link": 3, "path": 4})
    assert from_support_code(code, list(PAYLOAD), table) is None


@settings(max_examples=300, deadline=None)
@given(code=st.binary(max_size=40), values=PAYLOADS)
def test_any_bytes_decode_to_a_support_or_to_nothing(code, values):
    table = BaseVariables(ARITIES)
    rebuilt = from_support_code(code, flat_values(values), table)
    assert rebuilt is None or isinstance(rebuilt, ProvenanceExpression)


CONDENSED = EngineConfig(provenance_mode=ProvenanceMode.CONDENSED, rederivation=True)
SENDLOG_PROV = EngineConfig(
    says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED, rederivation=True
)


@pytest.fixture(scope="module")
def keystore() -> KeyStore:
    store = KeyStore(key_bits=128, seed=9)
    store.create_all(["a", "b"])
    return store


def mid_tuple(compiled, keystore, config):
    """``a``'s export to ``b`` of ``path_p2_mid_1(b, a, 1.0)``, as its wire
    item: support ``link('a','b',1.0)``, coded as :data:`GOOD`."""
    a = NodeEngine("a", compiled, config, keystore)
    b = NodeEngine("b", compiled, config, keystore)
    (item,) = a.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
    assert item.fact.values == PAYLOAD and item.code == GOOD
    return a, b, item


@pytest.mark.parametrize("code", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_code_refuses_exactly_its_tuple(compiled_best_path, keystore, code):
    a, b, item = mid_tuple(compiled_best_path, keystore, CONDENSED)
    fact = item.fact
    other = Fact("bestPathCost", ("b", "z", 3.0), origin="a")
    known = set(b._bases.keys)
    report = receive(b, (replace(item, code=code), other), None, 1.0).report
    assert (report.facts_received, report.facts_rejected) == (2, 1)
    assert report.verification_failures == 0
    assert b.facts("bestPathCost") == (other,)
    assert fact.key() not in b._support
    assert set(b._bases.keys) == known and not b._bases.fresh
    # The genuine tuple is still admitted afterwards.
    report = deliver(a, b, (item,), now=2.0).report
    assert report.facts_rejected == 0 and report.facts_inserted == 1
    assert b._support[fact.key()] == fact.support


def test_a_flipped_position_byte_refuses_the_whole_signed_message(compiled_best_path, keystore):
    """Swapping the two positions rebuilds ``link('b','a',1.0)``: a support
    the sender never sealed, so the message's root breaks and neither of
    its tuples is admitted."""
    a, b, item = mid_tuple(compiled_best_path, keystore, SENDLOG_PROV)
    fact = item.fact
    other = Fact("bestPathCost", ("b", "z", 3.0), origin="a")
    flipped = replace(item, code=bytes((1, 1, 2, 0, 1, 0x7D, 2)))
    signature = seal(a, (item, other), "b")
    known = len(b._bases.keys)
    report = receive(b, (flipped, other), signature, 1.0).report
    assert (report.facts_rejected, report.verification_failures, report.facts_inserted) == (2, 2, 0)
    assert fact.key() not in b._support
    # What the refused code rebuilt entered none of ``b``'s tables.
    assert len(b._bases.keys) == known and not b._bases.fresh
    report = receive(b, (item, other), signature, 2.0).report
    assert (report.facts_rejected, report.facts_verified) == (0, 2)
    assert b._support[fact.key()] == fact.support
    assert len(b._bases.keys) == known + 1 and "link('a','b',1.0)" in b._bases.keys


def test_a_malformed_code_in_a_signed_message_refuses_all_of_it(compiled_best_path, keystore):
    a, b, item = mid_tuple(compiled_best_path, keystore, SENDLOG_PROV)
    truncated = replace(item, code=MALFORMED["truncated"])
    report = receive(b, (truncated,), seal(a, (item,), "b"), 1.0).report
    assert (report.facts_rejected, report.verification_failures) == (1, 1)


# -- the frame codec ------------------------------------------------------------------


def test_a_coded_fact_crosses_the_frame_codec_as_its_code(compiled_best_path, keystore):
    a, b, item = mid_tuple(compiled_best_path, keystore, SENDLOG_PROV)
    fact = item.fact
    explicit = Fact("link", ("a", "b", 1.0), support=fact.support)
    batch = MessageBatch(
        source="a",
        destination="b",
        items=(
            replace(item, provenance_bytes=8),
            OutgoingFact("b", explicit, provenance_bytes=18),
        ),
        seal=Seal("a", 1, b"\x01" * 16),
    )
    codec = BinaryCodec()
    ((at, decoded),) = codec.decode_frame(codec.encode_frame([(3.0, batch)]))
    coded, plain = decoded.items
    assert item.mask is not None and coded.mask == item.mask
    assert coded.code == GOOD
    assert coded.fact.values == fact.values and coded.fact.signature == fact.signature
    assert plain.code is None and plain.fact.support == fact.support
    assert decoded.provenance_bytes == batch.provenance_bytes == 26
    # What crossed the codec is admitted with the sender's support.
    report = b.receive_batch([((coded,), seal(a, (item,), "b"))], 4.0).report
    assert (report.facts_rejected, report.facts_verified) == (0, 1)
    assert b._support[fact.key()] == fact.support
