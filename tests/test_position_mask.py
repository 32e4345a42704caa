"""Annotations the payload names travel as position masks.

A shipped annotation that is one monomial over principals the tuple's own
values list travels as a mask over the payload's flattened values; the
receiver rebuilds the polynomial from the mask and its own copy of the
payload before it rebuilds the tuple's Merkle leaf.  So: the rebuilt
annotation is the sender's, in normal form, and seals to the same bytes; an
annotation the payload does not name travels explicitly; a tampered mask is
a counted rejection, never an exception; and the frame codec carries the
mask, not the polynomial, across shards.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sealing import deliver, seal

from repro.api import Network
from repro.engine.node_engine import EngineConfig, NodeEngine, OutgoingFact, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.kernel import SimulationKernel
from repro.net.message import MessageBatch
from repro.net.transport import BinaryCodec
from repro.provenance.polynomial import (
    ProvenanceExpression,
    from_position_mask,
    p_var,
    position_mask,
)
from repro.security.authenticator import sealed_bytes
from repro.security.keystore import KeyStore
from repro.security.says import SaysMode


class Name(str):
    """A ``str`` subclass: equal to its text, but never a maskable name."""


NAMES = ("a", "b", "n1", "π", "1")
SCALARS = st.sampled_from(NAMES) | st.sampled_from(
    (Name("a"), Name("π"), 1, True, 1.0, 2.5, None)
)
PAYLOADS = st.lists(
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6),
    min_size=1,
    max_size=5,
).map(tuple)


def flat(values):
    for value in values:
        if type(value) is not str and isinstance(value, (tuple, list)):
            yield from flat(value)
        else:
            yield value


def monomial(names, exponent=1, count=1) -> ProvenanceExpression:
    return ProvenanceExpression.from_monomials(
        {tuple(sorted((name, exponent) for name in set(names))): count}
    )


def sealed(fact: Fact) -> bytes:
    return sealed_bytes(fact.payload(), "n1", "n2", 7, fact.provenance, fact.support)


@settings(max_examples=300, deadline=None)
@given(
    values=PAYLOADS,
    names=st.lists(st.sampled_from(NAMES), max_size=4),
    exponent=st.sampled_from((1, 1, 1, 2)),
    count=st.sampled_from((1, 1, 1, 3)),
)
def test_a_mask_rebuilds_the_annotation_and_its_leaf(values, names, exponent, count):
    annotation = monomial(names, exponent, count)
    flattened = list(flat(values))
    named = {value for value in flattened if type(value) is str}
    packed = position_mask(annotation, values)
    maskable = count == 1 and (exponent == 1 or not names) and set(names) <= named
    assert (packed is not None) == maskable
    if packed is None:
        return  # the explicit polynomial travels
    bits, size = packed
    assert size == 1 + (len(flattened) + 7) // 8
    # The first position of each name, and nothing else.
    assert sorted(i for i in range(len(flattened)) if bits >> i & 1) == sorted(
        next(i for i, v in enumerate(flattened) if type(v) is str and v == name)
        for name in set(names)
    )
    rebuilt = from_position_mask(bits, values)
    assert rebuilt == annotation
    assert rebuilt.monomials == annotation.monomials == annotation.condense().monomials
    assert rebuilt.to_string() == annotation.to_string()
    fact = Fact("r", values, provenance=annotation)
    assert sealed(fact.with_metadata(provenance=rebuilt)) == sealed(fact)


@settings(max_examples=200, deadline=None)
@given(values=PAYLOADS, bits=st.integers(min_value=0, max_value=1 << 20))
def test_a_mask_selecting_past_the_payload_or_a_non_name_rebuilds_nothing(values, bits):
    flattened = list(flat(values))
    selected = [i for i in range(bits.bit_length()) if bits >> i & 1]
    valid = all(i < len(flattened) and type(flattened[i]) is str for i in selected)
    rebuilt = from_position_mask(bits, values)
    assert (rebuilt is not None) == valid
    if valid:
        assert rebuilt.variables() == {flattened[i] for i in selected}


def test_an_annotation_the_payload_does_not_name_travels_explicitly():
    assert position_mask(p_var("a") + p_var("b"), ("a", "b")) is None
    assert position_mask(p_var("c"), ("a", ("b",))) is None
    assert position_mask(p_var("a"), (Name("a"), 1)) is None
    assert position_mask(p_var("a"), (Name("a"), "a")) == (0b10, 2)


# -- engines: a tampered mask is a counted rejection -------------------------------


SENDLOG_PROV = EngineConfig(says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED)
CONDENSED = EngineConfig(provenance_mode=ProvenanceMode.CONDENSED)


@pytest.fixture(scope="module")
def keystore() -> KeyStore:
    store = KeyStore(key_bits=128, seed=9)
    store.create_all(["a", "b"])
    return store


def mid_tuple(compiled, keystore, config):
    """``a``'s export to ``b`` of ``path_p2_mid_1(b, a, 1)``: annotation
    ``<a>``, which its second value names."""
    a = NodeEngine("a", compiled, config, keystore)
    b = NodeEngine("b", compiled, config, keystore)
    (fact,) = [o.fact for o in a.insert_base(Fact("link", ("a", "b", 1.0))).outgoing]
    assert fact.values == ("b", "a", 1.0) and fact.annotation_mask == 0b010
    return a, b, fact


@pytest.mark.parametrize("config", [SENDLOG_PROV, CONDENSED], ids=["sendlog-prov", "condensed"])
@pytest.mark.parametrize("mask", [0b1000, 0b100], ids=["past-the-payload", "selects-a-number"])
def test_an_unrebuildable_mask_is_one_counted_rejection(
    compiled_best_path, keystore, config, mask
):
    a, b, fact = mid_tuple(compiled_best_path, keystore, config)
    tampered = fact.with_metadata(annotation_mask=mask)
    assert tampered.provenance == p_var("a")  # what the sender sealed
    report = deliver(a, b, (tampered,), now=1.0).report
    assert report.facts_rejected == 1
    assert report.verification_failures == (1 if config is SENDLOG_PROV else 0)
    assert report.facts_inserted == 0
    assert not b.provenance.knows(fact.key())
    # The genuine tuple is still admitted afterwards.
    report = deliver(a, b, (fact,), now=2.0).report
    assert report.facts_rejected == 0 and report.facts_inserted == 1


def test_the_receiver_rebuilds_from_the_mask_not_the_senders_annotation(
    compiled_best_path, keystore
):
    """A flipped bit selects another name of the payload; the receiver
    rebuilds ``<b>`` whatever ``provenance`` the tuple still carries, so the
    signed leaf breaks."""
    a, b, fact = mid_tuple(compiled_best_path, keystore, SENDLOG_PROV)
    flipped = fact.with_metadata(annotation_mask=0b001)
    signature = seal(a, (fact,), "b")
    report = b.receive_batch([((flipped,), signature)], 1.0).report
    assert (report.facts_rejected, report.verification_failures) == (1, 1)
    report = b.receive_batch([((fact,), signature)], 2.0).report
    assert (report.facts_rejected, report.facts_verified) == (0, 1)
    assert b.provenance.annotation(fact.key()) == p_var("a")


def test_a_masked_fact_survives_the_frame_codec(compiled_best_path, keystore):
    a, b, fact = mid_tuple(compiled_best_path, keystore, SENDLOG_PROV)
    explicit = Fact("link", ("a", "b", 1.0), asserted_by="a", provenance=p_var("z"))
    batch = MessageBatch(
        source="a",
        destination="b",
        items=(
            OutgoingFact("b", fact, security_bytes=9, provenance_bytes=2),
            OutgoingFact("b", explicit, security_bytes=9, provenance_bytes=1),
        ),
        signature=b"\x01" * 16,
    )
    codec = BinaryCodec()
    ((at, decoded),) = codec.decode_exports(codec.encode_exports([(3.0, batch)]))
    masked, plain = decoded.facts()
    # The mask travels in place of the polynomial; the explicit one as itself.
    assert masked.annotation_mask == fact.annotation_mask and masked.provenance is None
    assert masked.values == fact.values and masked.signature == fact.signature
    assert plain.annotation_mask is None and plain.provenance == p_var("z")
    assert decoded.provenance_bytes == batch.provenance_bytes == 3
    # What crossed the codec is admitted with the sender's annotation.
    report = b.receive_batch([((masked,), seal(a, (fact,), "b"))], 4.0).report
    assert (report.facts_rejected, report.facts_verified) == (0, 1)
    assert b.provenance.annotation(fact.key()) == fact.provenance


# -- kernels: a flipped bit in a signed batch, serial and inline-sharded -----------


def relayed_run(monkeypatch, tamper, **backend):
    """The N=8 ``sendlog-prov`` fixpoint with every data message passing
    *tamper* on its way to the scheduler (and, across shards, the codec)."""
    schedule = SimulationKernel._schedule_delivery

    def relay(kernel, at, message):
        if isinstance(message, MessageBatch):
            message = tamper(message)
        schedule(kernel, at, message)

    with monkeypatch.context() as patch:
        patch.setattr(SimulationKernel, "_schedule_delivery", relay)
        network = Network.build(
            topology=8, program="best-path", provenance="sendlog-prov", seed=4, **backend
        )
        assert network.run().converged
    return network


#: The counters the serial and inline-sharded runs must agree on.
SECURITY = (
    "facts_rejected",
    "verification_failures",
    "facts_verified",
    "tuples_sent",
    "total_bytes",
    "provenance_bytes",
)


def masked_positions(message: MessageBatch):
    return [i for i, fact in enumerate(message.facts()) if fact.annotation_mask]


def test_a_flipped_mask_bit_refuses_its_whole_signed_message(monkeypatch):
    """The relay clears the lowest set bit of one tuple's mask in the first
    signed message of two or more tuples that carries one: a smaller
    monomial rebuilds, its leaf breaks the root, and every tuple of that
    message is refused — identically on the serial and the inline-sharded
    backend, where the tampered mask may cross the frame codec."""
    targets = []

    def find(message):
        if not targets and message.tuple_count >= 2 and masked_positions(message):
            targets.append((message.source, message.sequence, message.tuple_count))
        return message

    relayed_run(monkeypatch, find)
    (source, sequence, tuples), = targets

    def flip(message):
        if (message.source, message.sequence) != (source, sequence):
            return message
        items = list(message.items)
        index = masked_positions(message)[0]
        fact = items[index].fact
        bits = fact.annotation_mask
        items[index] = replace(
            items[index], fact=fact.with_metadata(annotation_mask=bits ^ (bits & -bits))
        )
        return replace(message, items=tuple(items))

    outcomes = []
    for backend in ({}, {"backend": "sharded", "shards": 2, "shard_mode": "inline"}):
        summary = relayed_run(monkeypatch, flip, **backend).stats.summary()
        assert summary["facts_rejected"] == summary["verification_failures"] == tuples
        assert summary["facts_verified"] == summary["tuples_sent"] - tuples
        outcomes.append({key: summary[key] for key in SECURITY})
    assert outcomes[0] == outcomes[1]

