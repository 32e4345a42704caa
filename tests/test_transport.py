"""Tests for the coordination frame codec.

The binary codec carries every hot-path payload between the shard
coordinator and its workers.  Its contract has three parts:

* **exactness** — decode(encode(x)) reconstructs every field the simulation
  reads, for every wire message and event shape (values outside the literal
  vocabulary fall back to pickle per item, invisibly);
* **determinism** — the same payload encodes to the same bytes, so the
  ``coordination_bytes`` ledger is reproducible and identical between
  inline and process shard modes;
* **compactness** — frames are smaller than pickling the same payload, and
  large frames deflate.
"""

from __future__ import annotations

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.tuples import Fact
from repro.net.events import (
    FactInjection,
    FactRetraction,
    LinkDown,
    LinkUp,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
    QueryTimeout,
    SoftStateRefresh,
)
from repro.net.message import (
    AntiDelta,
    BatchItem,
    Message,
    MessageBatch,
    QueryRequest,
    QueryResponse,
    QueryClosureEntry,
)
from repro.net.transport import COMPRESS_MIN_BYTES, BinaryCodec
from repro.provenance.log import ProvenancePointer
from repro.provenance.polynomial import ProvenanceExpression
from repro.security.authenticator import SignedEnvelope


# ---------------------------------------------------------------------------
# Structural comparison (the wire classes use identity equality)
# ---------------------------------------------------------------------------

def _same_provenance(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return type(a) is type(b) and a == b


def _same_fact(a: Fact, b: Fact) -> bool:
    return (
        a.relation == b.relation
        and a.values == b.values
        and a.timestamp == b.timestamp
        and a.ttl == b.ttl
        and a.asserted_by == b.asserted_by
        and a.signature == b.signature
        and a.origin == b.origin
        and _same_provenance(a.provenance, b.provenance)
    )


def _same_message(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Message):
        return (
            a.source == b.source
            and a.destination == b.destination
            and _same_fact(a.fact, b.fact)
            and a.security_bytes == b.security_bytes
            and a.provenance_bytes == b.provenance_bytes
            and a.sent_at == b.sent_at
            and a.sequence == b.sequence
            and a.signature == b.signature
        )
    if isinstance(a, MessageBatch):
        return (
            a.source == b.source
            and a.destination == b.destination
            and a.sent_at == b.sent_at
            and a.sequence == b.sequence
            and a.signature == b.signature
            and a.security_bytes == b.security_bytes
            and len(a.items) == len(b.items)
            and all(
                _same_fact(x.fact, y.fact)
                and x.security_bytes == y.security_bytes
                and x.provenance_bytes == y.provenance_bytes
                for x, y in zip(a.items, b.items)
            )
        )
    if isinstance(a, AntiDelta):
        return (
            a.source == b.source
            and a.destination == b.destination
            and a.keys == b.keys
            and a.sent_at == b.sent_at
            and a.sequence == b.sequence
            and a.security_bytes == b.security_bytes
            and a.signature == b.signature
            and a.size_bytes() == b.size_bytes()
        )
    if isinstance(a, QueryRequest):
        return (
            a.source == b.source
            and a.destination == b.destination
            and a.key == b.key
            and a.query_id == b.query_id
            and a.request_id == b.request_id
            and a.mode == b.mode
            and a.condensed == b.condensed
            and a.authenticated == b.authenticated
            and a.sent_at == b.sent_at
            and a.sequence == b.sequence
        )
    if isinstance(a, QueryResponse):
        return (
            a.source == b.source
            and a.destination == b.destination
            and a.query_id == b.query_id
            and a.request_id == b.request_id
            and a.key == b.key
            and a.entries == b.entries
            and a.missing == b.missing
            and a.annotation_bytes == b.annotation_bytes
            and a.signature == b.signature
            and a.sent_at == b.sent_at
            and _same_provenance(a.annotation, b.annotation)
        )
    return a == b


def _assert_exports_round_trip(codec, exports) -> None:
    frame = codec.encode_exports(exports)
    decoded = codec.decode_exports(frame)
    assert len(decoded) == len(exports)
    for (t_a, m_a), (t_b, m_b) in zip(exports, decoded):
        assert t_a == t_b
        assert _same_message(m_a, m_b), (m_a, m_b)


# ---------------------------------------------------------------------------
# Hand-written shapes: one of everything
# ---------------------------------------------------------------------------

def _condensed() -> ProvenanceExpression:
    return ProvenanceExpression(monomials=((("r1@n1", "r2@n2"), 2),))


def _sample_exports():
    fact = Fact(
        "bestPath",
        ("n1", "n3", 2.5),
        timestamp=1.25,
        ttl=30.0,
        asserted_by="n1",
        signature=SignedEnvelope(41),
        provenance=_condensed(),
        origin="n1",
    )
    plain = Fact("link", ("n1", "n2"), timestamp=0.5)
    entry = QueryClosureEntry(
        key=("bestPath", ("n1", "n3", 2.5)),
        node="n2",
        is_base=False,
        pointers=(
            ProvenancePointer(
                output=("bestPath", ("n1", "n3", 2.5)),
                rule_label="bp2",
                node="n2",
                inputs=((("link", ("n1", "n2")), "n1"),),
                timestamp=0.75,
            ),
        ),
    )
    return [
        (0.001, Message(source="n1", destination="n2", fact=plain, sequence=7)),
        (
            0.002,
            MessageBatch(
                source="n2",
                destination="n3",
                items=(
                    BatchItem(fact=fact, security_bytes=112, provenance_bytes=40),
                    BatchItem(fact=plain),
                ),
                sent_at=0.0015,
                sequence=8,
                signature=b"\x01\x02sig",
            ),
        ),
        (
            0.0025,
            Message(
                source="n1",
                destination="n3",
                fact=fact,
                security_bytes=21,
                sent_at=0.002,
                sequence=12,
                signature=b"\x03\x04sig",
            ),
        ),
        (
            0.003,
            QueryRequest(
                source="n3",
                destination="n1",
                key=("link", ("n1", "n2")),
                query_id=4,
                request_id=9,
                mode="offline",
                condensed=True,
                authenticated=True,
                sent_at=0.0025,
                sequence=9,
            ),
        ),
        (
            0.004,
            QueryResponse(
                source="n1",
                destination="n3",
                query_id=4,
                request_id=9,
                key=("link", ("n1", "n2")),
                entries=(entry,),
                missing=(("bestPath", ("n9", "n1", 1.0)),),
                annotation=_condensed(),
                annotation_bytes=48,
                signature=b"resp-sig",
                sent_at=0.0035,
            ),
        ),
        (
            0.005,
            AntiDelta(
                source="n1",
                destination="n2",
                keys=(("link", ("n1", "n2", 1.5)),),
                sent_at=0.0045,
                sequence=10,
            ),
        ),
        (
            0.006,
            AntiDelta(
                source="n1",
                destination="n3",
                keys=(("link", ("n1", "n2", 1.5)), ("link", ("n1", "n4", True))),
                sent_at=0.0045,
                sequence=11,
                security_bytes=42,
                signature=b"\x00\x07seal",
            ),
        ),
    ]


def _sample_events():
    facts = (Fact("link", ("n1", "n2"), ttl=30.0),)
    return [
        (FactInjection(time=0.0, address="n1", facts=facts), 1, True),
        (FactRetraction(time=0.5, address="n2", facts=facts), 2, True),
        (LinkDown(time=1.0, source="n1", destination="n2", retract=True), 3, False),
        (LinkUp(time=2.0, source="n1", destination="n2", facts=facts), 4, True),
        (NodeCrash(time=3.0, address="n3", clear_state=True), 5, True),
        (NodeRecover(time=4.0, address="n3", reinject=False), 6, False),
        (SoftStateRefresh(time=5.0), 7, True),
        (
            MessageDelivery(
                time=6.0,
                message=Message(source="n1", destination="n2", fact=facts[0]),
            ),
            8,
            True,
        ),
        (QueryTimeout(time=7.0, query_id=11, request_id=13), 9, False),
    ]


def test_exports_round_trip_all_wire_kinds():
    _assert_exports_round_trip(BinaryCodec(), _sample_exports())


def test_a_signed_batch_carries_its_signature_once_and_no_path():
    """A frame carries each tuple's export sequence and the batch's one
    signature, never a Merkle path: the receiver derives those."""
    signature = b"\xa5" * 32
    facts = [
        Fact("path", ("n1", f"n{i}", float(i)), asserted_by="n1", signature=SignedEnvelope(i))
        for i in range(3)
    ]
    batch = MessageBatch(
        source="n1",
        destination="n2",
        items=tuple(BatchItem(fact=fact, security_bytes=10) for fact in facts),
        signature=signature,
    )
    codec = BinaryCodec()
    frame = codec.encode_exports([(0.1, batch)])
    assert frame.count(signature) == 1
    ((_, decoded),) = codec.decode_exports(frame)
    assert decoded.signature == signature
    assert decoded.security_bytes == 3 * 10 + len(signature)
    assert [fact.signature for fact in decoded.facts()] == [SignedEnvelope(i) for i in range(3)]


def test_events_round_trip_all_kinds():
    codec = BinaryCodec()
    batch = _sample_events()
    decoded = codec.decode_events(codec.encode_events(batch))
    assert len(decoded) == len(batch)
    for (ev_a, stamp_a, owned_a), (ev_b, stamp_b, owned_b) in zip(batch, decoded):
        assert (stamp_a, owned_a) == (stamp_b, owned_b)
        assert type(ev_a) is type(ev_b)
        assert ev_a.time == ev_b.time


def test_binary_frames_are_deterministic():
    codec = BinaryCodec()
    exports = _sample_exports()
    assert codec.encode_exports(exports) == codec.encode_exports(exports)
    events = _sample_events()
    assert codec.encode_events(events) == codec.encode_events(events)


def test_binary_beats_pickle_on_export_batches():
    exports = _sample_exports()
    binary = len(BinaryCodec().encode_exports(exports))
    pickled = len(pickle.dumps(exports, protocol=pickle.HIGHEST_PROTOCOL))
    assert binary < pickled


def test_large_frames_deflate():
    fact = Fact("bestPath", ("node-with-a-long-name-1", "node-2", 3.5), ttl=30.0)
    exports = [
        (0.001 * i, Message(source="n1", destination="n2", fact=fact, sequence=i))
        for i in range(200)
    ]
    codec = BinaryCodec()
    frame = codec.encode_exports(exports)
    assert frame[0:1] == b"\x01"  # compressed shape
    assert len(frame) >= COMPRESS_MIN_BYTES  # threshold is pre-compression
    _assert_exports_round_trip(codec, exports)


def test_small_frames_stay_raw():
    frame = BinaryCodec().encode_exports([])
    assert frame[0:1] == b"\x00"
    assert len(frame) < COMPRESS_MIN_BYTES


class Opaque:
    """A value outside the literal wire vocabulary (forces pickle fallback)."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


def test_non_literal_values_fall_back_to_pickle():
    fact = Fact("weird", (Opaque("x"), float("inf"), -0.0))
    exports = [(0.5, Message(source="n1", destination="n2", fact=fact))]
    _assert_exports_round_trip(BinaryCodec(), exports)


# ---------------------------------------------------------------------------
# Property: arbitrary export batches round-trip exactly
# ---------------------------------------------------------------------------

_values = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.booleans(),
    st.binary(max_size=8),
    st.none(),
)

_addresses = st.sampled_from(["n1", "n2", "n3", "n4", "edge-router"])
_relations = st.sampled_from(["link", "bestPath", "reachable", "pathCost"])


@st.composite
def _facts(draw):
    provenance = None
    if draw(st.booleans()):
        monomial = tuple(sorted(draw(st.sets(st.text(max_size=6), max_size=3))))
        provenance = ProvenanceExpression(monomials=((monomial, 1),))
    return Fact(
        draw(_relations),
        tuple(draw(st.lists(_values, max_size=4))),
        timestamp=draw(st.floats(min_value=0, max_value=1e6)),
        ttl=draw(st.one_of(st.none(), st.floats(min_value=0.001, max_value=1e3))),
        asserted_by=draw(st.one_of(st.none(), _addresses)),
        # In flight an envelope is its sequence number alone.  A stored
        # tuple's evidence (signature and path) and a raw ``bytes`` signature
        # are outside the frame vocabulary: they ride the per-message pickle
        # fallback.
        signature=draw(
            st.one_of(
                st.none(),
                st.builds(SignedEnvelope, st.integers(min_value=0, max_value=2**63)),
                st.builds(
                    SignedEnvelope,
                    st.integers(min_value=0, max_value=2**63),
                    st.binary(min_size=1, max_size=16),
                    st.just(((True, b"\x00" * 32),)),
                ),
                st.binary(max_size=16),
            )
        ),
        provenance=provenance,
        origin=draw(st.one_of(st.none(), _addresses)),
    )


_message_signatures = st.one_of(st.none(), st.binary(min_size=1, max_size=16))


@st.composite
def _messages(draw):
    if draw(st.booleans()):
        return Message(
            source=draw(_addresses),
            destination=draw(_addresses),
            fact=draw(_facts()),
            security_bytes=draw(st.integers(min_value=0, max_value=512)),
            provenance_bytes=draw(st.integers(min_value=0, max_value=512)),
            sent_at=draw(st.floats(min_value=0, max_value=1e6)),
            sequence=draw(st.integers(min_value=0, max_value=2**32)),
            signature=draw(_message_signatures),
        )
    items = tuple(
        BatchItem(
            fact=draw(_facts()),
            security_bytes=draw(st.integers(min_value=0, max_value=512)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return MessageBatch(
        source=draw(_addresses),
        destination=draw(_addresses),
        items=items,
        sent_at=draw(st.floats(min_value=0, max_value=1e6)),
        sequence=draw(st.integers(min_value=0, max_value=2**32)),
        signature=draw(_message_signatures),
    )


@st.composite
def _export_batches(draw):
    return [
        (draw(st.floats(min_value=0, max_value=1e6)), draw(_messages()))
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(exports=_export_batches())
def test_property_export_batches_round_trip(exports):
    codec = BinaryCodec()
    _assert_exports_round_trip(codec, exports)
    # Determinism: the ledger's byte counts must be reproducible.
    assert codec.encode_exports(exports) == codec.encode_exports(exports)
