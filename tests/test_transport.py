"""Tests for the coordination frame codec.

Every command and reply between the shard coordinator and its kernels is one
frame: one pickle of the value.  Its contract has two parts:

* **exactness** — decoding a frame rebuilds every field of every wire
  message and event kind, values outside the literal vocabulary included;
* **determinism** — the same payload encodes to the same bytes in every
  process, whatever its hash seed, so the ``coordination_bytes`` ledger is
  reproducible and identical between inline and process shard modes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from wire import batch_of_one

import repro
from repro.engine.node_engine import OutgoingFact
from repro.engine.tuples import Fact
from repro.net.events import (
    FactInjection,
    FactRetraction,
    LinkDown,
    LinkUp,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
    QueryArrival,
    QueryTimeout,
    SoftStateRefresh,
)
from repro.net.message import (
    RECORD_DERIVED,
    RECORD_MISSING,
    AntiDelta,
    MessageBatch,
    PointerCodebook,
    QueryClosure,
    QueryRequest,
    QueryResponse,
)
from repro.net.transport import BinaryCodec
from repro.provenance.log import ProvenancePointer
from repro.provenance.polynomial import ProvenanceExpression
from repro.security.authenticator import Seal, SignedEnvelope
from repro.security.says import SEQUENCE_BYTES

WIRE_MESSAGES = (MessageBatch, QueryRequest, QueryResponse, AntiDelta)
EVENTS = (
    FactInjection,
    FactRetraction,
    LinkDown,
    LinkUp,
    NodeCrash,
    NodeRecover,
    SoftStateRefresh,
    MessageDelivery,
    QueryTimeout,
    QueryArrival,
)


# ---------------------------------------------------------------------------
# Structural comparison (the wire and event classes use identity equality)
# ---------------------------------------------------------------------------

def same(a, b) -> bool:
    """Equal type and equal content, field by field, all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if is_dataclass(a):
        if hasattr(a, "size_bytes") and a.size_bytes() != b.size_bytes():
            return False
        return all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare
        )
    return a == b


def round_trip(value):
    codec = BinaryCodec()
    return codec.decode_frame(codec.encode_frame(value))


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
        support=ProvenanceExpression.var("link('n1','n3',2.5)"),
    )
    coded = Fact(
        "path",
        ("n1", "n3", 2.5),
        provenance=ProvenanceExpression.var("n1"),
        support=ProvenanceExpression.var("link('n1','n3',2.5)"),
    )
    plain = Fact("link", ("n1", "n2"), timestamp=0.5)
    pointer = ProvenancePointer(
        output=("bestPath", ("n1", "n3", 2.5)),
        rule_label="bp2",
        node="n2",
        inputs=(
            (("link", ("n1", "n2")), "n1"),
            (("link", ("n2", "n3")), None),
        ),
        timestamp=0.75,
    )
    book = PointerCodebook((pointer.rule_label,), (("link", 2),))
    closure = QueryClosure(
        bytes([RECORD_DERIVED, RECORD_MISSING]),
        (book.encode(pointer.output, (pointer,)), b""),
    )
    return [
        (0.001, batch_of_one("n1", "n2", plain, sequence=7)),
        (
            0.002,
            MessageBatch(
                source="n2",
                destination="n3",
                items=(
                    OutgoingFact("n3", fact, provenance_bytes=40),
                    OutgoingFact(
                        "n3", coded, provenance_bytes=6, mask=1, code=b"\x00\x00\x01\x02"
                    ),
                    OutgoingFact("n3", plain),
                ),
                sent_at=0.0015,
                sequence=8,
                seal=Seal("n2", 41, b"\x01\x02sig"),
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
                closure=closure,
                annotation=_condensed(),
                annotation_bytes=48,
                signature=b"resp-sig",
                sent_at=0.0035,
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
    facts = (Fact("link", ("n1", "n2"), ttl=30.0, asserted_by="n1"),)
    return [
        (FactInjection(time=0.0, address="n1", facts=facts, remember=False), 1, True),
        (FactRetraction(time=0.5, address="n2", facts=facts), 2, True),
        (LinkDown(time=1.0, source="n1", destination="n2", retract=False), 3, False),
        (LinkUp(time=2.0, source="n1", destination="n2", facts=facts), 4, True),
        (NodeCrash(time=3.0, address="n3", clear_state=False), 5, True),
        (NodeRecover(time=4.0, address="n3", reinject=False), 6, False),
        (SoftStateRefresh(time=5.0), 7, True),
        (MessageDelivery(time=6.0, message=batch_of_one("n1", "n2", facts[0])), 8, True),
        (QueryTimeout(time=7.0, query_id=11, request_id=13), 9, False),
        (
            QueryArrival(
                time=8.0,
                address="n4",
                relation="path",
                draw=2**40,
                pool=3,
                mode="offline",
                condensed=True,
                client=-1,
                arrival_id=17,
                deadline=8.5,
                think=0.25,
            ),
            10,
            True,
        ),
    ]


def sample_frame() -> bytes:
    """One frame holding every wire message and event kind."""
    return BinaryCodec().encode_frame((_sample_exports(), _sample_events()))


def test_samples_cover_every_wire_and_event_kind():
    assert {type(message) for _, message in _sample_exports()} == set(WIRE_MESSAGES)
    assert [type(event) for event, _, _ in _sample_events()] == list(EVENTS)


def test_exports_round_trip_all_wire_kinds():
    exports = _sample_exports()
    decoded = round_trip(exports)
    assert same(decoded, exports)
    # A frame is a copy: no decoded message is shared with the sender.
    assert not any(a is b for (_, a), (_, b) in zip(decoded, exports))


def test_events_round_trip_all_kinds():
    batch = _sample_events()
    assert same(round_trip(batch), batch)


def test_a_signed_batch_carries_its_signature_once_and_no_path():
    """A frame carries the batch's one seal — its principal, its first export
    number and its signature — and no per-tuple principal, number or Merkle
    path: the receiver derives those."""
    signature = b"\xa5" * 32
    facts = [Fact("path", ("n1", f"n{i}", float(i))) for i in range(3)]
    batch = MessageBatch(
        source="n1",
        destination="n2",
        items=tuple(OutgoingFact("n2", fact) for fact in facts),
        seal=Seal("n1", 5, signature),
    )
    codec = BinaryCodec()
    frame = codec.encode_frame([(0.1, batch)])
    assert frame.count(signature) == 1
    ((_, decoded),) = codec.decode_frame(frame)
    assert decoded.seal == Seal("n1", 5, signature)
    assert decoded.security_bytes == len("n1") + SEQUENCE_BYTES + len(signature)
    assert all(
        item.fact.signature is None and item.fact.asserted_by is None for item in decoded.items
    )


def test_binary_frames_are_deterministic():
    """Payloads built the same way encode to the same bytes."""
    assert sample_frame() == sample_frame()


def test_frames_do_not_depend_on_the_hash_seed():
    """The same payload, encoded in two processes with different hash seeds,
    gives byte-identical frames — the same bytes as here."""
    tests = Path(__file__).resolve().parent
    source = Path(repro.__file__).resolve().parent.parent
    script = "import sys, test_transport; sys.stdout.buffer.write(test_transport.sample_frame())"
    frames = []
    for seed in ("1", "2"):
        environment = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join((str(tests), str(source))),
        )
        frames.append(
            subprocess.run(
                [sys.executable, "-c", script],
                env=environment,
                capture_output=True,
                check=True,
                timeout=120,
            ).stdout
        )
    assert frames[0] == frames[1] == sample_frame()


class Opaque:
    """A value outside the literal vocabulary (an arbitrary user class)."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


def test_non_literal_values_round_trip():
    fact = Fact("weird", (Opaque("x"), float("inf"), -0.0))
    exports = [(0.5, batch_of_one("n1", "n2", fact))]
    decoded = round_trip(exports)
    assert same(decoded, exports)
    assert str(decoded[0][1].items[0].fact.values[2]) == "-0.0"


def test_a_fact_travels_without_its_payload_memo():
    """A frame carries a fact's fields, neither its rendered payload nor its
    memoised size: the receiver renders the same bytes on demand."""
    (_, batch) = _sample_exports()[1]
    for fact in (item.fact for item in batch.items):
        rendered = fact.payload()
        assert fact.payload_size() == len(rendered)
        assert fact._payload_size == len(rendered)
        frame = BinaryCodec().encode_frame(fact)
        assert rendered not in frame
        decoded = BinaryCodec().decode_frame(frame)
        assert decoded._payload_size is None
        assert decoded.payload_size() == len(rendered)
        assert all(
            same(getattr(decoded, f.name), getattr(fact, f.name))
            for f in fields(Fact)
            if f.compare
        )
        assert decoded.payload() == rendered


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
        # A tuple in flight carries no envelope (its message's seal does); a
        # stored tuple's evidence (number, signature, path) travels whole.
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
            )
        ),
        provenance=provenance,
        origin=draw(st.one_of(st.none(), _addresses)),
    )


@st.composite
def _messages(draw):
    destination = draw(_addresses)
    items = tuple(
        OutgoingFact(
            destination,
            draw(_facts()),
            provenance_bytes=draw(st.integers(min_value=0, max_value=512)),
            mask=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=255))),
            code=draw(st.one_of(st.none(), st.binary(max_size=8))),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return MessageBatch(
        source=draw(_addresses),
        destination=destination,
        items=items,
        sent_at=draw(st.floats(min_value=0, max_value=1e6)),
        sequence=draw(st.integers(min_value=0, max_value=2**32)),
        seal=draw(
            st.one_of(
                st.none(),
                st.builds(
                    Seal,
                    _addresses,
                    st.integers(min_value=1, max_value=2**63),
                    st.binary(min_size=1, max_size=16),
                ),
            )
        ),
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
    assert same(round_trip(exports), exports)
    # Determinism: the ledger's byte counts must be reproducible.
    assert codec.encode_frame(exports) == codec.encode_frame(exports)
