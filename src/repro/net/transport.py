"""The coordination frame codec of the sharded backend.

The sharded coordinator and its workers exchange three kinds of payload at
every synchronization point: cross-shard export batches (``(deliver_at,
message)`` pairs), stamped control-event batches (drain flushes), and small
window-grant headers.  A pickled ``Fact`` is hundreds of bytes of class
metadata, so those payloads travel as compact **binary frames** over the
worker pipes (:class:`BinaryCodec`):

* struct-packed numeric headers (times, sequence numbers, counts);
* a per-frame **string table** interning addresses, relations, principals
  and rule labels, so each repeated name costs 4 bytes;
* payloads (fact values, provenance monomials, query keys) via the same
  deterministic ``repr`` literal encoding the offline archive's spill log
  uses (:mod:`repro.provenance.store`): ``repr`` of literals +
  ``ast.literal_eval`` round-trips exactly and never depends on hash seeds,
  unlike pickled sets; an annotation that travels as a position mask is
  written as the mask's little-endian bytes, never as its polynomial;
* frames of at least ``COMPRESS_MIN_BYTES`` are deflated when that saves
  bytes.

Frames are **deterministic**: encoding the same logical payload yields the
same bytes in every process, which is what lets the coordinator expose
``coordination_bytes`` as a deterministic counter — identical between
``shard_mode="inline"`` and ``"processes"`` runs.  Messages whose payload is
not literal-encodable (exotic user values) fall back to a per-message pickle
record, keeping the codec total.
"""

from __future__ import annotations

import ast
import math
import pickle
import struct
import zlib
from typing import Dict, List, Optional, Tuple

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
    RefreshHorizon,
    RefreshTimerFire,
    SimulationEvent,
    SoftStateRefresh,
)
from repro.net.message import (
    AntiDelta,
    MessageBatch,
    QueryClosureEntry,
    QueryRequest,
    QueryResponse,
    WIRE_KINDS,
)
from repro.provenance.log import ProvenancePointer
from repro.provenance.polynomial import ProvenanceExpression
from repro.security.authenticator import SignedEnvelope

#: Binary frames at least this large are deflate-compressed before hitting
#: the wire.  ``zlib.compress`` at a fixed level is deterministic for a given
#: input, so compressed frames — and therefore ``coordination_bytes`` — stay
#: identical across runs and across inline/process shard modes on one host.
COMPRESS_MIN_BYTES = 512

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

_KIND_PICKLE = 255
_EVENT_KINDS: Dict[type, int] = {
    FactInjection: 1,
    FactRetraction: 2,
    LinkDown: 3,
    LinkUp: 4,
    NodeCrash: 5,
    NodeRecover: 6,
    SoftStateRefresh: 7,
    MessageDelivery: 8,
    QueryTimeout: 9,
    QueryArrival: 10,
    RefreshHorizon: 11,
    RefreshTimerFire: 12,
}


class _Unencodable(Exception):
    """Internal: this payload cannot take the literal fast path."""


class _Writer:
    """Append-only binary buffer with struct-packed primitives."""

    __slots__ = ("buffer",)

    def __init__(self) -> None:
        self.buffer = bytearray()

    def u8(self, value: int) -> None:
        self.buffer += _U8.pack(value)

    def u32(self, value: int) -> None:
        self.buffer += _U32.pack(value)

    def u64(self, value: int) -> None:
        self.buffer += _U64.pack(value)

    def f64(self, value: float) -> None:
        self.buffer += _F64.pack(value)

    def blob(self, data: bytes) -> None:
        self.buffer += _U32.pack(len(data))
        self.buffer += data


class _Reader:
    """Sequential reader matching :class:`_Writer`."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self.data = data
        self.offset = offset

    def u8(self) -> int:
        value = _U8.unpack_from(self.data, self.offset)[0]
        self.offset += 1
        return value

    def u32(self) -> int:
        value = _U32.unpack_from(self.data, self.offset)[0]
        self.offset += 4
        return value

    def u64(self) -> int:
        value = _U64.unpack_from(self.data, self.offset)[0]
        self.offset += 8
        return value

    def f64(self) -> float:
        value = _F64.unpack_from(self.data, self.offset)[0]
        self.offset += 8
        return value

    def blob(self) -> bytes:
        length = self.u32()
        value = bytes(self.data[self.offset : self.offset + length])
        self.offset += length
        return value


class _StringTable:
    """Per-frame interning of repeated names (addresses, relations, ...)."""

    __slots__ = ("_indices", "_strings")

    def __init__(self) -> None:
        self._indices: Dict[str, int] = {}
        self._strings: List[str] = []

    def intern(self, value: str) -> int:
        if type(value) is not str:
            # Address-like subclasses of str intern by their text; anything
            # else has no stable literal form here.
            if not isinstance(value, str):
                raise _Unencodable(f"non-string name {value!r}")
            value = str(value)
        index = self._indices.get(value)
        if index is None:
            index = len(self._strings)
            self._indices[value] = index
            self._strings.append(value)
        return index

    def emit(self) -> bytes:
        writer = _Writer()
        writer.u32(len(self._strings))
        for text in self._strings:
            writer.blob(text.encode("utf-8"))
        return bytes(writer.buffer)

    @staticmethod
    def parse(reader: _Reader) -> List[str]:
        return [reader.blob().decode("utf-8") for _ in range(reader.u32())]


# ---------------------------------------------------------------------------
# Literal payloads
# ---------------------------------------------------------------------------

def _check_literal(value: object) -> None:
    """Raise :class:`_Unencodable` unless ``repr``/``literal_eval`` round-trips."""
    if value is None or value is True or value is False:
        return
    kind = type(value)
    if kind is str or kind is bytes or kind is int:
        return
    if kind is float:
        if math.isfinite(value):
            return
        raise _Unencodable("non-finite float has no literal form")
    if kind is tuple or kind is list:
        for element in value:
            _check_literal(element)
        return
    raise _Unencodable(f"value of type {kind.__name__} has no literal form")


def _literal_blob(value: object) -> bytes:
    _check_literal(value)
    return repr(value).encode("utf-8")


def _parse_literal(data: bytes) -> object:
    return ast.literal_eval(data.decode("utf-8"))


def _encode_polynomial(writer: _Writer, polynomial) -> None:
    """A condensed polynomial — a fact's annotation or support, a response's
    annotation — as its normal-form monomials.  Whoever holds an optional
    one marks its presence: a fact in its flags, a response in a byte."""
    if not isinstance(polynomial, ProvenanceExpression):
        raise _Unencodable(f"unknown polynomial {type(polynomial).__name__}")
    writer.blob(_literal_blob(polynomial.monomials))


def _decode_polynomial(reader: _Reader) -> ProvenanceExpression:
    return ProvenanceExpression(monomials=_parse_literal(reader.blob()))


_FACT_HAS_TTL = 1
_FACT_HAS_ASSERTER = 2
_FACT_HAS_SIGNATURE = 4
_FACT_HAS_ORIGIN = 8
_FACT_HAS_SUPPORT = 16
_FACT_HAS_ANNOTATION = 32
#: The annotation travels as its position mask over the payload, in place
#: of the polynomial: the receiver rebuilds it from the values.
_FACT_HAS_MASK = 64


def _encode_fact(writer: _Writer, table: _StringTable, fact: Fact) -> None:
    support, annotation, mask = fact.support, fact.provenance, fact.annotation_mask
    if mask is not None:
        annotation = None
    envelope = fact.signature
    if envelope is not None and not isinstance(envelope, SignedEnvelope):
        raise _Unencodable(f"unknown signature {type(envelope).__name__}")
    if envelope is not None and (envelope.signature or envelope.path):
        # A tuple travels under its message's signature; the evidence a
        # receiver stores with it (signature and path) never goes back out.
        raise _Unencodable("a stored tuple's evidence does not travel")
    flags = 0
    if fact.ttl is not None:
        flags |= _FACT_HAS_TTL
    if fact.asserted_by is not None:
        flags |= _FACT_HAS_ASSERTER
    if envelope is not None:
        flags |= _FACT_HAS_SIGNATURE
    if fact.origin is not None:
        flags |= _FACT_HAS_ORIGIN
    if support is not None:
        flags |= _FACT_HAS_SUPPORT
    if annotation is not None:
        flags |= _FACT_HAS_ANNOTATION
    if mask is not None:
        flags |= _FACT_HAS_MASK
    writer.u32(table.intern(fact.relation))
    writer.u8(flags)
    writer.f64(fact.timestamp)
    if fact.ttl is not None:
        writer.f64(fact.ttl)
    if fact.asserted_by is not None:
        writer.u32(table.intern(fact.asserted_by))
    if envelope is not None:
        writer.u64(envelope.sequence)
    if fact.origin is not None:
        writer.u32(table.intern(fact.origin))
    if support is not None:
        _encode_polynomial(writer, support)
    writer.blob(_literal_blob(fact.values))
    if annotation is not None:
        _encode_polynomial(writer, annotation)
    if mask is not None:
        writer.blob(mask.to_bytes((mask.bit_length() + 7) // 8, "little"))


def _decode_fact(reader: _Reader, strings: List[str]) -> Fact:
    relation = strings[reader.u32()]
    flags = reader.u8()
    timestamp = reader.f64()
    ttl = reader.f64() if flags & _FACT_HAS_TTL else None
    asserted_by = strings[reader.u32()] if flags & _FACT_HAS_ASSERTER else None
    signature = SignedEnvelope(reader.u64()) if flags & _FACT_HAS_SIGNATURE else None
    origin = strings[reader.u32()] if flags & _FACT_HAS_ORIGIN else None
    support = _decode_polynomial(reader) if flags & _FACT_HAS_SUPPORT else None
    values = _parse_literal(reader.blob())
    provenance = _decode_polynomial(reader) if flags & _FACT_HAS_ANNOTATION else None
    mask = int.from_bytes(reader.blob(), "little") if flags & _FACT_HAS_MASK else None
    return Fact(
        relation=relation,
        values=values,
        timestamp=timestamp,
        ttl=ttl,
        asserted_by=asserted_by,
        signature=signature,
        provenance=provenance,
        origin=origin,
        support=support,
        annotation_mask=mask,
    )


def _encode_key(writer: _Writer, table: _StringTable, key) -> None:
    relation, values = key
    writer.u32(table.intern(relation))
    writer.blob(_literal_blob(tuple(values)))


def _decode_key(reader: _Reader, strings: List[str]):
    relation = strings[reader.u32()]
    return (relation, _parse_literal(reader.blob()))


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------

def _encode_message_body(writer: _Writer, table: _StringTable, message) -> None:
    kind = WIRE_KINDS.get(type(message))
    if kind is None:
        raise _Unencodable(f"unknown wire message {type(message).__name__}")
    writer.u8(kind)
    writer.u32(table.intern(message.source))
    writer.u32(table.intern(message.destination))
    writer.f64(message.sent_at)
    writer.u64(message.sequence)
    if isinstance(message, MessageBatch):
        writer.u32(len(message.items))
        for item in message.items:
            writer.u32(item.security_bytes)
            writer.u32(item.provenance_bytes)
            _encode_fact(writer, table, item.fact)
        _encode_seal(writer, message)
    elif isinstance(message, QueryRequest):
        _encode_key(writer, table, message.key)
        writer.u64(message.query_id)
        writer.u64(message.request_id)
        writer.u32(table.intern(message.mode))
        writer.u8((1 if message.condensed else 0) | (2 if message.authenticated else 0))
    elif isinstance(message, AntiDelta):
        writer.u32(len(message.keys))
        for key in message.keys:
            _encode_key(writer, table, key)
        writer.u32(message.security_bytes)
        writer.blob(message.signature or b"")
    else:  # QueryResponse
        _encode_key(writer, table, message.key)
        writer.u64(message.query_id)
        writer.u64(message.request_id)
        writer.u32(len(message.entries))
        for entry in message.entries:
            _encode_key(writer, table, entry.key)
            writer.u32(table.intern(entry.node))
            writer.u8(1 if entry.is_base else 0)
            writer.u32(len(entry.pointers))
            for pointer in entry.pointers:
                _encode_key(writer, table, pointer.output)
                writer.u32(table.intern(pointer.rule_label))
                writer.u32(table.intern(pointer.node))
                writer.f64(pointer.timestamp)
                writer.u32(len(pointer.inputs))
                for input_key, input_origin in pointer.inputs:
                    _encode_key(writer, table, input_key)
                    if input_origin is None:
                        writer.u8(0)
                    else:
                        writer.u8(1)
                        writer.u32(table.intern(input_origin))
        writer.u32(len(message.missing))
        for key in message.missing:
            _encode_key(writer, table, key)
        if message.annotation is None:
            writer.u8(0)
        else:
            writer.u8(1)
            _encode_polynomial(writer, message.annotation)
        writer.u32(message.annotation_bytes)
        if message.signature is None:
            writer.u8(0)
        else:
            writer.u8(1)
            writer.blob(message.signature)


def _sealed(facts) -> bool:
    """Whether a data message is signed: its tuples carry export sequence
    numbers exactly when ``says`` is, so unsigned frames spend no byte on
    the signature."""
    return any(fact.signature is not None for fact in facts)


def _encode_seal(writer: _Writer, message) -> None:
    """A data message's one signature, once, after its tuples — never a
    Merkle path: the receiver derives those from the tuples."""
    if _sealed(message.facts()):
        writer.blob(message.signature or b"")
    elif message.signature is not None:
        raise _Unencodable("a signature over tuples that carry no sequence numbers")


def _decode_seal(reader: _Reader, facts) -> Optional[bytes]:
    return (reader.blob() or None) if _sealed(facts) else None


def _decode_message_body(reader: _Reader, strings: List[str]):
    kind = reader.u8()
    if kind == _KIND_PICKLE:
        return pickle.loads(reader.blob())
    source = strings[reader.u32()]
    destination = strings[reader.u32()]
    sent_at = reader.f64()
    sequence = reader.u64()
    if kind == 1:  # MessageBatch
        items = []
        for _ in range(reader.u32()):
            security = reader.u32()
            provenance = reader.u32()
            fact = _decode_fact(reader, strings)
            items.append(OutgoingFact(destination, fact, security, provenance))
        return MessageBatch(
            source=source,
            destination=destination,
            items=tuple(items),
            sent_at=sent_at,
            sequence=sequence,
            signature=_decode_seal(reader, [item.fact for item in items]),
        )
    if kind == 2:  # QueryRequest
        key = _decode_key(reader, strings)
        query_id = reader.u64()
        request_id = reader.u64()
        mode = strings[reader.u32()]
        flags = reader.u8()
        return QueryRequest(
            source=source,
            destination=destination,
            key=key,
            query_id=query_id,
            request_id=request_id,
            mode=mode,
            condensed=bool(flags & 1),
            authenticated=bool(flags & 2),
            sent_at=sent_at,
            sequence=sequence,
        )
    if kind == 4:  # AntiDelta
        keys = tuple(_decode_key(reader, strings) for _ in range(reader.u32()))
        return AntiDelta(
            source=source,
            destination=destination,
            keys=keys,
            sent_at=sent_at,
            sequence=sequence,
            security_bytes=reader.u32(),
            signature=reader.blob() or None,
        )
    if kind == 3:  # QueryResponse
        key = _decode_key(reader, strings)
        query_id = reader.u64()
        request_id = reader.u64()
        entries = []
        for _ in range(reader.u32()):
            entry_key = _decode_key(reader, strings)
            node = strings[reader.u32()]
            is_base = bool(reader.u8())
            pointers = []
            for _ in range(reader.u32()):
                output = _decode_key(reader, strings)
                rule_label = strings[reader.u32()]
                pointer_node = strings[reader.u32()]
                timestamp = reader.f64()
                inputs = []
                for _ in range(reader.u32()):
                    input_key = _decode_key(reader, strings)
                    origin = strings[reader.u32()] if reader.u8() else None
                    inputs.append((input_key, origin))
                pointers.append(
                    ProvenancePointer(
                        output=output,
                        rule_label=rule_label,
                        node=pointer_node,
                        inputs=tuple(inputs),
                        timestamp=timestamp,
                    )
                )
            entries.append(
                QueryClosureEntry(
                    key=entry_key,
                    node=node,
                    is_base=is_base,
                    pointers=tuple(pointers),
                )
            )
        missing = tuple(_decode_key(reader, strings) for _ in range(reader.u32()))
        annotation = _decode_polynomial(reader) if reader.u8() else None
        annotation_bytes = reader.u32()
        signature = reader.blob() if reader.u8() else None
        return QueryResponse(
            source=source,
            destination=destination,
            query_id=query_id,
            request_id=request_id,
            key=key,
            entries=tuple(entries),
            missing=missing,
            annotation=annotation,
            annotation_bytes=annotation_bytes,
            signature=signature,
            sent_at=sent_at,
            sequence=sequence,
        )
    raise ValueError(f"unknown wire-message kind {kind} in coordination frame")


def _encode_message(writer: _Writer, table: _StringTable, message) -> None:
    """Encode one wire message; pickle the record when not literal-encodable."""
    mark = len(writer.buffer)
    try:
        _encode_message_body(writer, table, message)
    except _Unencodable:
        del writer.buffer[mark:]
        writer.u8(_KIND_PICKLE)
        writer.blob(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# Control events (drain flushes)
# ---------------------------------------------------------------------------

def _encode_event(
    writer: _Writer, table: _StringTable, event: SimulationEvent
) -> None:
    kind = _EVENT_KINDS.get(type(event))
    mark = len(writer.buffer)
    try:
        if kind is None:
            raise _Unencodable(f"unknown event {type(event).__name__}")
        writer.u8(kind)
        writer.f64(event.time)
        if isinstance(event, FactInjection):
            writer.u32(table.intern(event.address))
            writer.u8(1 if event.remember else 0)
            writer.u32(len(event.facts))
            for fact in event.facts:
                _encode_fact(writer, table, fact)
        elif isinstance(event, FactRetraction):
            writer.u32(table.intern(event.address))
            writer.u32(len(event.facts))
            for fact in event.facts:
                _encode_fact(writer, table, fact)
        elif isinstance(event, LinkDown):
            writer.u32(table.intern(event.source))
            writer.u32(table.intern(event.destination))
            writer.u8(1 if event.retract else 0)
        elif isinstance(event, LinkUp):
            writer.u32(table.intern(event.source))
            writer.u32(table.intern(event.destination))
            writer.u32(len(event.facts))
            for fact in event.facts:
                _encode_fact(writer, table, fact)
        elif isinstance(event, NodeCrash):
            writer.u32(table.intern(event.address))
            writer.u8(1 if event.clear_state else 0)
        elif isinstance(event, NodeRecover):
            writer.u32(table.intern(event.address))
            writer.u8(1 if event.reinject else 0)
        elif isinstance(event, SoftStateRefresh):
            pass
        elif isinstance(event, RefreshHorizon):
            writer.f64(event.horizon)
        elif isinstance(event, RefreshTimerFire):
            writer.u32(table.intern(event.address))
        elif isinstance(event, MessageDelivery):
            _encode_message(writer, table, event.message)
        elif isinstance(event, QueryArrival):
            writer.u32(table.intern(event.address))
            writer.u32(table.intern(event.relation))
            writer.u32(table.intern(event.mode))
            writer.u64(event.draw)
            writer.u32(event.pool)
            writer.u8(1 if event.condensed else 0)
            # client is -1 for open-loop arrivals; shifted by one to stay
            # in unsigned range.
            writer.u64(event.client + 1)
            writer.u64(event.arrival_id)
            writer.f64(event.deadline)
            writer.f64(event.think)
        else:  # QueryTimeout
            writer.u64(event.query_id)
            writer.u64(event.request_id)
    except _Unencodable:
        del writer.buffer[mark:]
        writer.u8(_KIND_PICKLE)
        writer.blob(pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL))


def _decode_event(reader: _Reader, strings: List[str]) -> SimulationEvent:
    kind = reader.u8()
    if kind == _KIND_PICKLE:
        return pickle.loads(reader.blob())
    time = reader.f64()
    if kind == 1:
        address = strings[reader.u32()]
        remember = bool(reader.u8())
        facts = tuple(_decode_fact(reader, strings) for _ in range(reader.u32()))
        return FactInjection(time=time, address=address, facts=facts, remember=remember)
    if kind == 2:
        address = strings[reader.u32()]
        facts = tuple(_decode_fact(reader, strings) for _ in range(reader.u32()))
        return FactRetraction(time=time, address=address, facts=facts)
    if kind == 3:
        source = strings[reader.u32()]
        destination = strings[reader.u32()]
        return LinkDown(
            time=time, source=source, destination=destination, retract=bool(reader.u8())
        )
    if kind == 4:
        source = strings[reader.u32()]
        destination = strings[reader.u32()]
        facts = tuple(_decode_fact(reader, strings) for _ in range(reader.u32()))
        return LinkUp(time=time, source=source, destination=destination, facts=facts)
    if kind == 5:
        return NodeCrash(time=time, address=strings[reader.u32()], clear_state=bool(reader.u8()))
    if kind == 6:
        return NodeRecover(time=time, address=strings[reader.u32()], reinject=bool(reader.u8()))
    if kind == 7:
        return SoftStateRefresh(time=time)
    if kind == 8:
        return MessageDelivery(time=time, message=_decode_message_body(reader, strings))
    if kind == 9:
        return QueryTimeout(time=time, query_id=reader.u64(), request_id=reader.u64())
    if kind == 10:
        address = strings[reader.u32()]
        relation = strings[reader.u32()]
        mode = strings[reader.u32()]
        return QueryArrival(
            time=time,
            address=address,
            relation=relation,
            mode=mode,
            draw=reader.u64(),
            pool=reader.u32(),
            condensed=bool(reader.u8()),
            client=reader.u64() - 1,
            arrival_id=reader.u64(),
            deadline=reader.f64(),
            think=reader.f64(),
        )
    if kind == 11:
        return RefreshHorizon(time=time, horizon=reader.f64())
    if kind == 12:
        return RefreshTimerFire(time=time, address=strings[reader.u32()])
    raise ValueError(f"unknown event kind {kind} in coordination frame")


# ---------------------------------------------------------------------------
# Codec surface
# ---------------------------------------------------------------------------

def _seal_frame(table: _StringTable, body: _Writer) -> bytes:
    """Assemble a frame and deflate it when that actually saves bytes.

    The leading byte says which shape follows: ``0`` raw, ``1`` zlib.
    """
    frame = table.emit() + bytes(body.buffer)
    if len(frame) >= COMPRESS_MIN_BYTES:
        packed = zlib.compress(frame, 6)
        if len(packed) < len(frame):
            return b"\x01" + packed
    return b"\x00" + frame


def _open_frame(data: bytes) -> _Reader:
    payload = bytes(data[1:])
    if data[0:1] == b"\x01":
        payload = zlib.decompress(payload)
    return _Reader(payload)


class BinaryCodec:
    """The compact, deterministic coordination frame codec."""

    def encode_exports(self, exports) -> bytes:
        body = _Writer()
        table = _StringTable()
        body.u32(len(exports))
        for deliver_at, message in exports:
            body.f64(deliver_at)
            _encode_message(body, table, message)
        return _seal_frame(table, body)

    def decode_exports(self, data: bytes) -> List[Tuple[float, object]]:
        reader = _open_frame(data)
        strings = _StringTable.parse(reader)
        exports = []
        for _ in range(reader.u32()):
            deliver_at = reader.f64()
            exports.append((deliver_at, _decode_message_body(reader, strings)))
        return exports

    def encode_events(self, batch) -> bytes:
        body = _Writer()
        table = _StringTable()
        body.u32(len(batch))
        for event, stamp, owned in batch:
            body.u64(stamp)
            body.u8(1 if owned else 0)
            _encode_event(body, table, event)
        return _seal_frame(table, body)

    def decode_events(self, data: bytes) -> List[Tuple[SimulationEvent, int, bool]]:
        reader = _open_frame(data)
        strings = _StringTable.parse(reader)
        batch = []
        for _ in range(reader.u32()):
            stamp = reader.u64()
            owned = bool(reader.u8())
            batch.append((_decode_event(reader, strings), stamp, owned))
        return batch
