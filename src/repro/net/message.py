"""Wire messages and their size accounting.

One data wire format: a :class:`MessageBatch` carries the tuples one node
ships to one destination under a single ``MESSAGE_HEADER_BYTES`` of framing.
With batching on (the default, the way real P2 amortizes per-packet
overhead) a batch holds every tuple bound for that destination in one delta
round; the paper's per-tuple format ("generating a signature for each
tuple") is the same message holding one tuple.

Under signed ``says`` each wire message carries one signature, over the
Merkle root of its tuples (:mod:`repro.security.authenticator`), so a batch
of one keeps the paper's per-tuple signature.  Each tuple's principal and
export sequence number and its provenance annotation bytes stay itemized, so
the bandwidth metric of Figure 4 keeps attributing overhead to each
mechanism:

    header + signature + sum over tuples of (payload + principal and
    sequence + provenance)

A tuple's provenance bytes are its annotation's wire form plus, under
one-fixpoint deletions, its base-support polynomial's rendering.  An
annotation that is one monomial over ``str`` values of the tuple's own
payload travels as a position mask over the payload's ``n`` flattened
values, ``1 + ceil(n / 8)`` bytes (one marker byte, then the bits); any
other travels as its UTF-8 rendering (``<a*b+c>`` without the brackets).

Provenance *queries* are network traffic too (the paper's central framing:
provenance is network state, queried over the network), so the in-network
query engine ships two further wire formats — :class:`QueryRequest` /
:class:`QueryResponse` — that pay the same per-message header, serialized
payload bytes and link latency as data traffic, and are attributed to a
separate ``query_bytes`` / ``query_messages`` category by the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

from repro.engine.node_engine import OutgoingFact
from repro.engine.tuples import Fact, FactKey, render_payload
from repro.net.address import Address
from repro.provenance.log import ProvenancePointer
from repro.provenance.graph import DerivationNode
from repro.provenance.polynomial import ProvenanceExpression

#: Fixed per-message framing overhead: UDP/IP headers plus P2's verbose tuple
#: framing (relation name, per-field type tags, location specifier).
MESSAGE_HEADER_BYTES = 80


@dataclass(eq=False)
class MessageBatch:
    """The data wire message: tuples one node ships to one destination.

    ``items`` are the engine's :class:`~repro.engine.node_engine.OutgoingFact`
    records, in the order the sender derived them: every tuple bound for
    ``destination`` in one delta round when batching, a single tuple in the
    paper's per-tuple format.  The message pays ``MESSAGE_HEADER_BYTES``
    once and, under signed ``says``, its one ``signature`` once (over the
    Merkle root of its tuples): both are part of ``security_bytes`` and the
    wire size.  Each item still carries its own principal, sequence number
    and provenance annotation bytes, so per-mechanism bandwidth attribution
    is the same whichever way the tuples are grouped — only the per-message
    framing and signatures differ.

    ``sequence`` is assigned by the sending kernel from its own per-run
    counter, one per wire message, so identical runs number their messages
    identically and event ordering and tie-breaking stay deterministic.

    The byte totals are computed eagerly at construction: every batch is
    immediately measured for stats and transmission delay, and the itemized
    components never change.
    """

    source: Address
    destination: Address
    items: Tuple[OutgoingFact, ...]
    sent_at: float = 0.0
    sequence: int = 0
    signature: Optional[bytes] = None
    security_bytes: int = field(init=False)
    provenance_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        security = len(self.signature) if self.signature is not None else 0
        provenance = payload = 0
        for item in self.items:
            security += item.security_bytes
            provenance += item.provenance_bytes
            payload += item.fact.payload_size()
        self.security_bytes = security
        self.provenance_bytes = provenance
        self._payload_bytes = payload
        self._size_bytes = MESSAGE_HEADER_BYTES + payload + security + provenance

    def payload_bytes(self) -> int:
        return self._payload_bytes

    def size_bytes(self) -> int:
        """Total wire size of the batch (header charged once)."""
        return self._size_bytes

    @property
    def tuple_count(self) -> int:
        return len(self.items)

    def facts(self) -> Tuple[Fact, ...]:
        """The carried tuples in delivery (FIFO) order."""
        return tuple(item.fact for item in self.items)

    def __str__(self) -> str:
        return (
            f"{self.source} -> {self.destination}: batch of {self.tuple_count} "
            f"({self.size_bytes()} bytes)"
        )


@dataclass(eq=False)
class AntiDelta:
    """Base tuples retracted upstream of ``source`` (a deletion anti-delta).

    When a retraction pass at ``source`` kills a base tuple that appears in
    the support polynomial of something it had exported to ``destination``,
    the receiver must be told *now* rather than waiting out soft-state TTL
    decay.  An anti-delta carries only the dead *base-tuple keys* (same
    serialized rendering as a fact payload, no metadata): the receiver
    prunes every monomial mentioning a dead base from its own support
    polynomials, retracts tuples whose polynomial went to zero, keeps the
    survivors (a surviving alternative derivation exists — that is a
    ``rederivation``), and ships anti-deltas of its own toward *its*
    export destinations — one distributed deletion fixpoint.

    Anti-deltas ride the same links, pay the same header and per-key
    payload bytes, and are itemized as ``anti_delta_messages`` /
    ``anti_delta_bytes`` in the statistics.  ``tuple_count`` is zero: no
    stored tuples travel, only their identities.

    Under signed ``says`` an anti-delta is authenticated like a tuple:
    ``signature`` is the source's over *(keys, source, destination,
    sequence)* and ``security_bytes`` is part of its wire size.
    """

    source: Address
    destination: Address
    keys: Tuple[FactKey, ...]
    sent_at: float = 0.0
    sequence: int = 0
    security_bytes: int = 0
    signature: Optional[bytes] = None
    _size_bytes: int = field(init=False, repr=False)
    #: Only keys travel: an anti-delta carries no provenance annotation.
    provenance_bytes: ClassVar[int] = 0

    def __post_init__(self) -> None:
        self._size_bytes = (
            MESSAGE_HEADER_BYTES
            + sum(key_payload_bytes(key) for key in self.keys)
            + self.security_bytes
        )

    def payload_bytes(self) -> int:
        return self._size_bytes - MESSAGE_HEADER_BYTES - self.security_bytes

    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def tuple_count(self) -> int:
        return 0

    def facts(self) -> Tuple[Fact, ...]:
        return ()

    def __str__(self) -> str:
        return (
            f"{self.source} -> {self.destination}: anti-delta of "
            f"{len(self.keys)} keys ({self.size_bytes()} bytes)"
        )


# ---------------------------------------------------------------------------
# Provenance query traffic
# ---------------------------------------------------------------------------

#: Per-message flag bytes for query traffic (mode, condensed, authenticated).
QUERY_FLAG_BYTES = 2


def key_payload_bytes(key: FactKey) -> int:
    """Wire size of one serialized tuple key (same rendering as a fact payload)."""
    return len(render_payload(*key))


def _memo_field():
    """A lazily filled derived-state slot on the object that owns the key it
    was rendered from — never a table keyed by :data:`FactKey`: equal,
    hash-equal keys (``1`` / ``True`` / ``1.0``) render to different sizes.
    Outside equality, ``repr``, ``replace``, codec frames and pickles."""
    return field(default=None, init=False, repr=False, compare=False)


def _key_size_field():
    """The rendered size of the message's key, passed in where it is already
    known (a closure entry's frontier, the request a response answers) so
    the message does not render the key again.  Derived state
    like a memo: outside equality and ``repr``, and it never travels."""
    return field(default=None, repr=False, compare=False)


def _without_memos(self) -> dict:
    """``__getstate__`` of the memo-carrying objects: memos never travel."""
    memos = ("_size_bytes", "_replay", "_frontier", "key_bytes")
    return {k: v for k, v in self.__dict__.items() if k not in memos}


@dataclass(frozen=True)
class QueryClosureEntry:
    """One (key, node) expansion inside a :class:`QueryResponse`.

    The responding node resolved *key* against its provenance store:
    ``is_base`` marks an input leaf, ``pointers`` carries the recorded rule
    firings (each input paired with the node holding its own provenance).
    A cached closure hands the same immutable entries to every response, so
    size, remote frontier and replay nodes are built once per entry, not
    once per response.
    """

    key: FactKey
    node: str
    is_base: bool
    pointers: Tuple[ProvenancePointer, ...] = ()
    _size_bytes: Optional[int] = _memo_field()
    _replay: Optional[tuple] = _memo_field()
    _frontier: Optional[tuple] = _memo_field()

    __getstate__ = _without_memos

    def serialized_size(self) -> int:
        total = self._size_bytes
        if total is None:
            total = key_payload_bytes(self.key) + 1  # key + base/derived flag
            for pointer in self.pointers:
                total += len(pointer.rule_label.encode("utf-8"))
                total += len(pointer.node.encode("utf-8"))
                total += 8  # timestamp
                for input_key, origin in pointer.inputs:
                    total += key_payload_bytes(input_key) + 1
                    if origin is not None:
                        total += len(str(origin).encode("utf-8"))
            object.__setattr__(self, "_size_bytes", total)
        return total

    def replay(self) -> tuple:
        """``(tuple node, one operator per pointer)``: frozen graph nodes
        every query graph replaying this entry may share."""
        plan = self._replay
        if plan is None:
            operators = tuple(pointer.operator() for pointer in self.pointers)
            plan = (DerivationNode(key=self.key, location=self.node), operators)
            object.__setattr__(self, "_replay", plan)
        return plan

    def frontier(self) -> tuple:
        """The pointer inputs held on other nodes, which a querier merging
        this entry dereferences: ``(pointer index, ((key, origin, key
        bytes), ...))`` for each pointer that has any, in pointer order."""
        frontier = self._frontier
        if frontier is None:
            node = self.node
            frontier = []
            for index, pointer in enumerate(self.pointers):
                remote = tuple(
                    (key, origin, key_payload_bytes(key))
                    for key, origin in pointer.inputs
                    if origin and origin != node
                )
                if remote:
                    frontier.append((index, remote))
            frontier = tuple(frontier)
            object.__setattr__(self, "_frontier", frontier)
        return frontier


@dataclass(eq=False)
class QueryRequest:
    """One remote pointer dereference in flight: "expand *key* for me".

    A traceback query issues one request per (key, node) pair it must
    dereference remotely; the request pays the standard message header plus
    the serialized key, travels over the same links (serialized, with
    latency) as data traffic, and is lost the same way when the link is down
    or the destination node has crashed.
    """

    source: Address
    destination: Address
    key: FactKey
    query_id: int
    request_id: int
    mode: str = "online"
    condensed: bool = False
    authenticated: bool = False
    sent_at: float = 0.0
    sequence: int = 0
    key_bytes: Optional[int] = _key_size_field()
    _size_bytes: Optional[int] = _memo_field()
    #: A request is neither signed nor annotated.
    security_bytes: ClassVar[int] = 0
    provenance_bytes: ClassVar[int] = 0

    __getstate__ = _without_memos

    def payload_bytes(self) -> int:
        """The serialized key: all a request carries besides header and flags."""
        return self.size_bytes() - MESSAGE_HEADER_BYTES - QUERY_FLAG_BYTES

    def size_bytes(self) -> int:
        size = self._size_bytes
        if size is None:
            key = self.key_bytes
            if key is None:
                key = key_payload_bytes(self.key)
            size = self._size_bytes = MESSAGE_HEADER_BYTES + key + QUERY_FLAG_BYTES
        return size

    @property
    def tuple_count(self) -> int:
        return 0

    def facts(self) -> Tuple[Fact, ...]:
        return ()

    def __str__(self) -> str:
        return (
            f"{self.source} -> {self.destination}: query#{self.query_id} "
            f"expand {self.key[0]}{self.key[1]} ({self.size_bytes()} bytes)"
        )


@dataclass(eq=False)
class QueryResponse:
    """The answer to one :class:`QueryRequest`.

    Carries the local closure of the requested key at the responding node —
    every (key, node) expansion resolvable without leaving the node — plus
    the keys the node could not vouch for.  Remote pointer inputs inside the
    entries are what the querier dereferences next.  ``annotation_bytes``
    and ``signature_bytes`` itemize the optional condensed annotation and
    the responder's signature (authenticated queries), both included in the
    wire size — and mirrored into ``provenance_bytes`` / ``security_bytes``
    so the per-mechanism bandwidth attribution covers the query plane too.
    """

    source: Address
    destination: Address
    query_id: int
    request_id: int
    key: FactKey
    entries: Tuple[QueryClosureEntry, ...] = ()
    missing: Tuple[FactKey, ...] = ()
    annotation: Optional[ProvenanceExpression] = None
    annotation_bytes: int = 0
    signature: Optional[bytes] = None
    sent_at: float = 0.0
    sequence: int = 0
    security_bytes: int = 0
    provenance_bytes: int = 0
    key_bytes: Optional[int] = _key_size_field()
    _size_bytes: Optional[int] = _memo_field()

    __getstate__ = _without_memos

    def __post_init__(self) -> None:
        # The security envelope and provenance annotation of a response are
        # attributed like their data-plane counterparts.
        self.security_bytes = self.signature_bytes()
        self.provenance_bytes = self.annotation_bytes

    def signature_bytes(self) -> int:
        return len(self.signature) if self.signature is not None else 0

    def payload_bytes(self) -> int:
        """The closure and flags: the wire size less the header and the
        itemized signature and annotation."""
        return (
            self.size_bytes()
            - MESSAGE_HEADER_BYTES
            - self.security_bytes
            - self.provenance_bytes
        )

    def size_bytes(self) -> int:
        size = self._size_bytes
        if size is None:
            payload = self.key_bytes
            if payload is None:
                payload = key_payload_bytes(self.key)
            for entry in self.entries:
                payload += entry.serialized_size()
            for key in self.missing:
                payload += key_payload_bytes(key)
            payload += self.annotation_bytes + self.signature_bytes()
            size = self._size_bytes = MESSAGE_HEADER_BYTES + payload + QUERY_FLAG_BYTES
        return size

    @property
    def tuple_count(self) -> int:
        return 0

    def facts(self) -> Tuple[Fact, ...]:
        return ()

    def signed_payload(self) -> bytes:
        """Canonical bytes the responding principal signs (authenticated mode).

        Binds the answer's full substance — every pointer's rule label,
        firing node, timestamp and origin-annotated inputs, the missing
        list, the shipped annotation and both endpoints — so a relay cannot
        rewrite who derived what from whom without breaking the signature.
        """
        def render_pointer(pointer) -> str:
            inputs = ",".join(
                f"{k[0]}{k[1]}@{origin or ''}" for k, origin in pointer.inputs
            )
            return (
                f"{pointer.rule_label}@{pointer.node}@{pointer.timestamp!r}"
                f"({inputs})"
            )

        entries = ";".join(
            f"{e.key[0]}{e.key[1]}|{int(e.is_base)}|"
            + "+".join(render_pointer(p) for p in e.pointers)
            for e in self.entries
        )
        missing = ";".join(f"{k[0]}{k[1]}" for k in self.missing)
        annotation = "" if self.annotation is None else str(self.annotation)
        return (
            f"{self.source}|{self.destination}|{self.query_id}|{self.request_id}|"
            f"{self.key[0]}{self.key[1]}|{entries}|{missing}|{annotation}"
        ).encode("utf-8")

    def __str__(self) -> str:
        return (
            f"{self.source} -> {self.destination}: query#{self.query_id} "
            f"{len(self.entries)} entries ({self.size_bytes()} bytes)"
        )


#: Wire messages belonging to the provenance query plane.
QueryMessage = (QueryRequest, QueryResponse)

#: Stable wire-format tags for the sharded backend's coordination frames
#: (:mod:`repro.net.transport`).  Appending new kinds is safe; renumbering
#: existing ones would silently corrupt mixed-version coordination, so the
#: mapping lives next to the message definitions it tags.  Kind 0 was the
#: retired one-tuple message (a batch of one now); it is not reused.
WIRE_KINDS = {
    MessageBatch: 1,
    QueryRequest: 2,
    QueryResponse: 3,
    AntiDelta: 4,
}
