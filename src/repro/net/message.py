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
one-fixpoint deletions, its base-support polynomial's wire form.  An
annotation that is one monomial over ``str`` values of the tuple's own
payload travels as a position mask over the payload's ``n`` flattened
values, ``1 + ceil(n / 8)`` bytes (one marker byte, then the bits); any
other travels as its UTF-8 rendering (``<a*b+c>`` without the brackets).
A support travels as its support code
(:func:`~repro.provenance.polynomial.support_code`): per variable one byte
naming its relation, then per argument one byte for a ``str`` the payload
carries (its position) or a tag and the literal — about 5 bytes for a
``link('n1','n2',7.0)`` against its 19-byte rendering.  A support no code can
say travels as its rendering.

Provenance *queries* are network traffic too (the paper's central framing:
provenance is network state, queried over the network), so the in-network
query engine ships two further wire formats — :class:`QueryRequest` /
:class:`QueryResponse` — that pay the same per-message header and link
latency as data traffic, and are attributed to a separate ``query_bytes`` /
``query_messages`` category by the statistics.  A request carries the key
to expand:

    header + flags + key

A response names its request by id and ships only what its querier cannot
rebuild: the responder's walk over the key's local closure
(:class:`QueryClosure`), one flag byte per visited key plus each derived
key's pointers, and no key at all.  The querier knows the key it asked for,
and every later key is a local input named by an earlier record's
pointers, so it rebuilds them all by replaying the walk:

    header + flags + sum over records of (flag + pointers)
    + annotation + signature

where a pointer is its rule label, firing node, 8-byte timestamp and each
input's key, a separator byte and the input's origin node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, List, Optional, Set, Tuple

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

#: The flag byte of one closure record: the visited key is an input leaf,
#: was derived (its pointers follow), or cannot be vouched for here.
RECORD_BASE, RECORD_DERIVED, RECORD_MISSING = 0, 1, 2


def key_payload_bytes(key: FactKey) -> int:
    """Wire size of one serialized tuple key (same rendering as a fact payload)."""
    return len(render_payload(*key))


def _memo_field():
    """A lazily filled derived-state slot on the object that owns the key it
    was rendered from — never a table keyed by :data:`FactKey`: equal,
    hash-equal keys (``1`` / ``True`` / ``1.0``) render to different sizes.
    Outside equality, ``repr``, ``replace`` and pickles (frames included)."""
    return field(default=None, init=False, repr=False, compare=False)


def _reduce_without_memos(self):
    """``__reduce__`` of the query types: rebuilt from their compared init fields, no memo."""
    kept = [f.name for f in fields(self) if f.init and f.compare]
    return type(self), tuple(getattr(self, name) for name in kept)


def walk_closure(root: FactKey, node: str, visit) -> bool:
    """The preorder walk over *node*'s local closure of *root*.

    The responder walks it to record its closure and the querier walks it
    again to rebuild every key, so both visit the same keys in the same
    order: derivation before its inputs, each key once, following only the
    pointer inputs held at *node* (origin ``None`` or *node*).  The explicit
    stack with reversed pushes keeps preorder without recursion limits on
    long derivation chains.

    *visit(key)* returns the key's pointers (empty for a base or missing
    key), or ``None`` to stop the walk; returns whether the walk ran to the
    end.
    """
    seen: Set[FactKey] = set()
    stack: List[FactKey] = [root]
    push = stack.append
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        pointers = visit(key)
        if pointers is None:
            return False
        for pointer in reversed(pointers):
            for input_key, origin in reversed(pointer.inputs):
                if (origin or node) == node:
                    push(input_key)
    return True


@dataclass(frozen=True, slots=True)
class QueryClosureEntry:
    """One (key, node) expansion the querier merges into its log.

    The querier rebuilds it from a :class:`QueryClosure` (or its own store):
    ``is_base`` marks an input leaf, ``pointers`` carries the recorded rule
    firings (each input paired with the node holding its own provenance).
    Entries do not travel.  A cached closure rebuilds into the same
    immutable entries for every response, so remote frontier and replay
    nodes are built once per entry, not once per response.
    """

    key: FactKey
    node: str
    is_base: bool
    pointers: Tuple[ProvenancePointer, ...] = ()
    _replay: Optional[tuple] = _memo_field()
    _frontier: Optional[tuple] = _memo_field()

    __reduce__ = _reduce_without_memos

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


@dataclass(frozen=True, slots=True)
class QueryClosure:
    """A node's local closure of one key, as it travels: its walk's records.

    One record per key :func:`walk_closure` visited, in preorder: a
    ``RECORD_*`` flag byte in ``flags`` and, at the same position in
    ``pointers``, the key's pointers when it was derived (``()``
    otherwise).  No record names its key.  The querier knows the key it
    asked for, and every later key is a local input of an earlier record's
    pointers, so :meth:`walk` rebuilds them all.  A node's result cache
    keeps the closure, and the walk memo on it, for every response it
    serves.
    """

    flags: bytes = b""
    pointers: Tuple[Tuple[ProvenancePointer, ...], ...] = ()
    _size_bytes: Optional[int] = _memo_field()
    _walk: Optional[tuple] = _memo_field()

    __reduce__ = _reduce_without_memos

    def serialized_size(self) -> int:
        """One flag byte per record, plus each derived record's pointers:
        rule label, firing node, timestamp and every input with its
        origin."""
        total = self._size_bytes
        if total is None:
            total = len(self.flags)
            for pointers in self.pointers:
                for pointer in pointers:
                    total += len(pointer.rule_label.encode("utf-8"))
                    total += len(pointer.node.encode("utf-8"))
                    total += 8  # timestamp
                    for input_key, origin in pointer.inputs:
                        total += key_payload_bytes(input_key) + 1
                        if origin is not None:
                            total += len(str(origin).encode("utf-8"))
            object.__setattr__(self, "_size_bytes", total)
        return total

    def walk(self, root: FactKey, node: str):
        """Replay the walk from *root* at *node*: ``(entries, missing)``.

        ``None`` when the records do not fit the walk: too few, too many,
        an unknown flag, pointers on a base or missing record or none on a
        derived one.  The answer for the last ``(root, node)`` asked is
        memoised: a cached closure is asked for the key it was walked from,
        at the node that walked it.  Equal roots share the memo (the
        rebuilt root entry keeps the first root object; no size reads its
        rendering).
        """
        memo = self._walk
        if memo is not None and memo[0] == root and memo[1] == node:
            return None if memo[2] is None else memo[2:]
        flags, pointer_lists = self.flags, self.pointers
        records = zip(flags, pointer_lists)
        entries: List[QueryClosureEntry] = []
        missing: List[FactKey] = []

        def visit(key: FactKey):
            record = next(records, None)
            if record is None:
                return None
            flag, pointers = record
            if flag == RECORD_DERIVED and pointers:
                entries.append(QueryClosureEntry(key, node, False, pointers))
            elif pointers:
                return None
            elif flag == RECORD_BASE:
                entries.append(QueryClosureEntry(key, node, True))
            elif flag == RECORD_MISSING:
                missing.append(key)
            else:
                return None
            return pointers

        fits = (
            len(flags) == len(pointer_lists)
            and walk_closure(root, node, visit)
            and next(records, None) is None
        )
        if not fits:
            object.__setattr__(self, "_walk", (root, node, None, None))
            return None
        memo = (root, node, tuple(entries), tuple(missing))
        object.__setattr__(self, "_walk", memo)
        return memo[2:]


@dataclass(eq=False, slots=True)
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
    #: The rendered size of the key, passed in where the querier already
    #: knows it (from a closure entry's frontier) so the request does not
    #: render the key again.  Derived state like a memo: outside equality
    #: and ``repr``, and it never travels (the last init field, which
    #: ``__reduce__`` leaves out as it is not compared).
    key_bytes: Optional[int] = field(default=None, repr=False, compare=False)
    _size_bytes: Optional[int] = _memo_field()
    #: A request is neither signed nor annotated.
    security_bytes: ClassVar[int] = 0
    provenance_bytes: ClassVar[int] = 0

    __reduce__ = _reduce_without_memos

    def payload_bytes(self) -> int:
        """The serialized key: all a request carries besides header and flags."""
        known = self.key_bytes
        return key_payload_bytes(self.key) if known is None else known

    def size_bytes(self) -> int:
        size = self._size_bytes
        if size is None:
            size = self._size_bytes = (
                MESSAGE_HEADER_BYTES + self.payload_bytes() + QUERY_FLAG_BYTES
            )
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


@dataclass(eq=False, slots=True)
class QueryResponse:
    """The answer to one :class:`QueryRequest`, named by its ``request_id``.

    Carries the responding node's local closure of the requested key —
    every (key, node) expansion resolvable without leaving the node, and
    the keys it could not vouch for — as the records of its walk
    (:class:`QueryClosure`).  It carries no key the querier can rebuild:
    not the requested one, which the querier looks up by ``request_id``,
    and not those of the records.  Remote pointer inputs inside the records
    are what the querier dereferences next.  ``annotation_bytes`` and
    ``signature_bytes`` itemize the optional condensed annotation and the
    responder's signature (authenticated queries), both included in the
    wire size — and mirrored into ``provenance_bytes`` / ``security_bytes``
    so the per-mechanism bandwidth attribution covers the query plane too.
    """

    source: Address
    destination: Address
    query_id: int
    request_id: int
    closure: QueryClosure
    annotation: Optional[ProvenanceExpression] = None
    annotation_bytes: int = 0
    signature: Optional[bytes] = None
    sent_at: float = 0.0
    sequence: int = 0
    security_bytes: int = 0
    provenance_bytes: int = 0
    _size_bytes: Optional[int] = _memo_field()

    __reduce__ = _reduce_without_memos

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
            size = self._size_bytes = (
                MESSAGE_HEADER_BYTES
                + QUERY_FLAG_BYTES
                + self.closure.serialized_size()
                + self.annotation_bytes
                + self.signature_bytes()
            )
        return size

    @property
    def tuple_count(self) -> int:
        return 0

    def facts(self) -> Tuple[Fact, ...]:
        return ()

    def signed_payload(self, key: FactKey) -> bytes:
        """Canonical bytes the responding principal signs (authenticated mode).

        *key* is the requested key: the responder's, and at the querier the
        one it asked for.  The payload binds the answer's full substance as
        the walk from *key* rebuilds it — every key, every pointer's rule
        label, firing node, timestamp and origin-annotated inputs, the
        missing list, the shipped annotation and both endpoints — so a relay
        cannot rewrite who derived what from whom without breaking the
        signature.  Raises :class:`ValueError` when the records do not fit
        the walk (a querier refuses such a response before verifying it).
        """
        rebuilt = self.closure.walk(key, self.source)
        if rebuilt is None:
            raise ValueError("the closure records do not fit the walk")
        entries, missing = rebuilt

        def render_pointer(pointer) -> str:
            inputs = ",".join(
                f"{k[0]}{k[1]}@{origin or ''}" for k, origin in pointer.inputs
            )
            return (
                f"{pointer.rule_label}@{pointer.node}@{pointer.timestamp!r}"
                f"({inputs})"
            )

        rendered = ";".join(
            f"{e.key[0]}{e.key[1]}|{int(e.is_base)}|"
            + "+".join(render_pointer(p) for p in e.pointers)
            for e in entries
        )
        missing_keys = ";".join(f"{k[0]}{k[1]}" for k in missing)
        annotation = "" if self.annotation is None else str(self.annotation)
        return (
            f"{self.source}|{self.destination}|{self.query_id}|{self.request_id}|"
            f"{key[0]}{key[1]}|{rendered}|{missing_keys}|{annotation}"
        ).encode("utf-8")

    def __str__(self) -> str:
        return (
            f"{self.source} -> {self.destination}: query#{self.query_id} "
            f"{len(self.closure.flags)} records ({self.size_bytes()} bytes)"
        )


#: Wire messages belonging to the provenance query plane.
QueryMessage = (QueryRequest, QueryResponse)
