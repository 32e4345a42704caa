"""Wire messages and their size accounting.

One data wire format: a :class:`MessageBatch` carries the tuples one node
ships to one destination under a single ``MESSAGE_HEADER_BYTES`` of framing.
With batching on (the default, the way real P2 amortizes per-packet
overhead) a batch holds every tuple bound for that destination in one delta
round; the paper's per-tuple format ("generating a signature for each
tuple") is the same message holding one tuple.

Under signed ``says`` each wire message carries one envelope (a
:class:`~repro.security.authenticator.Seal`): the signer's principal, the
export sequence number of its first tuple — tuple *i* is number ``first +
i`` — and one signature, over the Merkle root of its tuples
(:mod:`repro.security.authenticator`), so a batch of one keeps the paper's
per-tuple format, principal and number included.  Each tuple's provenance
annotation bytes stay itemized, so the bandwidth metric of Figure 4 keeps
attributing overhead to each mechanism:

    header + (principal + sequence + signature) + sum over tuples of
    (payload + provenance)

A tuple's provenance bytes are its annotation's wire form plus, under
one-fixpoint deletions, its base-support polynomial's wire form.  The wire
forms ride the message item (:class:`~repro.engine.node_engine.OutgoingFact`
``mask`` and ``code``), not the tuple.  An annotation that is one monomial
over ``str`` values of the tuple's own payload travels as a position mask
over the payload's ``n`` flattened values, ``1 + ceil(n / 8)`` bytes (one
marker byte, then the bits); any other travels as its UTF-8 rendering
(``<a*b+c>`` without the brackets).  A support travels as its support code
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
key's pointer code, and no key at all.  The querier knows the key it asked
for, and every later key is a local input named by an earlier record's
pointers, so it rebuilds them all by replaying the walk:

    header + flags + sum over records of (flag + pointer code)
    + annotation + signature

A pointer code (:class:`PointerCodebook`) says a record's pointers against
the record's own key, which the querier holds when it decodes them: per
pointer its rule label's index in the program's sorted labels, its 8-byte
timestamp and its inputs in order, each its relation's index in the
catalog, then its origin and its arguments as a support code says them —
a position for a ``str`` the key carries and a tagged literal otherwise
(:func:`~repro.provenance.polynomial.write_arguments`).  The firing node
does not travel: it is the responder.  Best-Path's
``path(n0,n4,[n0|n1|n2|n3|n4],4)``, derived at ``n1`` from
``bestPath(n1,n4,[n1|n2|n3|n4],3)`` held there and
``path_p2_mid_1(n1,n0,1)`` held at ``n0``, codes its pointer in 29 bytes,
which took 70 as a rendered label, node, timestamp and inputs.
"""

from __future__ import annotations

import struct
from operator import is_
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.node_engine import OutgoingFact
from repro.engine.tuples import FactKey, render_payload
from repro.net.address import Address
from repro.provenance.log import ProvenancePointer
from repro.provenance.graph import DerivationNode
from repro.provenance.polynomial import (
    ProvenanceExpression,
    flat_values,
    payload_positions,
    put_varint,
    read_arguments,
    read_varint,
    write_arguments,
)
from repro.security.authenticator import Seal

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
    once and, under signed ``says``, its one ``seal`` once: the signer's
    principal, the export number of its first tuple and the signature over
    the Merkle root of its tuples (``security_bytes``, part of the wire
    size).  No tuple carries a principal or a number of its own: the
    receiver numbers tuple *i* ``seal.first + i``.  Each item still carries
    its own provenance annotation bytes, so per-mechanism bandwidth
    attribution survives grouping — only the per-message framing and
    envelopes differ — and the wire forms of its tuple's annotation and
    support (``mask``, ``code``), which the receiver rebuilds against the
    tuple's payload before it builds the tuple's Merkle leaf and stores the
    tuple once.

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
    seal: Optional[Seal] = None
    security_bytes: int = field(init=False)
    provenance_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        security = self.seal.wire_bytes() if self.seal is not None else 0
        provenance = payload = 0
        for item in self.items:
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


_F64 = struct.Struct("<d")


class PointerCodebook:
    """What a pointer code indexes: the program's rule labels, sorted, and
    its catalog's relations as sorted ``(name, arity)`` pairs (the order of
    :attr:`~repro.provenance.polynomial.BaseVariables.relations`).

    Every node runs the same program, so every kernel builds the same
    codebook and none travels.  A record's pointers code as::

        code    := varint(pointer count) pointer*
        pointer := varint(label index) f64(timestamp) varint(width) input*
        input   := varint(relation index) argument(origin) argument*

    with one input per pointer input and one argument per column of its
    relation, each said against the flattened values of the record's key
    (``argument`` is the support code's rule,
    :func:`~repro.provenance.polynomial.write_arguments`); an origin is
    ``None`` or a ``str``.  The firing node does not travel: the decoder
    sets it to the responder, and every store records its firings at the
    node it stores them.

    The closures one node serves share records, so the codebook keeps the
    last records it coded (:meth:`code`) and decoded (:meth:`entry`), up to
    :attr:`MEMO_RECORDS` each: a record shared by several closures is coded
    and decoded once per kernel.  A decoded record depends on nothing but
    its code, the querier's key and the responder, so queriers of one
    kernel may share it.
    """

    __slots__ = (
        "labels", "relations", "_label_index", "_relation_index", "_codes", "_entries"
    )

    #: Records each memo keeps; a full memo starts over.
    MEMO_RECORDS = 1 << 14

    #: The parts :meth:`decode` tallies a code's bytes into.
    PARTS = ("counts", "labels", "timestamps", "origins", "input codes")

    def __init__(
        self, labels: Iterable[str], relations: Iterable[Tuple[str, int]]
    ) -> None:
        self.labels: Tuple[str, ...] = tuple(sorted(set(labels)))
        self.relations: Tuple[Tuple[str, int], ...] = tuple(sorted(relations))
        self._label_index = {label: i for i, label in enumerate(self.labels)}
        self._relation_index = {pair: i for i, pair in enumerate(self.relations)}
        self._codes: Dict[FactKey, tuple] = {}
        self._entries: Dict[tuple, "QueryClosureEntry"] = {}

    @classmethod
    def of(cls, compiled) -> "PointerCodebook":
        """The codebook of a :class:`~repro.datalog.planner.CompiledProgram`."""
        from repro.datalog.catalog import Catalog

        catalog = Catalog.from_program(compiled.program)
        return cls(
            (plan.label for plan in compiled.plans),
            ((name, catalog.schema(name).arity) for name in catalog),
        )

    def code(
        self, key: FactKey, pointers: Tuple[ProvenancePointer, ...]
    ) -> Optional[bytes]:
        """:meth:`encode`, memoised per key while the key's pointers are the
        very objects it was coded from, as the live log hands them back.
        The code reads only the key's ``str`` values, which every equal key
        holds at the same positions."""
        codes = self._codes
        held = codes.get(key)
        if (
            held is not None
            and len(held[0]) == len(pointers)
            and all(map(is_, held[0], pointers))
        ):
            return held[1]
        code = self.encode(key, pointers)
        if len(codes) >= self.MEMO_RECORDS:
            codes.clear()
        codes[key] = (pointers, code)
        return code

    def entry(self, code: bytes, key: FactKey, node: str) -> Optional["QueryClosureEntry"]:
        """The derived entry *code* says of *key* at *node* (:meth:`decode`),
        or ``None``; memoised per ``(code, key, node)``, so closures that
        share a record share its entry, frontier and replay memos included.

        An equal key of another object (perhaps hash-equal: ``1`` /
        ``True``) gets an entry of its own, its pointers' output that very
        object: their inputs are the memoised ones, which read only the
        key's ``str`` values and so decode alike from every equal key."""
        memo = (code, key, node)
        entries = self._entries
        entry = entries.get(memo)
        if entry is None:
            pointers = self.decode(code, key, node)
            if not pointers:
                return None
            entry = QueryClosureEntry(key, node, False, pointers)
            if len(entries) >= self.MEMO_RECORDS:
                entries.clear()
            entries[memo] = entry
        elif entry.key is not key:
            entry = QueryClosureEntry(
                key,
                node,
                False,
                tuple(
                    ProvenancePointer(key, held.rule_label, node, held.inputs, held.timestamp)
                    for held in entry.pointers
                ),
            )
        return entry

    def encode(
        self, key: FactKey, pointers: Sequence[ProvenancePointer]
    ) -> Optional[bytes]:
        """The code of *key*'s *pointers*; ``None`` when one has none: a
        rule label or an input relation the codebook does not name, an
        origin that is not ``None`` or a ``str``, or an argument
        :func:`~repro.provenance.polynomial.write_arguments` cannot say."""
        positions = payload_positions(flat_values(key[1]))
        labels, relations = self._label_index, self._relation_index
        code = bytearray()
        put_varint(code, len(pointers))
        try:
            for pointer in pointers:
                label = labels.get(pointer.rule_label)
                if label is None:
                    return None
                put_varint(code, label)
                code += _F64.pack(pointer.timestamp)
                put_varint(code, len(pointer.inputs))
                for (relation, values), origin in pointer.inputs:
                    index = relations.get((relation, len(values)))
                    if index is None or (origin is not None and type(origin) is not str):
                        return None
                    put_varint(code, index)
                    if not write_arguments(code, (origin, *values), positions):
                        return None
        except (TypeError, struct.error):  # a timestamp or input of no usable shape
            return None
        return bytes(code)

    def decode(
        self,
        code: bytes,
        key: FactKey,
        node: str,
        tally: Optional[Dict[str, int]] = None,
    ) -> Optional[Tuple[ProvenancePointer, ...]]:
        """The pointers *code* says of *key*, fired at *node*.

        ``None`` when the code does not decode: truncated, followed by
        trailing bytes, an unknown label, relation or argument tag, a
        position past the key's values or on one that is not a ``str``, an
        origin that is not ``None`` or a ``str``.  A *tally* (one count per
        name in :attr:`PARTS`) is added each part's bytes.
        """
        flat = flat_values(key[1])
        labels, relations = self.labels, self.relations
        pointers = []
        try:
            count, at = read_varint(code, 0)
            if tally is not None:
                tally["counts"] += at
            for _ in range(count):
                start = at
                label, at = read_varint(code, at)
                (timestamp,) = _F64.unpack_from(code, at)
                if tally is not None:
                    tally["labels"] += at - start
                    tally["timestamps"] += 8
                    start = at + 8
                width, at = read_varint(code, at + 8)
                if tally is not None:
                    tally["counts"] += at - start
                inputs = []
                for _ in range(width):
                    start = at
                    index, at = read_varint(code, at)
                    relation, arity = relations[index]
                    arguments = at
                    values, at = read_arguments(code, at, flat, arity + 1)
                    origin = values[0]
                    if origin is not None and type(origin) is not str:
                        return None
                    if tally is not None:
                        origins = read_arguments(code, arguments, flat, 1)[1] - arguments
                        tally["origins"] += origins
                        tally["input codes"] += at - start - origins
                    inputs.append(((relation, values[1:]), origin))
                pointers.append(
                    ProvenancePointer(key, labels[label], node, tuple(inputs), timestamp)
                )
        except (IndexError, ValueError, struct.error, RecursionError):
            return None
        if at != len(code):
            return None
        return tuple(pointers)


@dataclass(frozen=True, slots=True)
class QueryClosureEntry:
    """One (key, node) expansion the querier merges into its log.

    The querier rebuilds it from a :class:`QueryClosure` (or its own store):
    ``is_base`` marks an input leaf, ``pointers`` carries the recorded rule
    firings (each input paired with the node holding its own provenance),
    decoded from the record's code.  Entries do not travel.  A cached
    closure rebuilds into the same immutable entries for every response,
    so remote frontier and replay nodes are built once per entry, not once
    per response.
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
        this entry dereferences, as positions into the entry's own
        pointers: one flat ``(pointer index, input position, key bytes)``
        triple per remote input, in pointer and input order.  Small ints
        only, so the memo holds no key and a request still takes its key's
        size from it."""
        frontier = self._frontier
        if frontier is None:
            node = self.node
            remote: List[int] = []
            for index, pointer in enumerate(self.pointers):
                for position, (key, origin) in enumerate(pointer.inputs):
                    if origin and origin != node:
                        remote += (index, position, key_payload_bytes(key))
            frontier = tuple(remote)
            object.__setattr__(self, "_frontier", frontier)
        return frontier


@dataclass(frozen=True, slots=True)
class QueryClosure:
    """A node's local closure of one key, as it travels: its walk's records.

    One record per key :func:`walk_closure` visited, in preorder: a
    ``RECORD_*`` flag byte in ``flags`` and, at the same position in
    ``codes``, the key's pointers as one :class:`PointerCodebook` code when
    it was derived (``b""`` otherwise).  No record names its key, and no
    code names the firing node or spells a ``str`` the record's key
    carries.  The querier knows the key it asked for, and every later key
    is a local input of an earlier record's pointers, so :meth:`walk`
    decodes each record against the key it rebuilt for it.  A responder
    codes its cached local closure once (:meth:`LocalClosure.coded`) and
    ships that one object in every response it serves from the cache, so
    the walk memo on it walks once too; a record several closures share is
    coded and decoded once (:meth:`PointerCodebook.code`,
    :meth:`PointerCodebook.entry`).
    """

    flags: bytes = b""
    codes: Tuple[bytes, ...] = ()
    _size_bytes: Optional[int] = _memo_field()
    _walk: Optional[tuple] = _memo_field()

    __reduce__ = _reduce_without_memos

    def serialized_size(self) -> int:
        """One flag byte per record, plus each derived record's code."""
        size = self._size_bytes
        if size is None:
            size = len(self.flags) + sum(map(len, self.codes))
            object.__setattr__(self, "_size_bytes", size)
        return size

    def walk(self, root: FactKey, node: str, codebook: PointerCodebook):
        """Replay the walk from *root* at *node*: ``(entries, missing)``.

        Each derived record's code is decoded against the key the walk
        rebuilt for it, into the pointers its entry carries
        (:meth:`PointerCodebook.entry`).  ``None`` when the records do not
        fit the walk: too few, too many, an unknown flag, a code on a base
        or missing record, none on a derived one, or a code that does not
        decode (:meth:`PointerCodebook.decode`).  The answer for the last
        ``(root, node)`` asked is memoised: a cached closure is asked for
        the key it was walked from, at the node that walked it, so it walks
        once.  Equal roots share the memo (the rebuilt root entry keeps the
        first root object; no size reads its rendering).
        """
        memo = self._walk
        if memo is not None and memo[0] == root and memo[1] == node:
            return None if memo[2] is None else memo[2:]
        flags, codes = self.flags, self.codes
        records = zip(flags, codes)
        decode = codebook.entry
        entries: List[QueryClosureEntry] = []
        missing: List[FactKey] = []

        def visit(key: FactKey):
            record = next(records, None)
            if record is None:
                return None
            flag, code = record
            if flag == RECORD_DERIVED and code:
                entry = decode(code, key, node)
                if entry is None:
                    return None
                entries.append(entry)
                return entry.pointers
            if code:
                return None
            if flag == RECORD_BASE:
                entries.append(QueryClosureEntry(key, node, True))
            elif flag == RECORD_MISSING:
                missing.append(key)
            else:
                return None
            return ()

        fits = (
            len(flags) == len(codes)
            and walk_closure(root, node, visit)
            and next(records, None) is None
        )
        if not fits:
            object.__setattr__(self, "_walk", (root, node, None, None))
            return None
        memo = (root, node, tuple(entries), tuple(missing))
        object.__setattr__(self, "_walk", memo)
        return memo[2:]


@dataclass(frozen=True, slots=True)
class LocalClosure:
    """A node's local closure of one key as its own store answered it.

    The walk at ``node``'s records in preorder: a ``RECORD_*`` flag per
    visited key in ``flags``, the key at the same position in ``keys`` and,
    in ``pointers``, the store's own pointers when it was derived (``()``
    otherwise).  It never travels: the node's result cache keeps it, the
    asker merges its entries in place (:meth:`expansion`), and a response
    ships it coded (:meth:`coded`).
    """

    node: str
    flags: bytes
    keys: Tuple[FactKey, ...]
    pointers: Tuple[Tuple[ProvenancePointer, ...], ...]
    _expansion: Optional[tuple] = _memo_field()
    _coded: Optional[QueryClosure] = _memo_field()

    __reduce__ = _reduce_without_memos

    def expansion(self) -> tuple:
        """``(entries, missing)``: the base and derived keys as entries with
        the store's pointers, and the keys the node cannot vouch for.
        Memoised, so a cached closure builds its entries once."""
        expansion = self._expansion
        if expansion is None:
            entries: List[QueryClosureEntry] = []
            missing: List[FactKey] = []
            node = self.node
            for flag, key, pointers in zip(self.flags, self.keys, self.pointers):
                if flag == RECORD_MISSING:
                    missing.append(key)
                else:
                    entries.append(
                        QueryClosureEntry(key, node, flag == RECORD_BASE, pointers)
                    )
            expansion = (tuple(entries), tuple(missing))
            object.__setattr__(self, "_expansion", expansion)
        return expansion

    def coded(self, codebook: PointerCodebook) -> QueryClosure:
        """The closure as it travels: the same records, each derived key's
        pointers coded against the key (:meth:`PointerCodebook.code`).
        A closure holding a pointer no code can say vouches for nothing: it
        ships as one missing record.  Memoised, so a cached closure codes
        once, when it first ships."""
        coded = self._coded
        if coded is None:
            codes: List[bytes] = []
            for flag, key, pointers in zip(self.flags, self.keys, self.pointers):
                code = b""
                if flag == RECORD_DERIVED:
                    code = codebook.code(key, pointers)
                    if code is None:
                        coded = QueryClosure(bytes((RECORD_MISSING,)), (b"",))
                        break
                codes.append(code)
            else:
                coded = QueryClosure(self.flags, tuple(codes))
            object.__setattr__(self, "_coded", coded)
        return coded


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

    def signed_payload(self, key: FactKey) -> bytes:
        """Canonical bytes the responding principal signs (authenticated mode).

        *key* is the requested key: the responder's, and at the querier the
        one it asked for.  The payload binds both endpoints, the ids, *key*,
        the records as they travel (flags and each code, length-prefixed)
        and the shipped annotation.  The key and the records fix everything
        the querier's walk rebuilds — every key, every pointer's rule label,
        timestamp and origin-annotated inputs, the missing keys — so a relay
        cannot rewrite who derived what from whom without breaking the
        signature.
        """
        closure = self.closure
        records = bytearray(len(closure.flags).to_bytes(4, "little"))
        records += closure.flags
        for code in closure.codes:
            records += len(code).to_bytes(4, "little")
            records += code
        annotation = "" if self.annotation is None else str(self.annotation)
        return b"|".join(
            (
                f"{self.source}|{self.destination}|{self.query_id}|"
                f"{self.request_id}|{key[0]}{key[1]}".encode("utf-8"),
                bytes(records),
                annotation.encode("utf-8"),
            )
        )

    def __str__(self) -> str:
        return (
            f"{self.source} -> {self.destination}: query#{self.query_id} "
            f"{len(self.closure.flags)} records ({self.size_bytes()} bytes)"
        )


#: Wire messages belonging to the provenance query plane.
QueryMessage = (QueryRequest, QueryResponse)
