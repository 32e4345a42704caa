"""Facts (tuples).

A :class:`Fact` is one tuple of a relation, extended with the stream / soft
state / security metadata the paper adds to classical Datalog tuples
(Section 4): a creation timestamp, a time-to-live, the asserting principal
("says"), an optional digital signature, and an optional provenance
annotation (the condensed provenance expression of Section 4.4).

Identity semantics: two facts are *the same tuple* when their relation and
values match; metadata (timestamps, signatures, provenance) does not
participate in equality.  This mirrors set semantics in the relational store
while still letting the provenance layer track every distinct derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


Value = object
FactKey = Tuple[str, Tuple[Value, ...]]


@dataclass(eq=False, slots=True)
class Fact:
    """One tuple of a relation plus its stream/security metadata.

    Facts are logically immutable: nothing in the engine mutates one after
    construction (the lazily filled payload size is the only mutable slot),
    and identity/hashing depend only on the immutable relation/values pair.
    A base insert, a rule firing and an admitted tuple each build one fact
    with every field.  The class is deliberately not a frozen dataclass —
    frozen ``__init__`` goes through ``object.__setattr__`` per field, and
    fact construction is one of the hottest allocation sites in the
    evaluator.  It *is* slotted: no per-fact ``__dict__``.

    No rendered payload is kept: :meth:`payload` renders the values the fact
    holds on every call, so a seal and its verification each cover the
    values they are handed, and a stored row carries no bytes.  Only the
    payload's length is memoised, in a slot outside ``__init__``: neither
    :func:`dataclasses.replace` nor another fact's constructor can copy it,
    so a fact built with changed values never reports the size of others.

    Attributes
    ----------
    relation:
        Relation name.
    values:
        Attribute values, in schema order.
    timestamp:
        Creation (or arrival) time in simulation seconds.
    ttl:
        Soft-state time-to-live in seconds; ``None`` means the fact never
        expires (hard state).
    asserted_by:
        The principal that asserted ("says") this fact, or ``None`` for
        unauthenticated NDlog tuples.  A tuple in flight carries none: the
        :class:`~repro.security.authenticator.Seal` of its wire message
        names the principal once, and the receiver attributes what it
        admits.
    signature:
        The :class:`~repro.security.authenticator.SignedEnvelope` of a tuple
        admitted under signed ``says``, or ``None`` (also in flight).  The
        tuple's wire message carries one seal: its principal, the number of
        its first tuple (tuple *i* is ``first + i``) and one signature over
        the Merkle root of its tuples' leaves (payload, asserting principal,
        destination, the tuple's number, ``provenance`` and ``support``).
        The receiver stores the admitted tuple with its number, that
        signature and the tuple's path to the root, so it verifies alone.
    provenance:
        Serializable provenance annotation travelling with the fact (used for
        local / condensed provenance); ``None`` when provenance is disabled
        or maintained only as distributed pointers.  On the wire it may
        travel as a position mask instead (the message item's ``mask``,
        :class:`~repro.engine.node_engine.OutgoingFact`).
    origin:
        Address of the node where the fact was first created or derived.
    support:
        Base-support polynomial (a :class:`~repro.provenance.polynomial.
        ProvenanceExpression` over rendered *base tuple keys*) travelling
        with exported facts when one-fixpoint deletions are enabled; the
        receiver merges it into its own support index so a later
        anti-delta naming a retracted base tuple can decide survival
        locally.  ``None`` when rederivation is off.  On the wire it may
        travel as a support code instead (the message item's ``code``).
    """

    relation: str
    values: Tuple[Value, ...]
    timestamp: float = 0.0
    ttl: Optional[float] = None
    asserted_by: Optional[str] = None
    signature: Optional[object] = None
    provenance: Optional[object] = None
    origin: Optional[str] = None
    support: Optional[object] = None
    #: Length of the rendered payload, filled on the first
    #: :meth:`payload_size`.  A memo: outside ``__init__`` (so ``replace``
    #: does not carry it to changed values), ``repr``, comparisons and
    #: pickles; identity never depends on it.
    _payload_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    # -- pickling -------------------------------------------------------------

    def __reduce__(self):
        """Pickle as the constructor call over the fields, memo left home.

        Shard frames and recalled kernels carry every stored and exported
        fact; the payload size is a memo the receiver refills on demand.
        """
        return (
            Fact,
            (
                self.relation,
                self.values,
                self.timestamp,
                self.ttl,
                self.asserted_by,
                self.signature,
                self.provenance,
                self.origin,
                self.support,
            ),
        )

    # -- identity ------------------------------------------------------------

    def key(self) -> FactKey:
        """The identity of the tuple: relation name plus values."""
        return (self.relation, self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.relation == other.relation and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.relation, self.values))

    # -- soft state -----------------------------------------------------------

    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or ``None`` for hard state."""
        if self.ttl is None:
            return None
        return self.timestamp + self.ttl

    def is_expired(self, now: float) -> bool:
        expiry = self.expires_at()
        return expiry is not None and now >= expiry

    # -- convenience ----------------------------------------------------------

    def payload(self) -> bytes:
        """Canonical byte serialization of the tuple identity, rendered now.

        This is what the asserting principal's seal covers and what its
        receiver verifies: each renders the values it holds.
        """
        return render_payload(self.relation, self.values)

    def payload_size(self) -> int:
        """Number of payload bytes (used by the bandwidth and cost models)."""
        size = self._payload_size
        if size is None:
            size = self._payload_size = len(render_payload(self.relation, self.values))
        return size

    def __str__(self) -> str:
        rendered = ", ".join(_render_value(v) for v in self.values)
        prefix = f"{self.asserted_by} says " if self.asserted_by else ""
        return f"{prefix}{self.relation}({rendered})"


def fact_key(relation: str, values: Sequence[Value]) -> FactKey:
    """Build a :data:`FactKey` without constructing a full :class:`Fact`."""
    return (relation, tuple(values))


def as_fact_key(value: "Fact | FactKey") -> FactKey:
    """Normalize a :class:`Fact` or (relation, values) pair to a :data:`FactKey`.

    Every user-facing entry point that accepts "a fact or its key" — the
    query plane, tracebacks, forensics — funnels through here so the
    accepted shapes cannot drift apart.
    """
    if isinstance(value, Fact):
        return value.key()
    return fact_key(*value)


def render_payload(relation: str, values: Sequence[Value]) -> bytes:
    """The canonical serialization of ``relation(values)`` — the one renderer.

    :meth:`Fact.payload` renders through it (:meth:`Fact.payload_size`
    memoises only the length); the wire model sizes a bare :data:`FactKey`
    through it without building a fact.
    """
    rendered = ",".join(
        [value if type(value) is str else _render_value(value) for value in values]
    )
    return f"{relation}({rendered})".encode("utf-8")


def _render_value(value: Value) -> str:
    # Exact types first — they are nearly all the traffic; the ``isinstance``
    # tests below only ever see subclasses and the odd ``bool`` / ``None``.
    kind = type(value)
    if kind is str:
        return value
    if kind is float:
        return str(int(value)) if value.is_integer() else str(value)
    if kind is int:
        return str(value)
    if kind is tuple or kind is list or isinstance(value, (tuple, list)):
        # Path values (tuples of node names) are the common sequence: one
        # C-level join, and only a sequence holding a non-string pays the
        # per-element rendering.
        try:
            return "[" + "|".join(value) + "]"
        except TypeError:
            return "[" + "|".join(map(_render_value, value)) + "]"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
