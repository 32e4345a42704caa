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
    construction (``with_metadata`` copies; the lazily rendered payload cache
    is the only mutable slot), and identity/hashing depend only on the
    immutable relation/values pair.  The class is deliberately not a
    frozen dataclass — frozen ``__init__`` goes through ``object.__setattr__``
    per field, and fact construction is one of the hottest allocation sites
    in the evaluator.  It *is* slotted: carrying the payload cache as an
    explicit slot instead of a dynamic ``__dict__`` entry removes a dict
    allocation per fact on that same hot path.

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
        unauthenticated NDlog tuples.
    signature:
        The :class:`~repro.security.authenticator.SignedEnvelope` of a tuple
        exported under signed ``says``, or ``None``.  In flight it holds the
        sender's export sequence number only: the tuple's wire message
        carries one signature over the Merkle root of its tuples' leaves
        (payload, asserting principal, destination, that number,
        ``provenance`` and ``support``).  The receiver stores the admitted
        tuple with that signature and the tuple's path to the root, so it
        verifies alone.
    provenance:
        Serializable provenance annotation travelling with the fact (used for
        local / condensed provenance); ``None`` when provenance is disabled
        or maintained only as distributed pointers.  When
        ``annotation_mask`` is set, the mask travels in its place.
    origin:
        Address of the node where the fact was first created or derived.
    support:
        Base-support polynomial (a :class:`~repro.provenance.polynomial.
        ProvenanceExpression` over rendered *base tuple keys*) travelling
        with exported facts when one-fixpoint deletions are enabled; the
        receiver merges it into its own support index so a later
        anti-delta naming a retracted base tuple can decide survival
        locally.  ``None`` when rederivation is off.
    annotation_mask:
        The wire form of an exported ``provenance`` its own values name
        (:func:`~repro.provenance.polynomial.position_mask`): bit ``i`` set
        when the ``i``-th flattened value is one of its variables.  The
        receiver rebuilds the annotation from the mask and the payload and
        never reads the sender's ``provenance``.  ``None`` when the
        annotation travels explicitly, and on every stored tuple.
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
    annotation_mask: Optional[int] = None
    #: Lazily rendered canonical payload; equal facts may share the same
    #: bytes object (the table hands a stored duplicate's rendering to
    #: refreshed copies so immediately deduplicated derivations never
    #: re-render).  Excluded from repr; identity never depends on it.
    _payload_cache: Optional[bytes] = field(default=None, repr=False)

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
        """Canonical byte serialization of the tuple identity.

        This is what gets signed by the asserting principal, and what the
        bandwidth model charges for.  The serialization depends only on the
        immutable relation/values pair, so it is computed once and cached
        (signing, verification and the bandwidth model all re-read it).
        """
        cached = self._payload_cache
        if cached is None:
            cached = self._payload_cache = render_payload(self.relation, self.values)
        return cached

    def payload_size(self) -> int:
        """Number of payload bytes (used by the bandwidth model)."""
        cached = self._payload_cache
        if cached is None:
            cached = self.payload()
        return len(cached)

    def with_metadata(
        self,
        *,
        timestamp: Optional[float] = None,
        ttl: Optional[float] = None,
        asserted_by: Optional[str] = None,
        signature: Optional[object] = None,
        provenance: Optional[object] = None,
        origin: Optional[str] = None,
        support: Optional[object] = None,
        annotation_mask: Optional[int] = None,
    ) -> "Fact":
        """Return a copy with selected metadata fields replaced.

        A new ``provenance`` drops the old one's ``annotation_mask`` unless
        a mask is given with it: the mask describes the annotation it
        replaces on the wire.
        """
        if provenance is None:
            provenance = self.provenance
            if annotation_mask is None:
                annotation_mask = self.annotation_mask
        # The payload depends only on relation/values, which never change
        # here, so the copy shares the cached serialization.
        return Fact(
            self.relation,
            self.values,
            self.timestamp if timestamp is None else timestamp,
            self.ttl if ttl is None else ttl,
            self.asserted_by if asserted_by is None else asserted_by,
            self.signature if signature is None else signature,
            provenance,
            self.origin if origin is None else origin,
            self.support if support is None else support,
            annotation_mask,
            self._payload_cache,
        )

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

    :meth:`Fact.payload` caches it per fact; the wire model sizes a bare
    :data:`FactKey` through it without building a fact.
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
