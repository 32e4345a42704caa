"""Tuple signing and verification pipeline.

The :class:`Authenticator` is the one door through which a node engine
exports a derived tuple to another principal and imports one from the
network.  It implements the three ``says`` modes of
:class:`~repro.security.says.SaysMode`; it keeps no counters of its own —
the engine counts each outcome on its ``ProcessingReport`` and the kernel
folds those into the run's ``NodeStats``.

Under ``SIGNED`` an exported tuple carries one :class:`SignedEnvelope`: the
sender signs, once, canonical bytes of everything the receiver will act on —
payload, asserting principal, destination, condensed annotation, base-support
polynomial, the sender's export sequence number — and the receiver rebuilds
those bytes from what arrived and verifies once.  Nothing that travels is
outside the signature, so an annotation cannot be spliced onto another tuple,
a tuple signed for one node is refused at another, and a replayed tuple is
refused as stale.  Anti-deltas are sealed and opened the same way over
*(keys, source, destination, message sequence)*.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Set

from repro.engine.tuples import Fact, FactKey
from repro.security.keystore import KeyStore
from repro.security.rsa import sign, verify
from repro.security.says import SaysMode


class AuthenticationError(Exception):
    """Raised when an imported tuple or anti-delta fails authentication."""


class SignedEnvelope(NamedTuple):
    """What a signed export carries in ``Fact.signature``: the sender's export
    sequence number (strictly increasing per principal, across destinations
    and crashes) and its RSA signature over :func:`sealed_bytes` of the
    shipped tuple."""

    sequence: int
    signature: bytes


def sealed_bytes(payload: bytes, *fields: object) -> bytes:
    """The canonical bytes one signature covers: *payload*, then the string
    form of each field, every one preceded by its length — so the encoding
    is injective, however the fields themselves use separators.

    A tuple is sealed as ``(payload; principal, destination, sequence,
    annotation, support)``, the last two by their cached rendering
    (``<a*b>``) or ``None``, which no rendering equals; an anti-delta under
    the payload ``b"anti-delta"``, which no tuple payload equals.
    """
    rendered = "".join([f"{len(text)}:{text}" for text in map(str, fields)])
    return b"%d:%b%b" % (len(payload), payload, rendered.encode("utf-8"))


def _tuple_bytes(fact: Fact, principal: str, destination: str, sequence: int) -> bytes:
    return sealed_bytes(
        fact.payload(), principal, destination, sequence, fact.provenance, fact.support
    )


def _anti_delta_bytes(keys, source: str, destination: str, sequence: int) -> bytes:
    return sealed_bytes(b"anti-delta", source, destination, sequence, *map(repr, keys))


class Authenticator:
    """Per-node implementation of ``says`` export / import."""

    def __init__(self, principal: str, keystore: KeyStore, mode: SaysMode) -> None:
        self.principal = principal
        self.keystore = keystore
        self.mode = mode
        if mode.requires_signature and not keystore.has_private_key(principal):
            keystore.create_keypair(principal)
        #: Export sequence number of the last tuple this principal signed.  It
        #: and the freshness marks below live here, beside the key, not in the
        #: state a crash wipes (``NodeEngine.reset_state``): a counter that
        #: restarted would make every post-recovery export look stale.
        self._exported = 0
        #: Per asserting principal: the highest export sequence accepted.
        #: Tuples cross one link in export order, so anything at or below
        #: the mark is a replay.
        self._high_water: Dict[str, int] = {}
        #: Per source: message sequences of the anti-deltas accepted.  A set,
        #: not a mark — anti-deltas are routed around failed links and may
        #: overtake each other.
        self._anti_deltas_seen: Dict[str, Set[int]] = {}

    # -- export ---------------------------------------------------------------

    def export_fact(self, fact: Fact, destination: str) -> Fact:
        """Attribute (and under SIGNED mode, seal) *fact* for *destination*.

        Returns the copy of the fact that travels: it carries the
        ``asserted_by`` attribution and, in signed mode, the
        :class:`SignedEnvelope` covering the tuple, both endpoints and the
        ``provenance`` and ``support`` riding on it.
        """
        if self.mode is SaysMode.NONE:
            return fact
        envelope = None
        if self.mode is SaysMode.SIGNED:
            self._exported = sequence = self._exported + 1
            sealed = _tuple_bytes(fact, self.principal, destination, sequence)
            envelope = SignedEnvelope(sequence, self._seal(sealed))
        return fact.with_metadata(asserted_by=self.principal, signature=envelope)

    def seal_anti_delta(
        self, keys: Sequence[FactKey], destination: str, sequence: int
    ) -> bytes:
        """Sign an anti-delta this principal ships as message *sequence*."""
        return self._seal(_anti_delta_bytes(keys, self.principal, destination, sequence))

    def _seal(self, message: bytes) -> bytes:
        return sign(message, self.keystore.private_key(self.principal))

    # -- import ---------------------------------------------------------------

    def import_fact(self, fact: Fact) -> Fact:
        """Verify an incoming fact according to the configured mode.

        Raises :class:`AuthenticationError` when the attribution is missing,
        the envelope does not verify over what arrived *at this principal*,
        or its sequence number is not newer than the last one accepted from
        the sender.  Under ``NONE`` the fact passes through untouched.
        """
        if self.mode is SaysMode.NONE:
            return fact
        principal = fact.asserted_by
        if principal is None:
            raise self._failure(f"imported tuple {fact} has no asserting principal")
        if self.mode is SaysMode.CLEARTEXT:
            return fact
        envelope = fact.signature
        if not isinstance(envelope, SignedEnvelope):
            raise self._failure(f"imported tuple {fact} is unsigned")
        sequence = envelope.sequence
        sealed = _tuple_bytes(fact, principal, self.principal, sequence)
        self._open(principal, sealed, envelope.signature, fact)
        if sequence <= self._high_water.get(principal, 0):
            raise self._failure(f"export {sequence} of {principal!r} is stale: {fact}")
        self._high_water[principal] = sequence
        return fact

    def open_anti_delta(
        self,
        keys: Sequence[FactKey],
        source: str,
        sequence: int,
        signature: Optional[bytes],
    ) -> None:
        """Verify an anti-delta addressed to this principal, or raise."""
        if signature is None:
            raise self._failure(f"anti-delta from {source!r} is unsigned")
        sealed = _anti_delta_bytes(keys, source, self.principal, sequence)
        self._open(source, sealed, signature, "anti-delta")
        seen = self._anti_deltas_seen.setdefault(source, set())
        if sequence in seen:
            raise self._failure(f"anti-delta {sequence} of {source!r} is stale")
        seen.add(sequence)

    def _open(self, principal: str, sealed: bytes, signature: bytes, what: object) -> None:
        """Check *principal*'s *signature* over *sealed*, or raise."""
        if not self.keystore.has_public_key(principal):
            raise self._failure(f"no public key for principal {principal!r}")
        if not verify(sealed, signature, self.keystore.public_key(principal)):
            raise self._failure(
                f"signature check failed for {what} claimed by {principal!r}"
            )

    def _failure(self, reason: str) -> AuthenticationError:
        return AuthenticationError(f"{self.principal}: {reason}")

    # -- cost model -----------------------------------------------------------

    def wire_overhead(self) -> int:
        """Bytes the security envelope adds to one exported tuple."""
        return self.mode.header_bytes(self.principal, self.keystore.signature_bytes())
