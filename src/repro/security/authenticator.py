"""Tuple signing and verification pipeline.

The :class:`Authenticator` is the one door through which a node engine
exports a derived tuple to another principal and imports one from the
network.  It implements the three ``says`` modes of
:class:`~repro.security.says.SaysMode`; it keeps no counters of its own —
the engine counts each outcome on its ``ProcessingReport`` and the kernel
folds those into the run's ``NodeStats``.

Under ``SIGNED`` one RSA signature covers one wire message.  Each tuple the
message carries is a Merkle leaf: canonical bytes of everything the receiver
will act on — payload, asserting principal, destination, the sender's export
sequence number, condensed annotation, base-support polynomial
(:func:`sealed_bytes`).  The sender signs the RFC 6962-style root of the
message's leaves (:meth:`Authenticator.seal_batch`, called where the kernel
forms the message); the receiver rebuilds the leaves from what arrived, at its
own address, verifies the root once and then checks each tuple's freshness
(:meth:`Authenticator.import_batch`).  The leaf holds the annotation's
resolved rendering whichever form it travelled in: an annotation shipped as
a position mask is rebuilt by the receiving engine before the leaf is, so a
tampered mask breaks the root like any other changed field.  A tuple it
admits is stored with a :class:`SignedEnvelope` holding the signature and
the tuple's authentication path — derived by the receiver, never shipped —
so it verifies alone (:func:`verify_evidence`) long after its message is
gone.  Nothing that travels is outside the signature, so an annotation
cannot be spliced onto another tuple, a message sealed for one node is
refused at another, dropping or reordering its tuples breaks its root, and
a replayed tuple is refused as stale.  Anti-deltas are sealed and opened
one signature each over *(keys, source, destination, message sequence)*.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.engine.tuples import Fact, FactKey
from repro.security.keystore import KeyStore
from repro.security.rsa import sign, verify
from repro.security.says import SaysMode


class AuthenticationError(Exception):
    """Raised when an anti-delta fails authentication.  (A refused tuple is
    not raised: :meth:`Authenticator.import_batch` returns ``None`` for it.)"""


#: One step of an authentication path, from the leaf upward: whether the
#: sibling sits on the left, and the sibling's hash.
PathStep = Tuple[bool, bytes]


class SignedEnvelope(NamedTuple):
    """What a signed export carries in ``Fact.signature``.

    On the wire a tuple carries only ``sequence``: the sender's export
    sequence number, strictly increasing per principal across destinations
    and crashes.  The receiver that admits the tuple fills in its evidence:
    ``signature``, its wire message's one RSA signature over the Merkle root
    of the message's leaves, and ``path``, the sibling hashes that fold this
    tuple's leaf up to that root (empty for a one-tuple message).  A stored
    tuple therefore verifies alone (:func:`verify_evidence`).
    """

    sequence: int
    signature: bytes = b""
    path: Tuple[PathStep, ...] = ()


def sealed_bytes(payload: bytes, *fields: object) -> bytes:
    """The canonical bytes of one Merkle leaf, or of what one anti-delta's
    signature covers: *payload*, then the string form of each field, every
    one preceded by its length — so the encoding is injective, however the
    fields themselves use separators.

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


def _leaf_hash(leaf: bytes) -> bytes:
    return sha256(b"\x00" + leaf).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(b"\x01" + left + right).digest()


def merkle_tree(leaves: Sequence[bytes]) -> Tuple[bytes, List[Tuple[PathStep, ...]]]:
    """The RFC 6962 Merkle tree hash of *leaves*, and each leaf's path.

    A leaf hashes as ``H(0x00 || leaf)`` and an inner node as ``H(0x01 ||
    left || right)``; ``n > 1`` leaves split after the largest power of two
    below ``n``.  Path ``i`` lists the sibling of every node on leaf ``i``'s
    way to the root, which :func:`fold_path` replays.
    """
    if not leaves:
        return sha256(b"").digest(), []
    return _subtree([_leaf_hash(leaf) for leaf in leaves])


def _subtree(hashes: List[bytes]) -> Tuple[bytes, List[Tuple[PathStep, ...]]]:
    if len(hashes) == 1:
        return hashes[0], [()]
    split = 1 << ((len(hashes) - 1).bit_length() - 1)
    left, left_paths = _subtree(hashes[:split])
    right, right_paths = _subtree(hashes[split:])
    # One step object per side, shared by every path through it.
    up_left, up_right = ((False, right),), ((True, left),)
    return _node_hash(left, right), (
        [path + up_left for path in left_paths] + [path + up_right for path in right_paths]
    )


def fold_path(leaf: bytes, path: Sequence[PathStep]) -> bytes:
    """The root *leaf* reaches along *path* (see :func:`merkle_tree`)."""
    node = _leaf_hash(leaf)
    for sibling_is_left, sibling in path:
        node = _node_hash(sibling, node) if sibling_is_left else _node_hash(node, sibling)
    return node


def verify_evidence(fact: Fact, holder: str, public_key: Tuple[int, int]) -> bool:
    """Whether *fact*, as admitted and stored at *holder*, still proves that
    its asserting principal said it: the leaf rebuilt from the stored fields
    must fold along the envelope's path to the root its signature covers.
    Needs nothing of the wire message that brought it."""
    envelope = fact.signature
    if not isinstance(envelope, SignedEnvelope) or fact.asserted_by is None:
        return False
    leaf = _tuple_bytes(fact, fact.asserted_by, holder, envelope.sequence)
    return verify(fold_path(leaf, envelope.path), envelope.signature, public_key)


class Authenticator:
    """Per-node implementation of ``says`` export / import."""

    def __init__(self, principal: str, keystore: KeyStore, mode: SaysMode) -> None:
        self.principal = principal
        self.keystore = keystore
        self.mode = mode
        if mode.requires_signature and not keystore.has_private_key(principal):
            keystore.create_keypair(principal)
        #: Export sequence number of the last tuple this principal numbered.  It
        #: and the freshness marks below live here, beside the key, not in the
        #: state a crash wipes (``NodeEngine.reset_state``): a counter that
        #: restarted would make every post-recovery export look stale.
        self._exported = 0
        #: Per asserting principal: the highest export sequence accepted.
        self._high_water: Dict[str, int] = {}
        #: Per source: message sequences of the anti-deltas accepted.  A set,
        #: not a mark — anti-deltas are routed around failed links and may
        #: overtake each other.
        self._anti_deltas_seen: Dict[str, Set[int]] = {}

    # -- export ---------------------------------------------------------------

    def export_fact(self, fact: Fact) -> Fact:
        """Attribute (and under SIGNED mode, number) *fact* for export.

        Returns the copy of the fact that travels: it carries the
        ``asserted_by`` attribution and, in signed mode, a
        :class:`SignedEnvelope` holding its export sequence number.  The
        wire message that carries it is signed by :meth:`seal_batch`.
        """
        if self.mode is SaysMode.NONE:
            return fact
        envelope = None
        if self.mode is SaysMode.SIGNED:
            self._exported += 1
            envelope = SignedEnvelope(self._exported)
        return fact.with_metadata(asserted_by=self.principal, signature=envelope)

    def seal_batch(self, facts: Sequence[Fact], destination: str) -> bytes:
        """Sign one wire message of exported *facts* for *destination*: one
        signature over the Merkle root of their leaves."""
        principal = self.principal
        leaves = [
            _tuple_bytes(fact, principal, destination, fact.signature.sequence)
            for fact in facts
        ]
        return self._seal(merkle_tree(leaves)[0])

    def seal_anti_delta(
        self, keys: Sequence[FactKey], destination: str, sequence: int
    ) -> bytes:
        """Sign an anti-delta this principal ships as message *sequence*."""
        return self._seal(_anti_delta_bytes(keys, self.principal, destination, sequence))

    def _seal(self, message: bytes) -> bytes:
        return sign(message, self.keystore.private_key(self.principal))

    # -- import ---------------------------------------------------------------

    def import_batch(
        self, facts: Sequence[Fact], signature: Optional[bytes] = None
    ) -> List[Optional[Fact]]:
        """Authenticate one wire message's tuples according to the mode.

        Returns, per tuple in order, the fact to admit or ``None`` when it is
        refused.  ``NONE`` passes every tuple; ``CLEARTEXT`` refuses a tuple
        with no asserting principal.  Under ``SIGNED`` the tuples must all
        name one principal whose *signature* covers the Merkle root of their
        leaves as rebuilt *at this principal* — else every tuple is refused.
        Then a tuple whose export sequence is not newer than the last one
        accepted from that principal is refused as stale, and every other
        comes back carrying its evidence: the signature and its path.
        """
        if self.mode is SaysMode.NONE:
            return list(facts)
        if self.mode is SaysMode.CLEARTEXT:
            return [fact if fact.asserted_by is not None else None for fact in facts]
        admitted: List[Optional[Fact]] = [None] * len(facts)
        principals = {fact.asserted_by for fact in facts}
        if len(principals) != 1 or signature is None:
            return admitted
        (principal,) = principals
        if principal is None or not self.keystore.has_public_key(principal):
            return admitted
        if not all(isinstance(fact.signature, SignedEnvelope) for fact in facts):
            return admitted
        here = self.principal
        root, paths = merkle_tree(
            [_tuple_bytes(fact, principal, here, fact.signature.sequence) for fact in facts]
        )
        if not verify(root, signature, self.keystore.public_key(principal)):
            return admitted
        # Tuples cross one link in export order, so anything at or below the
        # mark is a replay.
        mark = self._high_water.get(principal, 0)
        for index, (fact, path) in enumerate(zip(facts, paths)):
            sequence = fact.signature.sequence
            if sequence > mark:
                mark = sequence
                admitted[index] = fact.with_metadata(
                    signature=SignedEnvelope(sequence, signature, path)
                )
        self._high_water[principal] = mark
        return admitted

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
        """Bytes the security envelope adds to one exported tuple; the wire
        message charges its signature at that signature's length."""
        return self.mode.header_bytes(self.principal)
