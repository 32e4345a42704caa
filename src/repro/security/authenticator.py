"""Tuple signing and verification pipeline.

The :class:`Authenticator` is the one door through which a node engine
exports a derived tuple to another principal and imports one from the
network.  It implements the ``says`` modes of
:class:`~repro.security.says.SaysMode`; it keeps no counters of its own —
the engine counts each outcome on its ``ProcessingReport`` and the kernel
folds those into the run's ``NodeStats``.

Under ``SIGNED`` one RSA signature covers one wire message, and the message
carries one envelope, a :class:`Seal`: the signer's principal, the export
sequence number of its first tuple and the signature.  Tuple *i* of the
message is export number ``first + i``, so nothing of the envelope travels
per tuple.  Each tuple is a Merkle leaf: canonical bytes of everything the
receiver will act on — payload, asserting principal, destination, the
tuple's export sequence number, condensed annotation, base-support
polynomial (:func:`sealed_bytes`).  The sender numbers the message's tuples
and signs the RFC 6962-style root of their leaves
(:meth:`Authenticator.seal_batch`, called where the kernel forms the
message); the receiver rebuilds the leaves from the seal, the tuples'
positions and what arrived, at its own address, verifies the root once and
then checks each tuple's freshness (:meth:`Authenticator.import_batch`).  It
reads no attribution or number the sender wrote on a tuple.  The leaf holds
the annotation's and the support's resolved renderings whichever form they
travelled in: the receiving engine rebuilds an annotation shipped as its
message item's position mask and a support shipped as its item's support
code before the leaf is built from them, so a tampered mask or code breaks
the root like any other changed field.  For each tuple it admits the
receiver gets a :class:`SignedEnvelope` holding its number, the signature
and the tuple's authentication path — derived by the receiver, never
shipped — and stores the tuple attributed to the seal's principal with it,
so it verifies alone (:func:`verify_evidence`) long after its message is
gone.  Nothing that travels is outside the signature, so an
annotation cannot be spliced onto another tuple, a message sealed for one
node is refused at another, dropping, reordering or renumbering its tuples
breaks its root, a seal naming anyone but its signer verifies nothing, and a
replayed tuple is refused as stale.  Anti-deltas are sealed and opened
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


class Seal(NamedTuple):
    """The envelope one signed wire message carries once.

    ``principal`` signed the message; ``first`` is the export sequence
    number of its first tuple, and tuple *i* is number ``first + i`` —
    numbers strictly increase per principal across destinations and
    crashes; ``signature`` is the principal's RSA signature over the Merkle
    root of the message's leaves.
    """

    principal: str
    first: int
    signature: bytes

    def wire_bytes(self) -> int:
        """What the envelope costs on the wire: the signature at its real
        length plus the principal and the first number, once."""
        return SaysMode.SIGNED.header_bytes(self.principal) + len(self.signature)


class SignedEnvelope(NamedTuple):
    """The evidence an admitted tuple is stored with, in ``Fact.signature``.

    The receiver fills it in from the message's :class:`Seal` and the
    tuple's position: ``sequence``, the tuple's export sequence number;
    ``signature``, its wire message's one RSA signature over the Merkle root
    of the message's leaves; and ``path``, the sibling hashes that fold this
    tuple's leaf up to that root (empty for a one-tuple message), derived by
    the receiver.  A stored tuple therefore verifies alone
    (:func:`verify_evidence`).
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


#: One arrived tuple with the annotation and the support it carried, as its
#: receiver resolved them from their wire forms: what the tuple's leaf covers.
Carried = Tuple[Fact, Optional[object], Optional[object]]


def _tuple_bytes(
    fact: Fact, principal: str, destination: str, sequence: int, annotation, support
) -> bytes:
    return sealed_bytes(fact.payload(), principal, destination, sequence, annotation, support)


def _anti_delta_bytes(keys, source: str, destination: str, sequence: int) -> bytes:
    return sealed_bytes(b"anti-delta", source, destination, sequence, *map(repr, keys))


def _leaf_hash(leaf: bytes) -> bytes:
    return sha256(b"\x00" + leaf).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(b"\x01" + left + right).digest()


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """The RFC 6962 Merkle tree hash of *leaves*, without the paths: what
    the sender signs.  Pairing each level from the left and carrying an
    odd last node up unpaired builds the same tree :func:`merkle_tree`
    splits top-down."""
    if not leaves:
        return sha256(b"").digest()
    level = [_leaf_hash(leaf) for leaf in leaves]
    while len(level) > 1:
        paired = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def merkle_tree(leaves: Sequence[bytes]) -> Tuple[bytes, List[Tuple[PathStep, ...]]]:
    """The RFC 6962 Merkle tree hash of *leaves*, and each leaf's path.

    A leaf hashes as ``H(0x00 || leaf)`` and an inner node as ``H(0x01 ||
    left || right)``; ``n > 1`` leaves split after the largest power of two
    below ``n``.  Path ``i`` lists the sibling of every node on leaf ``i``'s
    way to the root, which :func:`fold_path` replays.  Only the receiver
    needs the paths.
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
    envelope, principal = fact.signature, fact.asserted_by
    if not isinstance(envelope, SignedEnvelope) or principal is None:
        return False
    leaf = _tuple_bytes(fact, principal, holder, envelope.sequence, fact.provenance, fact.support)
    return verify(fold_path(leaf, envelope.path), envelope.signature, public_key)


class Authenticator:
    """Per-node implementation of ``says`` export / import."""

    def __init__(self, principal: str, keystore: KeyStore, mode: SaysMode) -> None:
        self.principal = principal
        self.keystore = keystore
        self.mode = mode
        if mode.requires_signature and not keystore.has_private_key(principal):
            keystore.create_keypair(principal)
        #: Export sequence number of the last tuple this principal sealed.  It
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

    def seal_batch(self, facts: Sequence[Fact], destination: str) -> Seal:
        """Number *facts* as this principal's next exports and sign them as
        one wire message for *destination*: one signature over the Merkle
        root of their leaves, carried in the returned :class:`Seal`."""
        first = self._exported + 1
        self._exported += len(facts)
        principal = self.principal
        leaves = [
            _tuple_bytes(fact, principal, destination, sequence, fact.provenance, fact.support)
            for sequence, fact in enumerate(facts, first)
        ]
        return Seal(principal, first, self._seal(merkle_root(leaves)))

    def seal_anti_delta(
        self, keys: Sequence[FactKey], destination: str, sequence: int
    ) -> bytes:
        """Sign an anti-delta this principal ships as message *sequence*."""
        return self._seal(_anti_delta_bytes(keys, self.principal, destination, sequence))

    def _seal(self, message: bytes) -> bytes:
        return sign(message, self.keystore.private_key(self.principal))

    # -- import ---------------------------------------------------------------

    def import_batch(
        self, carried: Sequence[Carried], seal: Optional[Seal] = None
    ) -> List[Optional[SignedEnvelope]]:
        """Authenticate one signed wire message's tuples.

        *carried* holds, per tuple in order, the arrived tuple with the
        annotation and support its receiver resolved.  Returns, per tuple,
        the evidence to store it with, or ``None`` when it is refused.  The
        *seal*'s principal must have signed the Merkle root of the tuples'
        leaves as rebuilt *at this principal*, tuple *i* numbered
        ``seal.first + i`` — else every tuple is refused.  Then a tuple
        whose number is not newer than the last one accepted from that
        principal is refused as stale, and every other gets its number, the
        signature and its path; the receiver attributes it to the seal's
        principal.
        """
        envelopes: List[Optional[SignedEnvelope]] = [None] * len(carried)
        if not isinstance(seal, Seal) or type(seal.first) is not int:
            return envelopes
        principal, first, signature = seal
        if not self.keystore.has_public_key(principal):
            return envelopes
        here = self.principal
        root, paths = merkle_tree(
            [
                _tuple_bytes(fact, principal, here, sequence, annotation, support)
                for sequence, (fact, annotation, support) in enumerate(carried, first)
            ]
        )
        if not verify(root, signature, self.keystore.public_key(principal)):
            return envelopes
        # Tuples cross one link in export order, so anything at or below the
        # mark is a replay.
        mark = self._high_water.get(principal, 0)
        for index, path in enumerate(paths):
            sequence = first + index
            if sequence > mark:
                mark = sequence
                envelopes[index] = SignedEnvelope(sequence, signature, path)
        self._high_water[principal] = mark
        return envelopes

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
