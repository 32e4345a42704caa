"""Authentication modes of the ``says`` operator.

The paper (Section 2.2) notes that the implementation of ``says`` depends on
the deployment: "In a hostile world, says may require digital signatures,
while in a more benign world, says may simply append a cleartext principal
header to a message — and this will of course be cheaper."

No evaluated configuration uses a cleartext header, so :class:`SaysMode`
keeps the two that are: no ``says`` at all, and signatures.  The provenance
presets map the three evaluated configurations to them:

* ``NDlog``        -> :attr:`SaysMode.NONE`
* ``SeNDlog``      -> :attr:`SaysMode.SIGNED`
* ``SeNDlogProv``  -> :attr:`SaysMode.SIGNED` plus provenance
"""

from __future__ import annotations

from enum import Enum

#: Wire size of the sequence number a signed message's envelope carries.
SEQUENCE_BYTES = 8


class SaysMode(Enum):
    """How exported tuples are attributed to their asserting principal."""

    #: No authentication at all: plain NDlog, tuples carry no principal.
    NONE = "none"

    #: Each wire message is digitally signed by the exporting principal over
    #: the Merkle root of its tuples (hostile world).
    SIGNED = "signed"

    @property
    def requires_signature(self) -> bool:
        """True when tuples are attributed, numbered and signed."""
        return self is SaysMode.SIGNED

    def header_bytes(self, principal: str) -> int:
        """Wire overhead of one signed message's envelope besides its
        signature, under this mode.

        ``NONE`` adds nothing; ``SIGNED`` adds the principal name plus one
        sequence number: a data message's first export number (its tuples
        are numbered from it, so none carries its own), an anti-delta's
        message number.  Charged once per wire message, like the signature,
        which the message charges at its real length.
        """
        if self is SaysMode.NONE:
            return 0
        return len(principal.encode("utf-8")) + SEQUENCE_BYTES
