"""Authentication modes of the ``says`` operator.

The paper (Section 2.2) notes that the implementation of ``says`` depends on
the deployment: "In a hostile world, says may require digital signatures,
while in a more benign world, says may simply append a cleartext principal
header to a message — and this will of course be cheaper."

:class:`SaysMode` captures exactly these options; the experiment harness maps
the three evaluated configurations to them:

* ``NDlog``        -> :attr:`SaysMode.NONE`
* ``SeNDlog``      -> :attr:`SaysMode.SIGNED`
* ``SeNDlogProv``  -> :attr:`SaysMode.SIGNED` plus provenance
"""

from __future__ import annotations

from enum import Enum

#: Wire size of the export sequence number a signed envelope carries.
SEQUENCE_BYTES = 8


class SaysMode(Enum):
    """How exported tuples are attributed to their asserting principal."""

    #: No authentication at all: plain NDlog, tuples carry no principal.
    NONE = "none"

    #: A cleartext principal header is attached but not signed (benign world).
    CLEARTEXT = "cleartext"

    #: Each wire message is digitally signed by the exporting principal over
    #: the Merkle root of its tuples (hostile world).
    SIGNED = "signed"

    @property
    def authenticates(self) -> bool:
        """True when tuples carry a principal attribution at all."""
        return self is not SaysMode.NONE

    @property
    def requires_signature(self) -> bool:
        return self is SaysMode.SIGNED

    def header_bytes(self, principal: str) -> int:
        """Wire overhead added to one tuple under this mode.

        ``NONE`` adds nothing; ``CLEARTEXT`` adds the principal name;
        ``SIGNED`` adds the principal name plus the export sequence number
        the envelope covers.  The signature itself is charged once per wire
        message, at its real length, by the message that carries it.
        """
        if self is SaysMode.NONE:
            return 0
        overhead = len(principal.encode("utf-8"))
        if self is SaysMode.SIGNED:
            overhead += SEQUENCE_BYTES
        return overhead
