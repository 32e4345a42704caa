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

    #: Each tuple is digitally signed by the exporting principal (hostile world).
    SIGNED = "signed"

    @property
    def authenticates(self) -> bool:
        """True when tuples carry a principal attribution at all."""
        return self is not SaysMode.NONE

    @property
    def requires_signature(self) -> bool:
        return self is SaysMode.SIGNED

    def header_bytes(self, principal: str, signature_bytes: int) -> int:
        """Wire overhead added to one tuple under this mode.

        ``NONE`` adds nothing; ``CLEARTEXT`` adds the principal name;
        ``SIGNED`` adds the principal name plus the envelope: a fixed-size
        signature and the sequence number it covers.
        """
        if self is SaysMode.NONE:
            return 0
        overhead = len(principal.encode("utf-8"))
        if self is SaysMode.SIGNED:
            overhead += signature_bytes + SEQUENCE_BYTES
        return overhead
