"""Data wire messages for tests that build them by hand.

The per-tuple wire format is a :class:`MessageBatch` of one item; items are
the engine's :class:`OutgoingFact` records, addressed like their batch.  A
signed message carries its :class:`~repro.security.authenticator.Seal` once
(``seal=...``).
"""

from __future__ import annotations

from repro.engine.node_engine import OutgoingFact
from repro.net.message import MessageBatch


def batch_of_one(source, destination, fact, provenance_bytes=0, **fields) -> MessageBatch:
    """One tuple on the wire, with its itemized annotation bytes."""
    item = OutgoingFact(destination, fact, provenance_bytes)
    return MessageBatch(source=source, destination=destination, items=(item,), **fields)
