"""Hand tuples between bare engines the way the kernel ships them.

Under signed ``says`` an engine only numbers what it exports; the kernel
seals each wire message with one signature over the Merkle root of its
tuples (``SimulationKernel._dispatch_outgoing``).  Tests that drive engines
without a kernel seal through these two helpers instead.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.engine.node_engine import NodeEngine, ProcessingResult
from repro.engine.tuples import Fact


def seal(sender: NodeEngine, facts: Iterable[Fact], destination: str) -> Optional[bytes]:
    """The signature *sender* puts on one wire message of *facts* for
    *destination*: ``None`` unless its ``says`` mode signs."""
    if not sender.config.says_mode.requires_signature:
        return None
    return sender.authenticator.seal_batch(tuple(facts), destination)


def deliver(
    sender: NodeEngine, receiver: NodeEngine, facts: Iterable[Fact], now: float
) -> ProcessingResult:
    """*facts* from *sender* arriving at *receiver* as one sealed message."""
    facts = tuple(facts)
    return receiver.receive_batch(facts, now, seal(sender, facts, receiver.address))
