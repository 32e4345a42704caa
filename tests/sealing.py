"""Hand tuples between bare engines the way the kernel ships them.

Under signed ``says`` an engine exports its tuples unattributed; the kernel
seals each wire message — names its principal, numbers its tuples and signs
the Merkle root of their leaves (``SimulationKernel._dispatch_outgoing``).
Tests that drive engines without a kernel seal through these helpers
instead.  A wire message's items are the engine's :class:`OutgoingFact`
records, which hold the wire forms (``mask``, ``code``) of what their tuple
carries; a bare :class:`Fact` handed to these helpers travels as an item
without either, its annotation and support explicit.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

from repro.engine.node_engine import NodeEngine, OutgoingFact, ProcessingResult
from repro.engine.tuples import Fact
from repro.security.authenticator import Seal

Shipped = Union[Fact, OutgoingFact]


def items(shipped: Iterable[Shipped], destination: str) -> Tuple[OutgoingFact, ...]:
    """*shipped* as the items of one wire message for *destination*."""
    return tuple(
        item if isinstance(item, OutgoingFact) else OutgoingFact(destination, item)
        for item in shipped
    )


def seal(sender: NodeEngine, shipped: Iterable[Shipped], destination: str) -> Optional[Seal]:
    """The seal *sender* puts on one wire message of *shipped* for
    *destination*, numbering them as its next exports: ``None`` unless its
    ``says`` mode signs."""
    if not sender.config.says_mode.requires_signature:
        return None
    facts = [item.fact for item in items(shipped, destination)]
    return sender.authenticator.seal_batch(facts, destination)


def receive(
    receiver: NodeEngine, shipped: Iterable[Shipped], sealed: object, now: float
) -> ProcessingResult:
    """*shipped* arriving at *receiver* as one message under *sealed*, as
    given (a forged or missing seal included)."""
    return receiver.receive_batch([(items(shipped, receiver.address), sealed)], now)


def deliver(
    sender: NodeEngine, receiver: NodeEngine, shipped: Iterable[Shipped], now: float
) -> ProcessingResult:
    """*shipped* from *sender* arriving at *receiver* as one sealed message."""
    message = items(shipped, receiver.address)
    return receive(receiver, message, seal(sender, message, receiver.address), now)
