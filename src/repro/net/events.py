"""Typed simulation events and the event scheduler.

The simulator used to keep a bare heap of ``(time, sequence, message)``
entries, which hard-wired it to one kind of event: message delivery.  The
scenarios of a provenance-aware *dynamic* network need more — links fail and
recover, nodes crash and come back, base facts are injected and retracted
mid-run — so the event loop is factored into an explicit, reusable
:class:`EventScheduler` over a small algebra of typed events.

Ordering is fully deterministic — and, crucially for the sharded execution
backend, *backend-independent*: events fire in ``(time, priority, rank)``
order, where control events (topology and fact changes) carry a lower
priority number than message deliveries so that, at equal timestamps, the
network state changes *before* traffic is processed.  The tie-break ``rank``
is derived from event *content*, not from scheduling history:

* a :class:`MessageDelivery` ranks by ``(sender address, the sender's
  per-node message sequence number)`` — per-link FIFO is preserved (a link's
  delivery times are non-decreasing and same-instant messages order by send
  order), and two kernels that ship the same messages rank them identically
  no matter which one scheduled the delivery;
* other control events rank by an externally assigned ``stamp`` (the order
  the driving code scheduled them, identical across backends), ``(0,
  stamp)``;
* the control events scheduled *inside* kernel processing carry no stamp
  and rank by their content after same-instant stamped ones:
  :class:`QueryTimeout` by ``(1, query id, request id)``,
  :class:`QueryArrival` by ``(2, client, arrival id)`` and
  :class:`InboxDrain` by ``(4, address)``.

This is what lets the sharded backend merge cross-shard deliveries into each
shard's queue at window barriers and still replay the exact serial order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.tuples import Fact, FactKey
from repro.net.address import Address
from repro.net.stats import WireMessage

#: Control events (link / node / fact changes) fire before deliveries that
#: share their timestamp.
CONTROL_PRIORITY = 0
DELIVERY_PRIORITY = 1


@dataclass(eq=False, slots=True)
class SimulationEvent:
    """Base class: something that happens at one instant of simulated time."""

    time: float

    #: Tie-break rank at equal time; see module docstring.
    priority = CONTROL_PRIORITY
    #: Only events with a ``cancelled`` field can be cancelled, and only
    #: through :meth:`EventScheduler.cancel`.
    cancelled = False


@dataclass(eq=False, slots=True)
class MessageDelivery(SimulationEvent):
    """A wire message (single tuple or batch) arriving at its destination."""

    message: WireMessage

    priority = DELIVERY_PRIORITY


@dataclass(eq=False, slots=True)
class LinkDown(SimulationEvent):
    """A directed link fails.

    Messages shipped on the link after this instant are lost; messages
    already in flight still arrive (they left the interface before the
    failure).  When ``retract`` is true the source node also retracts its
    matching ``link`` base tuples, cascading invalidation through everything
    locally derived from them.
    """

    source: Address
    destination: Address
    retract: bool = True


@dataclass(eq=False, slots=True)
class LinkUp(SimulationEvent):
    """A directed link (re)appears.

    ``facts`` are the base tuples to inject at the source; when empty, the
    tuples retracted by the matching :class:`LinkDown` are re-injected.
    """

    source: Address
    destination: Address
    facts: Tuple[Fact, ...] = ()


@dataclass(eq=False, slots=True)
class NodeCrash(SimulationEvent):
    """A node fails, losing its soft state.

    While down the node neither processes deliveries nor accepts injections.
    With ``clear_state`` (the default) its database, aggregate state and
    in-memory provenance are wiped — only the offline provenance archive,
    which models a persistent log, survives the crash.
    """

    address: Address
    clear_state: bool = True


@dataclass(eq=False, slots=True)
class NodeRecover(SimulationEvent):
    """A crashed node comes back.

    With ``reinject`` the node's original base facts (minus tuples for links
    currently down) are re-inserted, modelling the application re-asserting
    its soft state after a restart.
    """

    address: Address
    reinject: bool = True


@dataclass(eq=False, slots=True)
class FactInjection(SimulationEvent):
    """Base tuples asserted at a node by the local application: facts, or
    ``(relation, values)`` keys, which the node stamps into the facts it
    stores (the default link workload travels as keys)."""

    address: Address
    facts: Tuple["Fact | FactKey", ...]
    #: Remember the tuples for later re-injection (node recovery, soft-state
    #: refresh rounds).  Refresh traffic re-injects without re-remembering.
    remember: bool = True


@dataclass(eq=False, slots=True)
class SoftStateRefresh(SimulationEvent):
    """Every live node re-asserts its remembered base tuples.

    This is the paper's soft-state repair loop, run as a discrete round:
    state that lost its support — a failed link, a crashed neighbour, a
    retracted tuple — stops being refreshed and decays by TTL, and the next
    round re-derives what the current network still supports.  Expansion
    happens when the event *fires*, not when it is scheduled, so
    same-instant link failures, crashes and retractions (control events with
    earlier sequence numbers) are visible: a dead link's tuple is not
    re-asserted.  Re-asserting an unchanged tuple only refreshes its TTL at
    the owner — derived state is re-derived (and re-shipped) when it was
    lost or decayed, so refresh rounds that should rebuild remote state are
    spaced beyond the soft-state lifetime.
    """


@dataclass(eq=False, slots=True)
class QueryTimeout(SimulationEvent):
    """A provenance query gives up on one outstanding request.

    Scheduled when the request is shipped; when the matching
    :class:`~repro.net.message.QueryResponse` arrives first the query
    engine cancels it (:meth:`EventScheduler.cancel`) and it never fires
    (no wasted event-budget).  Otherwise — the request or the response was
    lost to a failed link or a crashed node — the queried key is reported
    missing and the query completes with ``complete=False``, which is how
    in-network provenance queries fail *partially* instead of hanging
    forever.
    """

    query_id: int = 0
    request_id: int = 0
    #: Set by :meth:`EventScheduler.cancel`, never directly.
    cancelled: bool = False


@dataclass(eq=False, slots=True)
class FactRetraction(SimulationEvent):
    """Base tuples withdrawn at a node.

    Retraction deletes the tuple and cascades through everything the node
    derived from it (provenance invalidation); remote copies are *not*
    chased — they decay through soft-state expiry, the paper's repair story.
    """

    address: Address
    facts: Tuple[Fact, ...]


@dataclass(eq=False, slots=True)
class QueryArrival(SimulationEvent):
    """One service-plane provenance query arriving at a node.

    The query service plane (:mod:`repro.service`) models an always-on
    network answering client tracebacks while maintenance traffic keeps
    flowing.  An arrival names the asking node and a *root selector* — the
    relation plus a deterministic ``draw`` in ``[0, pool)`` — resolved
    against the asker's live store when the event fires, so both backends
    (whose per-node state at any instant is identical) pick the same root
    without the workload generator ever touching worker-process engines.

    Arrivals are handled entirely on the kernel hosting ``address``: the
    admission check, the cache lookup and the query issue all happen
    kernel-side, which is what makes the service plane work in
    ``shard_mode="processes"`` where the coordinator cannot reach into a
    worker mid-run.  ``client`` is ``-1`` for open-loop (precomputed
    schedule) arrivals; closed-loop clients carry their id, their
    ``think`` time and the ``deadline`` past which they stop re-issuing.
    The ``(client, arrival_id)`` pair is unique per run and is the
    event's content-based rank (see :func:`event_rank`).
    """

    address: Address = ""
    relation: str = "bestPath"
    draw: int = 0
    pool: int = 1
    mode: str = "online"
    condensed: bool = False
    client: int = -1
    arrival_id: int = 0
    deadline: float = 0.0
    think: float = 0.0


@dataclass(eq=False, slots=True)
class InboxDrain(SimulationEvent):
    """A busy node frees and runs its queued data messages as one round.

    Under signed ``says`` with batching, a data message reaching a node that
    is still busy with an earlier round waits in the node's inbox (in
    arrival order); the first one queued schedules this event at the node's
    ``busy_until``.  Firing, it runs the whole inbox as one receive round —
    one delta round, one message and one seal per destination — or re-arms
    if the node has become busy again meanwhile.  A node has at most one
    pending drain: whatever else touches the node's engine first runs the
    inbox itself and cancels the drain.  Scheduled inside kernel processing,
    so it ranks by content, ``(4, address)``.
    """

    address: Address = ""
    #: Set by :meth:`EventScheduler.cancel`, never directly.
    cancelled: bool = False


def event_rank(event: SimulationEvent, stamp: Optional[int] = None) -> Tuple:
    """The content-derived tie-break rank of *event* (see module docstring).

    Ranks are only ever compared between events sharing a ``(time,
    priority)`` pair: deliveries (priority 1) rank by sender identity and
    the sender's per-node message sequence; control events (priority 0) by
    their scheduling ``stamp``, with the control events scheduled *inside*
    node processing rather than by the driving code ranked after stamped
    events by their content.
    """
    if isinstance(event, MessageDelivery):
        message = event.message
        return (str(message.source), message.sequence)
    if isinstance(event, QueryTimeout):
        return (1, event.query_id, event.request_id)
    if isinstance(event, QueryArrival):
        # Closed-loop follow-ups are scheduled *inside* node processing
        # (like query timeouts), so the rank must come from the arrival's
        # identity, never a kernel-local stamp.
        return (2, event.client, event.arrival_id)
    if isinstance(event, InboxDrain):
        # Scheduled inside kernel processing too; at most one pending drain
        # per node, so the address is the rank.
        return (4, str(event.address))
    return (0, stamp if stamp is not None else 0)


class EventScheduler:
    """A deterministic priority queue of :class:`SimulationEvent`.

    Events fire in ``(time, priority, rank)`` order with a scheduling-time
    sequence number as the final fallback; the rank is derived from event
    content (see :func:`event_rank`), so two kernels scheduling the same
    events — even interleaved differently, as the sharded backend does at
    its window barriers — replay them in the same order.

    A cancelled event stays in the heap until it surfaces at the front,
    where it is dropped, or until the cancelled entries outnumber the live
    ones and the heap is rebuilt from the live ones alone.  The
    ``(time, priority, rank, sequence)`` keys are unique, so a rebuild
    leaves the pop order as it was.  The front entry is always live.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Tuple, int, SimulationEvent]] = []
        self._sequence = 0
        #: Cancelled entries still in the heap (never its front).
        self._cancelled = 0
        self.events_scheduled = 0

    def _discard_cancelled(self) -> None:
        # Keep the front live: a cancelled event neither fires nor counts
        # against the max_events budget.
        heap = self._heap
        while heap and heap[0][-1].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1

    def _rebuild(self) -> None:
        """Drop every cancelled entry at once and re-heapify the rest."""
        self._heap = [entry for entry in self._heap if not entry[-1].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, event: SimulationEvent, stamp: Optional[int] = None) -> int:
        """Queue *event*; returns the fallback sequence number assigned.

        *stamp* orders same-instant control events; the simulation kernel
        assigns it from a backend-global counter (identical for the same
        driving code under every execution backend).  Deliveries and query
        timeouts carry their rank in their content and ignore it.
        """
        self._sequence += 1
        self.events_scheduled += 1
        heapq.heappush(
            self._heap,
            (
                event.time,
                event.priority,
                event_rank(event, stamp),
                self._sequence,
                event,
            ),
        )
        return self._sequence

    def cancel(self, event: SimulationEvent) -> None:
        """Withdraw *event*, which must still be queued: it will not fire."""
        event.cancelled = True
        self._cancelled += 1
        if 2 * self._cancelled > len(self._heap):
            self._rebuild()
        else:
            self._discard_cancelled()

    def pop(self) -> SimulationEvent:
        """Remove and return the next live event in deterministic order."""
        heap = self._heap
        event = heapq.heappop(heap)[-1]
        if heap and heap[0][-1].cancelled:
            self._discard_cancelled()
        return event

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when idle."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pending(self) -> Tuple[SimulationEvent, ...]:
        """The queued live events in fire order (non-destructive, for inspection)."""
        return tuple(
            entry[-1]
            for entry in sorted(self._heap, key=lambda e: e[:4])
            if not entry[-1].cancelled
        )
