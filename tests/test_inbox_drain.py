"""The inbox drain: a busy node runs everything queued for it as one round.

Under signed ``says`` with batching, a data message that reaches a node still
busy with an earlier round waits in the node's inbox; when the node frees, one
:class:`~repro.net.events.InboxDrain` runs the whole inbox as one receive
round — each message's Merkle root verified once, one delta round, one
message and one seal per destination.  Unsigned runs never queue: a message
costs them nothing per message, so a drain would only delay their outputs.

The work budget is exact, on fixed N=8 runs: receive rounds per node equal
its busy periods, one seal per data message formed and one verification per
data message received, inbox order equal to delivery-rank order.  A crash
drops a queued inbox as lost messages, identically serial and inline-sharded;
an anti-delta meeting a queued inbox is processed after it, and the
retraction still ends at a from-scratch network's ``bestPathCost``.
"""

from __future__ import annotations

import collections
import hashlib

import pytest
from test_sharding import _assert_equivalent

from repro.api import Network
from repro.engine.node_engine import NodeEngine
from repro.net.events import (
    FactInjection,
    FactRetraction,
    InboxDrain,
    LinkDown,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
)
from repro.net.kernel import SimulationKernel
from repro.net.message import AntiDelta, MessageBatch
from repro.net.query import ProvenanceQuery
from repro.net.topology import random_topology
from repro.security.authenticator import Authenticator

SEED = 4


def build(provenance: str, topology=8, seed=SEED, **options) -> Network:
    return Network.build(
        topology=topology, program="best-path", provenance=provenance, seed=seed, **options
    )


class Recorder:
    """What one run did, per node: each data delivery with the instant its
    node was busy until when it arrived, and each receive round with the
    seals of the messages it ran, in order."""

    def __init__(self, monkeypatch) -> None:
        self.deliveries = collections.defaultdict(list)
        self.rounds = collections.defaultdict(list)
        self.sealed = 0
        self.opened = collections.Counter()
        dispatch = SimulationKernel._dispatch
        receive = NodeEngine.receive_batch
        seal, open_batch = Authenticator.seal_batch, Authenticator.import_batch

        def recorded_dispatch(kernel, event):
            if isinstance(event, MessageDelivery) and isinstance(event.message, MessageBatch):
                message = event.message
                busy_until = kernel.stats.node(message.destination).busy_until
                self.deliveries[message.destination].append(
                    (
                        event.time,
                        str(message.source),
                        message.sequence,
                        busy_until,
                        message.seal,
                    )
                )
            return dispatch(kernel, event)

        def recorded_receive(engine, messages, now):
            messages = list(messages)
            self.rounds[engine.address].append((now, [seal for _, seal in messages]))
            return receive(engine, messages, now)

        def counted_seal(authenticator, facts, destination):
            self.sealed += 1
            return seal(authenticator, facts, destination)

        def counted_open(authenticator, carried, seal=None):
            self.opened[seal] += 1
            return open_batch(authenticator, carried, seal)

        monkeypatch.setattr(SimulationKernel, "_dispatch", recorded_dispatch)
        monkeypatch.setattr(NodeEngine, "receive_batch", recorded_receive)
        monkeypatch.setattr(Authenticator, "seal_batch", counted_seal)
        monkeypatch.setattr(Authenticator, "import_batch", counted_open)

    def expected_rounds(self, address):
        """The rounds the busy-period rule predicts from the deliveries alone.

        A message arriving at an idle node is a round of its own, at its
        arrival.  Every message arriving while the node is busy until ``e``
        runs in the one round that starts at ``e``, in arrival order.
        """
        rounds, by_end = [], {}
        for at, _source, _sequence, busy_until, seal in self.deliveries[address]:
            if at >= busy_until:
                rounds.append((at, [seal]))
            elif busy_until in by_end:
                by_end[busy_until][1].append(seal)
            else:
                by_end[busy_until] = (busy_until, [seal])
                rounds.append(by_end[busy_until])
        return rounds


def test_a_signed_batched_run_runs_one_round_per_busy_period(monkeypatch):
    recorder = Recorder(monkeypatch)
    network = build("sendlog-prov")
    assert network.run().converged
    summary = network.stats.summary()

    drained = 0
    for address, node in network.stats.nodes.items():
        deliveries = recorder.deliveries[address]
        # The inbox is filled in delivery-rank order: (time, sender, sequence).
        assert [d[:3] for d in deliveries] == sorted(d[:3] for d in deliveries)
        assert recorder.rounds[address] == recorder.expected_rounds(address)
        assert node.receive_rounds == len(recorder.rounds[address])
        assert node.messages_received == len(deliveries)
        drained += sum(len(seals) > 1 for _, seals in recorder.rounds[address])
    assert drained > 0
    assert summary["receive_rounds"] < summary["total_messages"]

    # One seal per data message formed, one verification per data message
    # received, and no message opened twice.
    assert recorder.sealed == summary["signatures_created"] == summary["batches_sent"]
    assert summary["batches_sent"] == summary["total_messages"]
    delivered = [d[4] for deliveries in recorder.deliveries.values() for d in deliveries]
    assert len(set(delivered)) == len(delivered)
    assert recorder.opened == collections.Counter(delivered)
    assert summary["signatures_verified"] == len(delivered) == summary["total_messages"]
    assert summary["verification_failures"] == summary["facts_rejected"] == 0


def test_an_unsigned_run_never_queues():
    network = build("ndlog")
    assert network.run().converged
    for node in network.stats.nodes.values():
        assert node.receive_rounds == node.messages_received
    summary = network.stats.summary()
    assert summary["receive_rounds"] == summary["total_messages"]


def test_the_per_tuple_format_never_queues():
    network = build("sendlog-prov", batching=False)
    assert network.run().converged
    summary = network.stats.summary()
    assert summary["receive_rounds"] == summary["total_messages"] == summary["tuples_sent"]


def test_a_drain_due_while_the_node_is_busy_again_re_arms(monkeypatch):
    """Work that is not a delivery can keep a node busy past its drain's
    instant — here a provenance query issued between events.  The drain
    then re-arms at the new ``busy_until`` instead of running early, and
    the node still has one pending drain."""
    network = build("sendlog-prov")
    kernel = network.simulator
    for address, facts in network.link_facts().items():
        kernel.schedule(FactInjection(time=0.0, address=address, facts=tuple(facts)))
    while not kernel._inboxes:
        kernel._dispatch(kernel.scheduler.pop())
    (victim, queued), = kernel._inboxes.items()
    due = kernel._drains[victim].time
    root = network.engines[victim].facts("link")[0]
    kernel.issue_query(ProvenanceQuery(root=root.key(), at=victim), now=due - 1e-6)
    busy_until = network.stats.node(victim).busy_until
    assert busy_until > due

    rounds, dispatching = [], []
    receive, dispatch = NodeEngine.receive_batch, SimulationKernel._dispatch

    def recorded(engine, messages, now):
        messages = list(messages)
        if engine.address == victim:
            rounds.append((dispatching[-1], now, len(messages)))
        return receive(engine, messages, now)

    def dispatched(kernel, event):
        dispatching.append(event.time)
        return dispatch(kernel, event)

    monkeypatch.setattr(NodeEngine, "receive_batch", recorded)
    monkeypatch.setattr(SimulationKernel, "_dispatch", dispatched)
    drains = [
        event
        for event in kernel.scheduler.pending()
        if isinstance(event, InboxDrain) and event.address == victim
    ]
    assert [drain.time for drain in drains] == [due]
    assert network.run_until_idle()
    # The drain due at ``due`` ran nothing; its re-armed successor ran the
    # inbox when the query work was done.
    fired_at, started_at, size = rounds[0]
    assert fired_at == started_at == busy_until
    assert size >= len(queued)


# -- a crash with a queued inbox ---------------------------------------------------


def queued_instant():
    """The first node to hold two queued messages, the instant the second
    arrived and the instant its drain was due."""
    network = build("sendlog-prov")
    kernel = network.simulator
    found = []
    deliver = kernel._deliver

    def spy(message, at):
        deliver(message, at)
        inbox = kernel._inboxes.get(message.destination, ())
        if not found and len(inbox) >= 2:
            found.append((message.destination, at, kernel._drains[message.destination].time))

    kernel._deliver = spy
    assert network.run().converged
    return found[0]


@pytest.mark.parametrize("kind", [FactInjection, FactRetraction])
def test_an_injection_or_retraction_runs_the_queued_inbox_first(kind):
    """Base-fact changes reach a busy node's engine only after the messages
    it queued earlier have run, so the node sees its traffic in arrival
    order."""
    victim, queued_at, drain_at = queued_instant()
    at = (queued_at + drain_at) / 2.0
    network = build("sendlog-prov")
    kernel, engine = network.simulator, network.engines[victim]
    link = network.link_facts()[victim][0]
    handle = kernel._handlers[kind]
    queued_before, queued_at_engine, active = [], [], []

    def handled(event, now):
        mine = event.time == at and event.address == victim
        if mine:
            queued_before.append(victim in kernel._inboxes)
        active.append(mine)
        try:
            handle(event, now)
        finally:
            active.pop()

    for name in ("insert_base", "retract_base"):
        call = getattr(engine, name)

        def checked(fact, now=0.0, _call=call):
            if active and active[-1]:
                queued_at_engine.append(victim in kernel._inboxes)
            return _call(fact, now)

        setattr(engine, name, checked)
    kernel._handlers[kind] = handled
    network.schedule(kind(time=at, address=victim, facts=(link,)))
    assert network.run().converged
    assert queued_before == [True]
    assert queued_at_engine == [False]


def crashed_run(victim: str, at: float, **options):
    network = build("sendlog-prov", **options)
    network.schedule(NodeCrash(time=at, address=victim))
    network.schedule(NodeRecover(time=at + 1.0, address=victim))
    result = network.run()
    assert result.converged
    return network, result


def test_a_crash_drops_the_queued_inbox_as_lost_messages():
    victim, queued_at, drain_at = queued_instant()
    crash_at = (queued_at + drain_at) / 2.0

    network = build("sendlog-prov")
    kernel = network.simulator
    ledger = collections.Counter()
    crash, deliver = kernel._handle_node_crash, kernel._deliver

    def counted_crash(event, at):
        if event.address == victim:
            ledger["queued"] += len(kernel._inboxes.get(victim, ()))
        crash(event, at)

    def counted_deliver(message, at):
        ledger["to a down node"] += message.destination in kernel._down_nodes
        deliver(message, at)

    kernel._handlers[NodeCrash] = counted_crash
    kernel._deliver = counted_deliver
    network.schedule(NodeCrash(time=crash_at, address=victim))
    network.schedule(NodeRecover(time=crash_at + 1.0, address=victim))
    assert network.run().converged
    assert ledger["queued"] >= 2
    lost = network.stats.summary()["messages_lost"]
    assert lost == ledger["queued"] + ledger["to a down node"]

    # Serial and inline-sharded runs drop the same messages.
    _, serial = crashed_run(victim, crash_at)
    _, sharded = crashed_run(
        victim, crash_at, backend="sharded", shards=2, shard_mode="inline"
    )
    assert serial.summary()["messages_lost"] == lost
    _assert_equivalent(serial, sharded)


# -- an anti-delta meeting a queued inbox ----------------------------------------------


def digest(network: Network) -> str:
    rows = sorted(fact.values for fact in network.all_facts("bestPathCost"))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def churn_network(topology) -> Network:
    return build(
        "sendlog-prov",
        topology=topology,
        seed=0,
        default_ttl=1e6,
        track_dependencies=True,
        rederivation=True,
    )


def test_an_anti_delta_behind_a_queued_inbox_ends_at_the_from_scratch_state():
    """``link(n3,n4)`` withdrawn at 0.1 s, while the fixpoint is still
    running: its anti-deltas reach nodes with messages queued, which run
    first.  The retraction is not one the recorded ``min``-group defect
    (ROADMAP 6(b), ``test_deletion_oracle.py``) touches: retractions that
    defect does touch end at the same wrong ``bestPathCost`` with the drain
    as without it."""
    topology = random_topology(8, seed=0)
    network = churn_network(topology)
    kernel = network.simulator
    behind_an_inbox = []
    deliver = kernel._deliver

    def spy(message, at):
        queued = isinstance(message, AntiDelta) and message.destination in kernel._inboxes
        deliver(message, at)
        if queued:
            # The queued messages ran before the anti-delta did.
            assert message.destination not in kernel._inboxes
            behind_an_inbox.append(message.destination)

    kernel._deliver = spy
    network.schedule(LinkDown(time=0.1, source="n3", destination="n4"))
    assert network.run().converged
    assert behind_an_inbox
    summary = network.stats.summary()
    assert summary["verification_failures"] == summary["facts_rejected"] == 0

    fresh = churn_network(topology.without_links([("n3", "n4")]))
    assert fresh.run().converged
    assert digest(network) == digest(fresh)
