"""The attacks the signed ``says`` modes must turn into rejected, counted events.

Each test drives genuine engines (or a genuine kernel) to produce signed
traffic, lets a Byzantine relay tamper with or re-deliver it, and checks that
the receiver rejects it in its counters — ``facts_rejected`` /
``verification_failures`` — without an exception leaving ``receive_batch`` or
``_deliver``, and still accepts the sender's genuine traffic afterwards.  One
seal covers one wire message: it names the signer, numbers the message's
tuples from its first number, and signs the Merkle root of their leaves.  The
engine-level tests send one-tuple messages (the paper's per-tuple format), and
each has a batched twin driving a kernel-sealed batch of three or more tuples.
A stored tuple keeps its evidence — the signature and its path to the root —
and verifies alone.  The taxonomy is "Provenance Threat Modeling" (arXiv
1703.03835); each docstring names the property its test is evidence for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sealing import deliver, receive, seal

from repro.api import Network
from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.events import FactRetraction
from repro.net.message import AntiDelta, MessageBatch
from repro.net.topology import Link, Topology
from repro.provenance.polynomial import p_var
from repro.security.authenticator import (
    Authenticator,
    fold_path,
    merkle_root,
    merkle_tree,
    verify_evidence,
)
from repro.security.keystore import KeyStore
from repro.security.rsa import sign, verify
from repro.security.says import SEQUENCE_BYTES, SaysMode

SENDLOG_PROV = EngineConfig(
    says_mode=SaysMode.SIGNED,
    provenance_mode=ProvenanceMode.CONDENSED,
    rederivation=True,
)


@pytest.fixture(scope="module")
def keystore() -> KeyStore:
    store = KeyStore(key_bits=128, seed=9)
    store.create_all(["a", "b", "c"])
    return store


def engines(compiled, keystore, config=SENDLOG_PROV):
    return [NodeEngine(name, compiled, config, keystore) for name in "abc"]


def two_tuples_from_a_to_b(a: NodeEngine, b: NodeEngine):
    """Two genuine exports ``a`` makes for ``b`` whose annotations and base
    supports differ: the one-hop ``mid`` tuple (``<a>``) and a two-hop path
    through ``a`` that also rests on ``b``'s own link (``<a*b>``)."""
    outgoing = a.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
    outgoing += a.insert_base(Fact("link", ("a", "c", 2.0))).outgoing
    from_b = b.insert_base(Fact("link", ("b", "a", 1.0))).outgoing
    outgoing += deliver(b, a, [o for o in from_b if o.destination == "a"], now=1.0).outgoing
    first, *_, second = [o.fact for o in outgoing if o.destination == "b"]
    assert str(first.provenance) != str(second.provenance)
    assert str(first.support) != str(second.support)
    return first, second


def assert_rejected(result, count: int) -> None:
    assert result.report.facts_rejected == count
    assert result.report.verification_failures == count
    # A stale envelope's signature does verify; it is still not counted as
    # verified — ``facts_verified`` counts only envelopes that were accepted.
    assert result.report.facts_verified == 0
    assert result.report.facts_inserted == 0
    assert not result.outgoing


def test_spliced_annotation_or_support_is_rejected(compiled_best_path, keystore):
    """Integrity: provenance is only worth trusting if the annotation (and the
    base support a later retraction is decided on) is the one its sender
    asserted *for this tuple*.  Swapping them between two tuples the same
    principal genuinely sealed must invalidate both."""
    a, b, _ = engines(compiled_best_path, keystore)
    first, second = two_tuples_from_a_to_b(a, b)
    # Two one-tuple messages, each under its own signature.
    sealed = [(fact, seal(a, (fact,), "b")) for fact in (first, second)]

    refused = 0
    for (fact, signature), (other, _) in zip(sealed, reversed(sealed)):
        for spliced in (
            replace(fact, provenance=other.provenance),
            replace(fact, support=other.support),
        ):
            result = receive(b, (spliced,), signature, 2.0)
            assert_rejected(result, 1)
            refused += result.report.verification_failures
    # One refused envelope per spliced tuple: four checks failed, not two.
    assert refused == 4

    # Nothing spliced was recorded, and the rejections poisoned nothing:
    # the genuine pair is still admitted, with what its sender asserted.
    assert not b.provenance.knows(first.key())
    results = [receive(b, (fact,), signature, 3.0) for fact, signature in sealed]
    assert [result.report.facts_verified for result in results] == [1, 1]
    assert [result.report.facts_rejected for result in results] == [0, 0]
    assert b.provenance.annotation(first.key()) == first.provenance


def cheaper(fact: Fact, rebuilt: bool) -> Fact:
    """*fact* as a relay alters it in flight: its last value (a cost) one
    lower, copied with ``dataclasses.replace`` or built anew as a ``Fact``."""
    values = fact.values[:-1] + (fact.values[-1] - 1.0,)
    if not rebuilt:
        return replace(fact, values=values)
    return Fact(
        fact.relation,
        values,
        fact.timestamp,
        fact.ttl,
        fact.asserted_by,
        fact.signature,
        fact.provenance,
        fact.origin,
        fact.support,
    )


@pytest.mark.parametrize("rebuilt", [False, True], ids=["replaced", "rebuilt"])
def test_a_tuple_whose_values_a_relay_changed_is_rejected(
    compiled_best_path, keystore, rebuilt
):
    """Integrity in transit: a seal covers the values its tuple held when it
    was sealed, and the receiver verifies the values that arrive — not a
    rendering made before a relay changed them.  A tuple whose cost a relay
    lowered, by copying it or by building a new one, is refused; the
    genuine tuple is still admitted afterwards."""
    a, b, _ = engines(compiled_best_path, keystore)
    first, _ = two_tuples_from_a_to_b(a, b)
    signature = seal(a, (first,), "b")
    assert_rejected(receive(b, (cheaper(first, rebuilt),), signature, 2.0), 1)
    genuine = receive(b, (first,), signature, 3.0).report
    assert (genuine.facts_verified, genuine.facts_rejected) == (1, 0)
    assert b.database.by_name[first.relation].get_by_values(first.values) is not None


def test_misdelivered_or_replayed_tuple_is_rejected(compiled_best_path, keystore):
    """Non-repudiation: a seal is evidence that its sender said *this*, to
    *this* node, as its n-th export — so it must be worthless anywhere else
    or a second time.  A tuple sealed for ``b`` is refused at ``c``; the
    identical message is refused at ``b`` as stale; ``a``'s next genuine
    export is accepted — also after ``a`` crashed and recovered (the export
    counter is kept beside the key, not in the state a crash wipes, so a
    re-shipped tuple is re-sealed under a fresh number)."""
    a, b, c = engines(compiled_best_path, keystore)
    first, second = two_tuples_from_a_to_b(a, b)
    to_b = {fact.key(): seal(a, (fact,), "b") for fact in (first, second)}

    def again_at_b(fact, now):
        return receive(b, (fact,), to_b[fact.key()], now)

    assert_rejected(receive(c, (first,), to_b[first.key()], 2.0), 1)

    assert again_at_b(first, 2.0).report.facts_verified == 1
    assert_rejected(again_at_b(first, 2.5), 1)
    assert again_at_b(second, 3.0).report.facts_rejected == 0
    for fact in (first, second):
        assert_rejected(again_at_b(fact, 3.5), 1)

    # Crash + recover: the re-derived tuple travels under a number above
    # everything the old incarnation used.
    a.reset_state()
    again = [
        o.fact
        for o in a.insert_base(Fact("link", ("a", "b", 1.0)), now=4.0).outgoing
        if o.destination == "b"
    ]
    assert [fact.key() for fact in again] == [first.key()]
    again_sealed = seal(a, again, "b")
    assert again_sealed.first > to_b[second.key()].first
    assert receive(b, again, again_sealed, 4.5).report.facts_rejected == 0
    assert_rejected(again_at_b(first, 5.0), 1)


def test_an_envelope_naming_another_principal_is_rejected(compiled_best_path, keystore):
    """Non-repudiation: one seal attributes a whole message to the principal
    it names, so it must name the signer.  ``c``'s message whose seal a relay
    rewrote to name ``a`` is refused whole, and so is one the relay ``c``
    signed itself but attributed to ``a``.  A tuple's own claim to a
    principal is never read: ``c``'s genuine seal attributes every tuple of
    its message to ``c``."""
    a, b, c = engines(compiled_best_path, keystore)
    own = [
        o.fact
        for o in c.insert_base(Fact("link", ("c", "b", 1.0))).outgoing
        if o.destination == "b"
    ]
    sealed = seal(c, own, "b")
    assert sealed.principal == "c"
    renamed = sealed._replace(principal="a")
    assert_rejected(receive(b, own, renamed, 1.0), len(own))
    mine = [replace(fact, provenance=p_var("a")) for fact in own]
    impersonated = seal(c, mine, "b")._replace(principal="a")
    assert_rejected(receive(b, mine, impersonated, 1.5), len(mine))

    claiming = [replace(fact, asserted_by="a") for fact in own]
    result = receive(b, claiming, sealed, 2.0)
    assert result.report.facts_rejected == 0
    assert result.report.facts_verified == len(own)
    stored = {fact.key(): fact for fact in b.facts(own[0].relation)}
    assert stored[own[0].key()].asserted_by == "c"


# -- anti-deltas ------------------------------------------------------------------

#: ``a`` reaches ``c`` directly and through ``b``: retracting link(a,c) makes
#: ``a`` chase the tuples it exported with anti-deltas.
TRIANGLE = Topology(
    nodes=("a", "b", "c"),
    links=tuple(
        Link(source=s, destination=d, cost=cost)
        for s, d, cost in (
            ("a", "b", 1.0),
            ("b", "a", 1.0),
            ("b", "c", 1.0),
            ("c", "b", 1.0),
            ("a", "c", 5.0),
            ("c", "a", 5.0),
        )
    ),
)


def converged_triangle(provenance: str) -> Network:
    network = Network.build(
        topology=TRIANGLE,
        program="best-path",
        provenance=provenance,
        rederivation=True,
        track_dependencies=True,
        default_ttl=1e6,
        key_bits=128,
    )
    assert network.run().converged
    return network


def stored(network: Network):
    return {
        address: engine.database.snapshot()
        for address, engine in network.engines.items()
    }


@pytest.mark.parametrize("provenance", ["sendlog", "sendlog-prov"])
def test_forged_or_altered_anti_delta_prunes_nothing(provenance):
    """Availability: an anti-delta deletes derived state at its receiver, so
    under the "secure" presets only the principal that exported that state
    may send one.  A retraction claiming ``source="a"`` without ``a``'s key,
    and a genuine one whose keys were altered after signing, delete nothing
    and are counted; the genuine one then works, once."""
    network = converged_triangle(provenance)
    kernel = network.simulator
    before = stored(network)
    retracted_before = network.stats.summary()["facts_retracted"]
    link_ab = ("link", ("a", "b", 1.0))
    link_ac = ("link", ("a", "c", 5.0))
    now = network.current_time() + 1.0

    def failures() -> int:
        # Envelopes refused anywhere in the run, as its statistics count them.
        return network.stats.summary()["verification_failures"]

    # Forged outright: mallory has no key of a's, so no signature at all, or
    # one made with a key she does hold (c's).
    forged = AntiDelta(source="a", destination="b", keys=(link_ab,), sequence=900)
    kernel._deliver(forged, now)
    assert stored(network) == before
    assert failures() == 1
    kernel._deliver(
        replace(
            forged,
            sequence=901,
            signature=network.engines["c"].authenticator.seal_anti_delta(
                forged.keys, "b", 901
            ),
        ),
        now,
    )
    assert failures() == 2
    assert network.run_until_idle()
    assert stored(network) == before
    assert network.stats.summary()["facts_retracted"] == retracted_before

    # A genuine anti-delta, captured off the wire instead of delivered.
    captured = []
    kernel._schedule_delivery = lambda at, message: captured.append(message)
    kernel.schedule(
        FactRetraction(
            time=now + 1.0,
            address="a",
            facts=(Fact("link", ("a", "c", 5.0)),),
        )
    )
    assert network.run_until_idle()
    del kernel._schedule_delivery
    genuine = [m for m in captured if isinstance(m, AntiDelta) and m.destination == "c"]
    assert genuine and genuine[0].keys == (link_ac,)
    assert genuine[0].security_bytes > 0
    at_c_before = stored(network)["c"]

    # Keys altered after signing: retract a's other link at c instead.
    rejected = failures()
    kernel._deliver(replace(genuine[0], keys=(link_ab,)), now + 2.0)
    assert network.run_until_idle()
    assert failures() == rejected + 1
    assert stored(network)["c"] == at_c_before

    # The untouched message does what a said — and only once.
    kernel._deliver(genuine[0], now + 3.0)
    assert network.run_until_idle()
    assert failures() == rejected + 1
    assert stored(network)["c"] != at_c_before
    kernel._deliver(genuine[0], now + 4.0)
    assert failures() == rejected + 2


# -- batched twins: kernel-sealed batches of three or more tuples -----------------


def held_batches():
    """A ``sendlog-prov`` run (N=5, seed 0) whose kernel seals every message
    but holds back, undelivered, each batch of three or more tuples — and,
    so that what is held stays fresh, every later batch on the same link.
    Returns the network and the held batches of three or more tuples, those
    of the first sender that sealed two or more of them first: the attacks
    that swap signatures, misdeliver or replay need two batches of one
    sender, and a busy node runs its queued messages as one round, so a
    sender seals fewer batches than there are messages it received."""
    network = Network.build(
        topology=5,
        program="best-path",
        provenance="sendlog-prov",
        seed=0,
        rederivation=True,
        track_dependencies=True,
        default_ttl=1e6,
        key_bits=128,
    )
    kernel = network.simulator
    held, frozen = [], set()
    ship = kernel._schedule_delivery

    def hold(at, message):
        link = (message.source, message.destination)
        if isinstance(message, MessageBatch) and (
            link in frozen or message.tuple_count >= 3
        ):
            frozen.add(link)
            held.append(message)
        else:
            ship(at, message)

    kernel._schedule_delivery = hold
    assert network.run().converged
    del kernel._schedule_delivery
    big = [batch for batch in held if batch.tuple_count >= 3]
    assert len(big) >= 2 and all(batch.seal for batch in held)
    sealed = Counter(batch.source for batch in big)
    source = next(batch.source for batch in big if sealed[batch.source] >= 2)
    big.sort(key=lambda batch: batch.source != source)  # stable
    return network, big


class Ledger:
    """The run's security counters at one node, before and after a delivery."""

    def __init__(self, network: Network, address: str) -> None:
        self.network, self.address = network, address
        self.before = self.read()

    def read(self):
        node = self.network.stats.node(self.address)
        return (
            node.facts_rejected,
            node.verification_failures,
            node.facts_verified,
            node.facts_stored,
        )

    def delta(self):
        return tuple(now - then for now, then in zip(self.read(), self.before))


def deliver_batch(network: Network, batch: MessageBatch):
    """Hand *batch* to its destination through the kernel; the ledger moves."""
    ledger = Ledger(network, batch.destination)
    network.simulator._deliver(batch, network.current_time() + 1.0)
    assert network.run_until_idle()
    return ledger.delta()


def refused(batch: MessageBatch):
    """Each tuple one rejection and one failed verification; nothing admitted."""
    return (batch.tuple_count, batch.tuple_count, 0, 0)


def with_items(batch: MessageBatch, items) -> MessageBatch:
    return replace(batch, items=tuple(items))


def first_pair_differing(batch: MessageBatch, field: str):
    """Indexes of the first two tuples of *batch* whose *field* differs."""
    items = batch.items
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if str(getattr(items[i].fact, field)) != str(getattr(items[j].fact, field)):
                return i, j
    return None


#: The item field that carries a tuple field's wire form.
WIRE_FORM = {"provenance": "mask", "support": "code"}


def spliced(batch: MessageBatch, field: str) -> MessageBatch:
    """*batch* with *field* swapped between its first two tuples that differ:
    each item carries the other's explicitly, its own wire form dropped."""
    i, j = first_pair_differing(batch, field)
    items = list(batch.items)
    first, second = items[i], items[j]
    dropped = {WIRE_FORM[field]: None}
    items[i] = replace(
        first, fact=replace(first.fact, **{field: getattr(second.fact, field)}), **dropped
    )
    items[j] = replace(
        second, fact=replace(second.fact, **{field: getattr(first.fact, field)}), **dropped
    )
    return with_items(batch, items)


def assert_genuine_batches_still_pass(network: Network, batches) -> None:
    """The sender's genuine batches, delivered in the order they were sealed,
    are admitted whole after every attack."""
    for batch in sorted(batches, key=lambda batch: (batch.source, batch.sequence)):
        rejected, failures, verified, _ = deliver_batch(network, batch)
        assert (rejected, failures, verified) == (0, 0, batch.tuple_count)


def test_batched_splice_drop_and_reorder_are_rejected_per_tuple():
    """Integrity, batched: the root binds every leaf and its position, so
    splicing annotations or supports between two tuples of one batch,
    dropping one tuple or swapping two refuses every tuple the relay
    delivers — and the untouched batch is still admitted afterwards."""
    network, held = held_batches()
    batch = next(
        batch
        for batch in held
        if first_pair_differing(batch, "provenance")
        and first_pair_differing(batch, "support")
    )
    attacks = [
        spliced(batch, "provenance"),
        spliced(batch, "support"),
        with_items(batch, batch.items[:1] + batch.items[2:]),
        with_items(batch, (batch.items[1], batch.items[0]) + batch.items[2:]),
    ]
    for tampered in attacks:
        assert tampered.seal == batch.seal
        assert deliver_batch(network, tampered) == refused(tampered)
    assert_genuine_batches_still_pass(network, [batch])


@pytest.mark.parametrize("rebuilt", [False, True], ids=["replaced", "rebuilt"])
def test_a_batched_tuple_whose_values_a_relay_changed_is_rejected_per_tuple(rebuilt):
    """Integrity in transit, batched: one tuple of a sealed batch whose cost
    a relay lowered — copied or built anew — refuses the batch tuple by
    tuple, and the untouched batch is still admitted afterwards."""
    network, held = held_batches()
    batch = held[0]
    item = batch.items[0]
    tampered = with_items(
        batch, (replace(item, fact=cheaper(item.fact, rebuilt)),) + batch.items[1:]
    )
    assert deliver_batch(network, tampered) == refused(tampered)
    assert_genuine_batches_still_pass(network, [batch])


def test_batched_swapped_signatures_and_misdelivery_are_rejected_per_tuple():
    """Non-repudiation, batched: a signature attributes exactly one message to
    one destination.  Two genuine batches of one sender with their
    signatures swapped, and a batch sealed for one node delivered at
    another, are refused tuple by tuple."""
    network, held = held_batches()
    source = held[0].source
    one, other = [batch for batch in held if batch.source == source][:2]
    assert one.destination != other.destination
    for batch, signature in ((one, other.seal.signature), (other, one.seal.signature)):
        tampered = replace(batch, seal=batch.seal._replace(signature=signature))
        assert deliver_batch(network, tampered) == refused(tampered)
    misdelivered = replace(one, destination=other.destination)
    assert deliver_batch(network, misdelivered) == refused(misdelivered)
    assert_genuine_batches_still_pass(network, [one, other])


def test_a_replayed_batch_is_rejected_per_tuple():
    """Non-repudiation, batched: a whole batch delivered again is stale, tuple
    by tuple; the sender's next genuine batch to the same node still passes."""
    network, held = held_batches()
    first = held[0]
    later = [
        batch
        for batch in held
        if batch.source == first.source and batch.sequence > first.sequence
    ]
    assert later
    assert_genuine_batches_still_pass(network, [first])
    assert deliver_batch(network, first) == refused(first)
    assert_genuine_batches_still_pass(network, later)


def test_a_replayed_batch_renumbered_is_rejected_per_tuple():
    """Non-repudiation, batched: each tuple's number is in its leaf, so a
    relay cannot make a replay look fresh by renumbering it.  A delivered
    batch replayed with its first number rewound, or moved past everything
    accepted, is refused tuple by tuple; the sender's later batches pass."""
    network, held = held_batches()
    first = held[0]
    later = [
        batch
        for batch in held
        if batch.source == first.source and batch.sequence > first.sequence
    ]
    assert_genuine_batches_still_pass(network, [first])
    k = first.tuple_count
    for renumbered in (first.seal.first - 1, first.seal.first - k, first.seal.first + 10_000):
        replayed = replace(first, seal=first.seal._replace(first=renumbered))
        assert deliver_batch(network, replayed) == refused(replayed)
    assert_genuine_batches_still_pass(network, later)


def test_a_tuple_moved_between_batches_is_rejected_per_tuple():
    """Integrity, batched: a seal binds exactly its own tuples.  One tuple
    moved from one genuine batch into another of the same sender refuses
    both batches whole — the one it left and the one it joined — and the
    untouched batches are still admitted afterwards."""
    network, held = held_batches()
    source = held[0].source
    one, other = [batch for batch in held if batch.source == source][:2]
    moved = one.items[-1]
    left = with_items(one, one.items[:-1])
    joined = with_items(other, other.items + (replace(moved, destination=other.destination),))
    for tampered in (left, joined):
        assert deliver_batch(network, tampered) == refused(tampered)
    assert_genuine_batches_still_pass(network, [one, other])


def test_a_batch_naming_another_principal_is_rejected_per_tuple():
    """Non-repudiation, batched: a seal that names a principal other than
    its signer attributes nothing — whether a relay renamed a genuine seal
    or sealed the sender's tuples under its own key in the sender's name."""
    network, held = held_batches()
    batch = held[0]
    relay = next(
        address for address in network.engines if address not in (batch.source, batch.destination)
    )
    renamed = replace(batch, seal=batch.seal._replace(principal=relay))
    forged = network.engines[relay].authenticator.seal_batch(
        [item.fact for item in batch.items], batch.destination
    )
    impersonated = replace(batch, seal=forged._replace(principal=batch.source))
    for tampered in (renamed, impersonated):
        assert deliver_batch(network, tampered) == refused(tampered)
    assert_genuine_batches_still_pass(network, [batch])


def test_a_stored_tuple_verifies_alone_from_its_evidence():
    """Accountability: long after its batch is gone, a stored tuple proves
    what its principal said to its holder, from the tuple alone — and stops
    proving it if any field of its leaf, or any hash of its path, changes."""
    network, held = held_batches()
    batch = held[0]
    assert_genuine_batches_still_pass(network, [batch])
    holder = network.engines[batch.destination]
    keystore = network.simulator.keystore
    shipped = {item.fact.key() for item in batch.items}
    stored = [
        fact
        for relation in ("path", "link")
        for fact in holder.facts(relation)
        if fact.key() in shipped and fact.signature and fact.signature.path
    ]
    assert stored
    for fact in stored:
        envelope = fact.signature
        assert envelope.signature == batch.seal.signature
        public_key = keystore.public_key(fact.asserted_by)
        assert verify_evidence(fact, batch.destination, public_key)

        side, sibling = envelope.path[0]
        rest = envelope.path[1:]
        flipped = bytes([sibling[0] ^ 1]) + sibling[1:]
        forgeries = {
            "path hash": envelope._replace(path=((side, flipped),) + rest),
            "path side": envelope._replace(path=((not side, sibling),) + rest),
            "sequence": envelope._replace(sequence=envelope.sequence + 1),
            "signature": envelope._replace(signature=envelope.signature[::-1]),
        }
        forgeries = {
            name: replace(fact, signature=forged) for name, forged in forgeries.items()
        }
        forgeries.update(
            principal=replace(fact, asserted_by=batch.destination),
            annotation=replace(fact, provenance=p_var("mallory")),
            support=replace(fact, support=p_var("mallory")),
            payload=Fact(
                fact.relation,
                fact.values[:-1] + (fact.values[-1] + 1,),
                asserted_by=fact.asserted_by,
                signature=envelope,
                provenance=fact.provenance,
                support=fact.support,
            ),
        )
        for name, forged in forgeries.items():
            assert not verify_evidence(forged, batch.destination, public_key), name
        # Evidence binds its holder too.
        assert not verify_evidence(fact, batch.source, public_key)


#: One small key for the Merkle property: it signs roots, never tuples.
MERKLE_KEY = KeyStore(key_bits=128, seed=29).create_keypair("signer")


@settings(max_examples=60, deadline=None)
@given(
    leaves=st.lists(st.binary(min_size=1, max_size=48), min_size=1, max_size=17),
    data=st.data(),
)
def test_every_leaf_folds_to_the_signed_root_and_a_changed_byte_breaks_it(leaves, data):
    """The Merkle tree over any batch size from 1 to 17: the root the sender
    builds alone is the receiver's, each leaf's path, at most ceil(log2 n)
    steps, folds it to the root the one signature covers; changing any one byte of any leaf breaks both its fold and the
    root of the batch."""
    root, paths = merkle_tree(leaves)
    # The sender builds the root alone, the same tree without the paths.
    assert merkle_root(leaves) == root
    signature = sign(root, MERKLE_KEY)
    assert len(paths) == len(leaves)
    for leaf, path in zip(leaves, paths):
        assert len(path) <= (len(leaves) - 1).bit_length()
        assert verify(fold_path(leaf, path), signature, MERKLE_KEY.public_key)

    index = data.draw(st.integers(0, len(leaves) - 1), label="leaf")
    position = data.draw(st.integers(0, len(leaves[index]) - 1), label="byte")
    mask = data.draw(st.integers(1, 255), label="xor")
    changed = bytearray(leaves[index])
    changed[position] ^= mask
    changed = bytes(changed)
    assert not verify(fold_path(changed, paths[index]), signature, MERKLE_KEY.public_key)
    assert merkle_tree(leaves[:index] + [changed] + leaves[index + 1 :])[0] != root


# -- the envelope: one principal and one first number per message -----------------


def test_a_signed_message_pays_its_envelope_once_and_numbers_its_tuples_in_order(
    monkeypatch,
):
    """Every signed message of the N=8 ``sendlog-prov`` fixpoint pays for its
    seal exactly once — the signature, the principal and the 8-byte first
    number — and nothing per tuple.  Each principal numbers its tuples
    without gaps across its messages, and a receiver admits tuple *i* of a
    k-tuple message as number ``first + i``: ``first … first + k - 1``."""
    sent, opened, attributed = [], [], {}
    import_batch, admit = Authenticator.import_batch, NodeEngine._admit

    def recorded_import(authenticator, carried, sealed=None):
        envelopes = import_batch(authenticator, carried, sealed)
        opened.append((sealed, envelopes))
        return envelopes

    def recorded_admit(engine, fact, verified, result):
        if verified is not None:
            attributed[id(verified.signature)] = verified.asserted_by
        return admit(engine, fact, verified, result)

    monkeypatch.setattr(Authenticator, "import_batch", recorded_import)
    monkeypatch.setattr(NodeEngine, "_admit", recorded_admit)
    network = Network.build(
        topology=8, program="best-path", provenance="sendlog-prov", seed=0, key_bits=128
    )
    kernel = network.simulator
    schedule = kernel._schedule_delivery

    def recorded_schedule(at, message):
        sent.append(message)
        schedule(at, message)

    kernel._schedule_delivery = recorded_schedule
    assert network.run().converged
    del kernel._schedule_delivery

    signed = [message for message in sent if isinstance(message, MessageBatch)]
    assert signed and all(message.seal is not None for message in signed)
    for message in signed:
        principal, _, signature = message.seal
        assert principal == message.source
        assert message.security_bytes == len(signature) + len(principal) + SEQUENCE_BYTES
    assert sum(message.security_bytes for message in signed) == (
        network.stats.summary()["security_bytes"]
    )

    numbers = {}
    for message in sorted(signed, key=lambda message: message.seal.first):
        numbers.setdefault(message.source, []).extend(
            range(message.seal.first, message.seal.first + message.tuple_count)
        )
    for principal, sequence in numbers.items():
        assert sequence == list(range(1, len(sequence) + 1)), principal

    assert max(len(envelopes) for _, envelopes in opened) >= 3
    for sealed, envelopes in opened:
        assert all(envelope is not None for envelope in envelopes)
        assert [envelope.sequence for envelope in envelopes] == list(
            range(sealed.first, sealed.first + len(envelopes))
        )
        # Each tuple is stored attributed to the seal's principal, with
        # exactly the envelope its message gave it.
        assert {attributed[id(envelope)] for envelope in envelopes} == {sealed.principal}
