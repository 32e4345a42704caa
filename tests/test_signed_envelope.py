"""Three attacks the signed ``says`` modes must turn into rejected, counted events.

Each test drives genuine engines (and, for anti-deltas, a genuine kernel) to
produce signed traffic, lets a Byzantine relay tamper with or re-deliver it,
and checks that the receiver rejects it in its counters — ``facts_rejected`` /
``verification_failures`` — without an exception leaving ``receive_batch`` or
``_deliver``, and still accepts the sender's genuine traffic afterwards.  The
taxonomy is "Provenance Threat Modeling" (arXiv 1703.03835); each docstring
names the property its test is evidence for.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Network
from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.events import FactRetraction
from repro.net.message import AntiDelta
from repro.net.topology import Link, Topology
from repro.security.keystore import KeyStore
from repro.security.says import SaysMode

SENDLOG_PROV = EngineConfig(
    says_mode=SaysMode.SIGNED,
    provenance_mode=ProvenanceMode.CONDENSED,
    rederivation=True,
    refresh_propagation=5.0,
)


@pytest.fixture(scope="module")
def keystore() -> KeyStore:
    store = KeyStore(key_bits=128, seed=9)
    store.create_all(["a", "b", "c"])
    return store


def engines(compiled, keystore, config=SENDLOG_PROV):
    return [NodeEngine(name, compiled, config, keystore) for name in "abc"]


def two_tuples_from_a_to_b(a: NodeEngine, b: NodeEngine):
    """Two genuine exports ``a`` signs for ``b`` whose annotations and base
    supports differ: the one-hop ``mid`` tuple (``<a>``) and a two-hop path
    through ``a`` that also rests on ``b``'s own link (``<a*b>``)."""
    outgoing = a.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
    outgoing += a.insert_base(Fact("link", ("a", "c", 2.0))).outgoing
    from_b = b.insert_base(Fact("link", ("b", "a", 1.0))).outgoing
    outgoing += a.receive_batch(
        [o.fact for o in from_b if o.destination == "a"], now=1.0
    ).outgoing
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
    principal genuinely signed must invalidate both."""
    a, b, _ = engines(compiled_best_path, keystore)
    first, second = two_tuples_from_a_to_b(a, b)

    swapped_annotations = (
        first.with_metadata(provenance=second.provenance),
        second.with_metadata(provenance=first.provenance),
    )
    spliced_annotations = b.receive_batch(swapped_annotations, now=2.0)
    assert_rejected(spliced_annotations, 2)
    swapped_supports = (
        first.with_metadata(support=second.support),
        second.with_metadata(support=first.support),
    )
    spliced_supports = b.receive_batch(swapped_supports, now=2.0)
    assert_rejected(spliced_supports, 2)
    # One refused envelope per spliced tuple: four checks failed, not two.
    assert (
        spliced_annotations.report.verification_failures
        + spliced_supports.report.verification_failures
        == 4
    )

    # Nothing spliced was recorded, and the rejections poisoned nothing:
    # the genuine pair is still admitted, with what its sender asserted.
    assert not b.provenance.knows(first.key())
    result = b.receive_batch((first, second), now=3.0)
    assert result.report.facts_verified == 2
    assert result.report.facts_rejected == 0
    assert b.provenance.annotation(first.key()) == first.provenance


def test_misdelivered_or_replayed_tuple_is_rejected(compiled_best_path, keystore):
    """Non-repudiation: an envelope is evidence that its sender said *this*,
    to *this* node, as its n-th export — so it must be worthless anywhere
    else or a second time.  A tuple signed for ``b`` is refused at ``c``; the
    identical tuple is refused at ``b`` as stale; ``a``'s next genuine export
    is accepted — also after ``a`` crashed and recovered (the export counter
    is kept beside the key, not in the state a crash wipes) and across a
    refresh wave (re-shipped tuples are re-signed under fresh numbers)."""
    a, b, c = engines(compiled_best_path, keystore)
    first, second = two_tuples_from_a_to_b(a, b)

    assert_rejected(c.receive_batch((first,), now=2.0), 1)

    assert b.receive_batch((first,), now=2.0).report.facts_verified == 1
    assert_rejected(b.receive_batch((first,), now=2.5), 1)
    assert b.receive_batch((second,), now=3.0).report.facts_rejected == 0
    assert_rejected(b.receive_batch((first, second), now=3.5), 2)

    # Crash + recover: the re-derived tuple travels under a number above
    # everything the old incarnation used.
    a.reset_state()
    again = [
        o.fact
        for o in a.insert_base(Fact("link", ("a", "b", 1.0)), now=4.0).outgoing
        if o.destination == "b"
    ]
    assert [fact.key() for fact in again] == [first.key()]
    assert again[0].signature.sequence > second.signature.sequence
    assert b.receive_batch(again, now=4.5).report.facts_rejected == 0
    assert_rejected(b.receive_batch((first,), now=5.0), 1)

    # A refresh wave re-ships the same tuple, freshly signed; the copy the
    # relay kept from before the wave stays dead.
    wave = [
        o.fact
        for o in a.refresh_batch([Fact("link", ("a", "b", 1.0))], now=20.0).outgoing
        if o.destination == "b"
    ]
    assert [fact.key() for fact in wave] == [first.key()]
    refreshed = b.receive_batch(wave, now=20.5)
    assert refreshed.report.facts_verified == 1
    assert refreshed.report.facts_rejected == 0
    assert_rejected(b.receive_batch(again, now=21.0), 1)


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
