"""Tests for the per-node engine (authentication, provenance, shipping)."""

from __future__ import annotations

import pytest

from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.tuples import Fact
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.pruning import ProvenanceSampler
from repro.security.authenticator import SignedEnvelope
from repro.security.keystore import KeyStore
from repro.security.says import SaysMode


@pytest.fixture(scope="module")
def keystore() -> KeyStore:
    store = KeyStore(key_bits=128, seed=9)
    store.create_all(["a", "b", "c", "mallory"])
    return store


def make_engine(address, compiled, config, keystore) -> NodeEngine:
    return NodeEngine(address=address, compiled=compiled, config=config, keystore=keystore)


class TestBaseProcessing:
    def test_insert_base_derives_and_ships(self, compiled_best_path, keystore):
        engine = make_engine("a", compiled_best_path, EngineConfig(), keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        # p1 derives a one-hop path locally; the localized p2a ships a mid
        # tuple to node b.
        assert any(o.destination == "b" for o in result.outgoing)
        assert engine.facts("path")
        assert engine.facts("bestPath")

    def test_report_counts_insertions_and_firings(self, compiled_best_path, keystore):
        engine = make_engine("a", compiled_best_path, EngineConfig(), keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        assert result.report.facts_inserted >= 3  # link, path, bestPathCost/bestPath
        assert result.report.rule_firings >= 3

    def test_duplicate_base_fact_is_idempotent(self, compiled_best_path, keystore):
        engine = make_engine("a", compiled_best_path, EngineConfig(), keystore)
        engine.insert_base(Fact("link", ("a", "b", 1.0)))
        second = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        assert second.report.facts_inserted == 0
        assert second.outgoing == []


class TestAuthentication:
    def test_ndlog_mode_ships_unsigned(self, compiled_best_path, keystore):
        engine = make_engine("a", compiled_best_path, EngineConfig(), keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        exported = result.outgoing[0].fact
        assert exported.signature is None
        assert result.outgoing[0].security_bytes == 0

    def test_signed_mode_ships_signed(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        engine = make_engine("a", compiled_best_path, config, keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        exported = result.outgoing[0].fact
        assert exported.asserted_by == "a"
        assert exported.signature is not None
        assert result.outgoing[0].security_bytes > 0
        assert result.report.signatures_created == len(result.outgoing)

    def test_cleartext_mode_attributes_without_signature(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.CLEARTEXT)
        engine = make_engine("a", compiled_best_path, config, keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        exported = result.outgoing[0].fact
        assert exported.asserted_by == "a"
        assert exported.signature is None

    def test_receiver_accepts_valid_signature(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        sender = make_engine("a", compiled_best_path, config, keystore)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        outgoing = sender.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
        to_b = [o for o in outgoing if o.destination == "b"][0]
        result = receiver.receive_batch((to_b.fact,), now=1.0)
        assert result.report.facts_verified == 1
        assert result.report.facts_rejected == 0
        assert result.report.facts_inserted >= 1

    def test_receiver_rejects_tampered_tuple(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        sender = make_engine("a", compiled_best_path, config, keystore)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        outgoing = sender.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
        genuine = [o for o in outgoing if o.destination == "b"][0].fact
        tampered = Fact(
            relation=genuine.relation,
            values=genuine.values[:-1] + (999.0,),
            asserted_by=genuine.asserted_by,
            signature=genuine.signature,
        )
        result = receiver.receive_batch((tampered,), now=1.0)
        assert result.report.facts_rejected == 1
        assert result.report.facts_inserted == 0

    def test_receiver_rejects_unsigned_tuple_in_signed_mode(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        result = receiver.receive_batch((Fact("link", ("a", "b", 1.0)),), now=0.0)
        assert result.report.facts_rejected == 1

    def test_receiver_rejects_spoofed_principal(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        mallory = make_engine("mallory", compiled_best_path, config, keystore)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        outgoing = mallory.insert_base(Fact("link", ("mallory", "b", 1.0))).outgoing
        fact = outgoing[0].fact
        spoofed = fact.with_metadata(asserted_by="a")  # claim it came from a
        result = receiver.receive_batch((spoofed,), now=0.0)
        assert result.report.facts_rejected == 1


SAYS_MODES = (SaysMode.NONE, SaysMode.CLEARTEXT, SaysMode.SIGNED)


def shipped(sender, fact, destination):
    """*fact* as *sender* would put it on the wire (sealed under signed says)."""
    if sender.config.says_mode.authenticates:
        return sender.authenticator.export_fact(fact, destination)
    return fact


@pytest.mark.parametrize("says_mode", SAYS_MODES, ids=lambda mode: mode.value)
class TestMalformedArity:
    """A received tuple shaped unlike its relation is a counted rejection."""

    def pair(self, compiled, says_mode, keystore):
        config = EngineConfig(
            says_mode=says_mode, provenance_mode=ProvenanceMode.CONDENSED
        )
        return (
            make_engine("b", compiled, config, keystore),
            make_engine("a", compiled, config, keystore),
        )

    def assert_rejected(self, result, says_mode):
        report = result.report
        assert report.facts_received == 1
        assert report.facts_rejected == 1
        assert report.facts_inserted == 0
        assert report.rule_firings == 0
        # The envelope was genuine: the shape is what was refused.
        assert report.verification_failures == 0
        assert report.facts_verified == (1 if says_mode.requires_signature else 0)
        assert result.outgoing == [] and result.new_facts == []

    def test_short_tuple_is_rejected_not_raised(
        self, compiled_best_path, keystore, says_mode
    ):
        sender, receiver = self.pair(compiled_best_path, says_mode, keystore)
        short = shipped(sender, Fact("bestPath", ("a",), origin="b"), "a")
        result = receiver.receive_batch([short], now=1.0)
        self.assert_rejected(result, says_mode)
        assert receiver.facts("bestPath") == ()
        assert not receiver.provenance.knows(short.key())

    def test_long_tuple_does_not_replace_the_genuine_row(
        self, compiled_best_path, keystore, says_mode
    ):
        sender, receiver = self.pair(compiled_best_path, says_mode, keystore)
        receiver.insert_base(Fact("link", ("a", "b", 1.0)))
        before = receiver.database.snapshot()
        long = shipped(
            sender, Fact("link", ("a", "b", 1.0, "x", "y"), origin="b"), "a"
        )
        result = receiver.receive_batch([long], now=1.0)
        self.assert_rejected(result, says_mode)
        assert receiver.database.snapshot() == before
        assert [fact.values for fact in receiver.facts("link")] == [("a", "b", 1.0)]

    def test_first_seen_relation_keeps_the_arity_it_was_first_seen_with(
        self, compiled_best_path, keystore, says_mode
    ):
        sender, receiver = self.pair(compiled_best_path, says_mode, keystore)
        first = shipped(sender, Fact("gossip", ("a", 1), origin="b"), "a")
        accepted = receiver.receive_batch([first], now=1.0)
        assert accepted.report.facts_inserted == 1
        assert accepted.report.facts_rejected == 0
        for values in (("a",), ("a", 1, 2)):
            changed = shipped(sender, Fact("gossip", values, origin="b"), "a")
            self.assert_rejected(receiver.receive_batch([changed], now=2.0), says_mode)
        assert [fact.values for fact in receiver.facts("gossip")] == [("a", 1)]
        # A well-formed neighbour in the same wire batch is still admitted.
        mixed = [
            shipped(sender, Fact("gossip", ("a", 1, 2), origin="b"), "a"),
            shipped(sender, Fact("gossip", ("a", 2), origin="b"), "a"),
        ]
        report = receiver.receive_batch(mixed, now=3.0).report
        assert (report.facts_received, report.facts_rejected) == (2, 1)
        assert report.facts_inserted == 1


class TestProvenanceModes:
    def test_condensed_mode_ships_signed_annotation(self, compiled_best_path, keystore):
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        engine = make_engine("a", compiled_best_path, config, keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        shipped = result.outgoing[0]
        # The annotation travels in the clear, sized as itself; the tuple's
        # one envelope is the only signature made for it.
        annotation = shipped.fact.provenance
        assert isinstance(annotation, CondensedProvenance)
        assert shipped.provenance_bytes == annotation.serialized_size() > 0
        assert isinstance(shipped.fact.signature, SignedEnvelope)
        assert result.report.signatures_created == len(result.outgoing)

    def test_unsigned_condensed_mode_ships_plain_annotation(self, compiled_best_path, keystore):
        config = EngineConfig(
            says_mode=SaysMode.NONE, provenance_mode=ProvenanceMode.CONDENSED
        )
        engine = make_engine("a", compiled_best_path, config, keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        shipped = result.outgoing[0]
        assert isinstance(shipped.fact.provenance, CondensedProvenance)
        assert shipped.provenance_bytes == shipped.fact.provenance.serialized_size()

    def test_none_mode_ships_nothing_extra(self, compiled_best_path, keystore):
        engine = make_engine("a", compiled_best_path, EngineConfig(), keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        assert all(o.provenance_bytes == 0 for o in result.outgoing)

    def test_distributed_mode_keeps_pointers_but_ships_nothing(self, compiled_best_path, keystore):
        config = EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED)
        engine = make_engine("a", compiled_best_path, config, keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        assert all(o.provenance_bytes == 0 for o in result.outgoing)
        assert engine.provenance.storage_overhead() > 0

    def test_receiver_verifies_provenance_signature(self, compiled_best_path, keystore):
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        sender = make_engine("a", compiled_best_path, config, keystore)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        outgoing = sender.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
        to_b = [o for o in outgoing if o.destination == "b"][0]
        result = receiver.receive_batch((to_b.fact,), now=0.5)
        # One verification admits the tuple and the annotation it carries.
        assert result.report.facts_verified == 1
        assert result.report.facts_rejected == 0
        assert receiver.provenance_of(to_b.fact) == to_b.fact.provenance

    def test_receiver_rejects_forged_provenance(self, compiled_best_path, keystore):
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        receiver = make_engine("b", compiled_best_path, config, keystore)
        sender = make_engine("a", compiled_best_path, config, keystore)
        fact = sender.insert_base(Fact("link", ("a", "b", 1.0))).outgoing[0].fact
        # The genuine tuple under an annotation its sender never asserted:
        # the envelope covers the annotation, so the tuple goes with it.
        forged = fact.with_metadata(provenance=CondensedProvenance.from_source("c"))
        result = receiver.receive_batch((forged,), now=0.5)
        assert result.report.facts_rejected == 1
        assert result.report.verification_failures == 1
        assert result.report.facts_inserted == 0

    def test_provenance_of_local_fact(self, compiled_best_path, keystore):
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        engine = make_engine("a", compiled_best_path, config, keystore)
        engine.insert_base(Fact("link", ("a", "b", 1.0)))
        best = engine.facts("bestPath")[0]
        annotation = engine.provenance_of(best)
        assert "a" in annotation.sources()

    def test_sampling_skips_some_provenance(self, compiled_best_path, keystore):
        config = EngineConfig(
            provenance_mode=ProvenanceMode.CONDENSED,
            sampler=ProvenanceSampler(rate=0.0),
        )
        engine = make_engine("a", compiled_best_path, config, keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        assert result.report.provenance_annotations == 0

    def test_online_and_offline_stores_populated(self, compiled_best_path, keystore):
        config = EngineConfig(
            provenance_mode=ProvenanceMode.CONDENSED,
            keep_offline_provenance=True,
        )
        engine = make_engine("a", compiled_best_path, config, keystore)
        engine.insert_base(Fact("link", ("a", "b", 1.0)))
        # Online: the live log vouches for the derived keys; offline: the
        # archive holds one entry per recorded firing.
        derived = [key for key in engine.provenance.keys() if not engine.provenance.is_base(key)]
        assert derived
        assert len(engine.offline_provenance) == sum(
            len(engine.provenance.pointers(key)) for key in derived
        )


class TestSoftState:
    def test_default_ttl_applied_to_base_facts(self, compiled_best_path, keystore):
        config = EngineConfig(default_ttl=30.0)
        engine = make_engine("a", compiled_best_path, config, keystore)
        engine.insert_base(Fact("link", ("a", "b", 1.0)), now=0.0)
        stored = engine.facts("link")[0]
        assert stored.ttl == 30.0
