"""Tests for the per-node engine (authentication, provenance, shipping)."""

from __future__ import annotations

import collections

import pytest
from sealing import deliver, seal

from repro.api import Network
from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.events import FactRetraction
from repro.net.topology import random_topology
from repro.security import authenticator
from repro.provenance.polynomial import from_position_mask, p_var
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
        # Numbered, not signed: the kernel seals the wire message carrying it.
        assert exported.signature == SignedEnvelope(exported.signature.sequence)
        assert result.outgoing[0].security_bytes > 0
        assert result.report.signatures_created == 0

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
        result = deliver(sender, receiver, (to_b.fact,), now=1.0)
        assert result.report.facts_verified == 1
        assert result.report.facts_rejected == 0
        assert result.report.facts_inserted >= 1

    def test_receiver_rejects_tampered_tuple(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        sender = make_engine("a", compiled_best_path, config, keystore)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        outgoing = sender.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
        genuine = [o for o in outgoing if o.destination == "b"][0].fact
        signature = seal(sender, (genuine,), "b")
        tampered = Fact(
            relation=genuine.relation,
            values=genuine.values[:-1] + (999.0,),
            asserted_by=genuine.asserted_by,
            signature=genuine.signature,
        )
        result = receiver.receive_batch([((tampered,), signature)], 1.0)
        assert result.report.facts_rejected == 1
        assert result.report.facts_inserted == 0

    def test_receiver_rejects_unsigned_tuple_in_signed_mode(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        result = receiver.receive_batch([((Fact("link", ("a", "b", 1.0)),), None)], now=0.0)
        assert result.report.facts_rejected == 1

    def test_receiver_rejects_spoofed_principal(self, compiled_best_path, keystore):
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        mallory = make_engine("mallory", compiled_best_path, config, keystore)
        receiver = make_engine("b", compiled_best_path, config, keystore)
        outgoing = mallory.insert_base(Fact("link", ("mallory", "b", 1.0))).outgoing
        fact = outgoing[0].fact
        signature = seal(mallory, (fact,), "b")
        spoofed = fact.with_metadata(asserted_by="a")  # claim it came from a
        result = receiver.receive_batch([((spoofed,), signature)], 0.0)
        assert result.report.facts_rejected == 1


class TestSigningBudget:
    """Exact signing work: the engine numbers exports and signs nothing; the
    kernel seals each wire message once — a batch, a one-tuple message or an
    anti-delta — and each receiver checks each signature once."""

    @pytest.mark.parametrize("batching", [True, False], ids=["batched", "per-tuple"])
    def test_one_sign_and_one_verify_per_signed_message(self, monkeypatch, batching):
        calls = collections.Counter()
        for name in ("sign", "verify"):
            call = getattr(authenticator, name)

            def counted(*args, _name=name, _call=call):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(authenticator, name, counted)
        topology = random_topology(8, seed=1)
        network = Network.build(
            topology=topology,
            program="best-path",
            provenance="sendlog-prov",
            rederivation=True,
            track_dependencies=True,
            default_ttl=1e6,
            key_bits=128,
            batching=batching,
        )
        assert network.run().converged
        link = topology.redundant_links()[0]
        network.schedule(
            FactRetraction(
                time=network.current_time() + 1.0,
                address=link.source,
                facts=(Fact("link", (link.source, link.destination, link.cost)),),
            )
        )
        assert network.run_until_idle()

        summary = network.stats.summary()
        anti_deltas = summary["anti_delta_messages"]
        data = summary["total_messages"] - anti_deltas
        assert anti_deltas > 0
        assert data == (summary["batches_sent"] if batching else summary["tuples_sent"])
        assert calls["sign"] == summary["signatures_created"] == data + anti_deltas
        received = sum(node.messages_received for node in network.stats.nodes.values())
        assert calls["verify"] == summary["signatures_verified"] == received
        assert summary["verification_failures"] == summary["facts_rejected"] == 0


SAYS_MODES = (SaysMode.NONE, SaysMode.CLEARTEXT, SaysMode.SIGNED)


def shipped(sender, fact):
    """*fact* as *sender* would export it (attributed, and numbered under
    signed says; :func:`sealing.deliver` seals its message)."""
    if sender.config.says_mode.authenticates:
        return sender.authenticator.export_fact(fact)
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
        short = shipped(sender, Fact("bestPath", ("a",), origin="b"))
        result = deliver(sender, receiver, [short], now=1.0)
        self.assert_rejected(result, says_mode)
        assert receiver.facts("bestPath") == ()
        assert not receiver.provenance.knows(short.key())

    def test_long_tuple_does_not_replace_the_genuine_row(
        self, compiled_best_path, keystore, says_mode
    ):
        sender, receiver = self.pair(compiled_best_path, says_mode, keystore)
        receiver.insert_base(Fact("link", ("a", "b", 1.0)))
        before = receiver.database.snapshot()
        long = shipped(sender, Fact("link", ("a", "b", 1.0, "x", "y"), origin="b"))
        result = deliver(sender, receiver, [long], now=1.0)
        self.assert_rejected(result, says_mode)
        assert receiver.database.snapshot() == before
        assert [fact.values for fact in receiver.facts("link")] == [("a", "b", 1.0)]

    def test_first_seen_relation_keeps_the_arity_it_was_first_seen_with(
        self, compiled_best_path, keystore, says_mode
    ):
        sender, receiver = self.pair(compiled_best_path, says_mode, keystore)
        first = shipped(sender, Fact("gossip", ("a", 1), origin="b"))
        accepted = deliver(sender, receiver, [first], now=1.0)
        assert accepted.report.facts_inserted == 1
        assert accepted.report.facts_rejected == 0
        for values in (("a",), ("a", 1, 2)):
            changed = shipped(sender, Fact("gossip", values, origin="b"))
            self.assert_rejected(deliver(sender, receiver, [changed], now=2.0), says_mode)
        assert [fact.values for fact in receiver.facts("gossip")] == [("a", 1)]
        # A well-formed neighbour in the same wire batch is still admitted.
        mixed = [
            shipped(sender, Fact("gossip", ("a", 1, 2), origin="b")),
            shipped(sender, Fact("gossip", ("a", 2), origin="b")),
        ]
        report = deliver(sender, receiver, mixed, now=3.0).report
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
        # The annotation travels in the clear under the one signature the
        # kernel makes for the tuple's wire message.  Its payload names it,
        # so it travels as the mask of its position and is sized as the mask:
        # one marker byte and one byte of bits for three values (it travelled
        # as itself, sized ``annotation.serialized_size()``, 1 byte).
        fact = shipped.fact
        assert fact.values == ("b", "a", 1.0) and fact.provenance == p_var("a")
        assert fact.annotation_mask == 0b010
        assert from_position_mask(fact.annotation_mask, fact.values) == p_var("a")
        assert shipped.provenance_bytes == 2
        assert result.report.provenance_bytes_computed == 2
        assert isinstance(fact.signature, SignedEnvelope)
        assert result.report.signatures_created == 0

    def test_unsigned_condensed_mode_ships_plain_annotation(self, compiled_best_path, keystore):
        config = EngineConfig(
            says_mode=SaysMode.NONE, provenance_mode=ProvenanceMode.CONDENSED
        )
        engine = make_engine("a", compiled_best_path, config, keystore)
        result = engine.insert_base(Fact("link", ("a", "b", 1.0)))
        shipped = result.outgoing[0]
        # The mask form and size of the signed twin above, without the
        # envelope (was sized ``shipped.fact.provenance.serialized_size()``).
        assert shipped.fact.annotation_mask == 0b010
        assert shipped.provenance_bytes == 2
        assert shipped.fact.signature is None

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
        result = deliver(sender, receiver, (to_b.fact,), now=0.5)
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
        signature = seal(sender, (fact,), "b")
        # The genuine tuple under an annotation its sender never asserted:
        # the signature covers the annotation, so the tuple goes with it.
        forged = fact.with_metadata(provenance=p_var("c"))
        result = receiver.receive_batch([((forged,), signature)], 0.5)
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
        assert "a" in annotation.variables()

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
