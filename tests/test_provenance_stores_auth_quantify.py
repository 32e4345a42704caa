"""Tests for online/offline stores, authenticated provenance, quantification
and the Section 5 optimizations.

The *online* store is the live :class:`DerivationLog` (it vouches for the
currently valid keys); the *offline* store archives the same firings.
"""

from __future__ import annotations

import pytest

from reference_stores import fire, pointer_for

from repro.engine.tuples import Fact
from repro.provenance.log import DerivationLog
from repro.provenance.polynomial import p_product, p_sum, p_var
from repro.provenance.pruning import (
    ASAggregator,
    ProvenanceSampler,
    grouped_by_as,
)
from repro.provenance.quantify import (
    accept_by_trust_level,
    accept_by_vote,
    count_derivations,
    trust_level,
    vote_principals,
)
from repro.provenance.store import OfflineProvenanceArchive
from repro.security.authenticator import (
    Authenticator,
    SignedEnvelope,
)
from repro.security.keystore import KeyStore
from repro.security.principal import PrincipalRegistry
from repro.security.says import SaysMode


ROUTE = Fact("bestPath", ("a", "c", ("a", "b", "c"), 2.0), timestamp=0.0, ttl=10.0)
LINK = Fact("link", ("a", "b"), asserted_by="a")
#: The one firing most tests record: ROUTE derived from LINK by p4 at a.
FIRING = pointer_for(ROUTE, "p4", "a", (LINK,), timestamp=0.0)


class TestOnlineStore:
    def test_record_and_lookup(self):
        store = DerivationLog("a")
        fire(store, ROUTE, "p4", (LINK,))
        assert store.knows(ROUTE.key())
        assert ROUTE.key() in store.keys()
        assert len(store.pointers(ROUTE.key())) == 1

    def test_expire_follows_tuple_ttl(self):
        # The log vouches for a tuple until the engine retracts it; *when* it
        # lapses travels with the firing: tuple node and archived entry both
        # carry the tuple's own timestamp + TTL.
        store = DerivationLog("a")
        fire(store, ROUTE, "p4", (LINK,))
        node = store.tuple_node(ROUTE.key())
        assert node.timestamp + node.ttl == ROUTE.expires_at() == 10.0
        archive = OfflineProvenanceArchive("a")
        archive.record(FIRING, ROUTE.expires_at())
        [entry] = archive.entries(ROUTE.key())
        assert not 5.0 >= entry.expires_at
        assert 10.0 >= entry.expires_at
        store.invalidate(ROUTE.key())
        assert not store.knows(ROUTE.key())
        assert archive.entries(ROUTE.key()) == (entry,)

    def test_dependents_and_cascade_delete(self):
        store = DerivationLog("a", track_dependencies=True)
        fire(store, ROUTE, "p4", (LINK,))
        downstream = Fact("forwarding", ("a", "c"))
        fire(store, downstream, "f", (ROUTE,))
        assert downstream.key() in store.dependents_of(ROUTE.key())
        store.invalidate(ROUTE.key())
        dependents = store.pop_dependents(ROUTE.key())
        assert downstream.key() in dependents
        assert not store.knows(ROUTE.key())
        assert store.dependents_of(ROUTE.key()) == ()

    def test_len(self):
        store = DerivationLog("a")
        fire(store, ROUTE, "p4", (LINK,))
        fire(store, ROUTE, "p4", (LINK,), timestamp=1.0)
        assert len(store.pointers(ROUTE.key())) == 2
        assert store.storage_overhead() == 2


class TestOfflineArchive:
    def test_entries_survive_expiry(self):
        archive = OfflineProvenanceArchive("a")
        archive.record(FIRING, ROUTE.expires_at())
        # The archive has no notion of tuple expiry: entries stay queryable.
        assert len(archive.entries(ROUTE.key())) == 1

    def test_time_window_query(self):
        archive = OfflineProvenanceArchive("a")
        early = pointer_for(ROUTE, "p4", "a", timestamp=1.0)
        late = pointer_for(ROUTE, "p4", "a", timestamp=100.0)
        archive.record(early)
        archive.record(late)
        assert len(archive.entries_between(0.0, 10.0)) == 1
        assert len(archive.entries_between(0.0, 200.0)) == 2

    def test_storage_bytes_positive_and_grows(self):
        archive = OfflineProvenanceArchive("a")
        archive.record(FIRING)
        first = archive.storage_bytes()
        archive.record(FIRING, annotation=p_var("a"))
        assert archive.storage_bytes() > first

    def test_reconstruct_graph(self):
        archive = OfflineProvenanceArchive("a")
        archive.record(FIRING)
        graph = archive.graph(ROUTE.key())
        assert graph.base_tuples(ROUTE.key()) == frozenset({LINK.key()})
        assert archive.pointers(ROUTE.key()) == (FIRING,)


class TestAuthenticatedProvenance:
    """Section 4.3: provenance is signed where it is created, as the
    :class:`SignedEnvelope` of the wire message that carried it."""

    @pytest.fixture(scope="class")
    def keystore(self):
        store = KeyStore(key_bits=128, seed=21)
        store.create_all(["a", "b"])
        return store

    # A piggy-backed annotation is authenticated by the one signature of the
    # wire message the tuple rides in (SaysMode.SIGNED), as part of the
    # tuple's Merkle leaf, not by a signature of its own.

    def test_signed_annotation_round_trip(self, keystore):
        annotation = p_var("a")
        exporter = Authenticator("a", keystore, SaysMode.SIGNED)
        importer = Authenticator("b", keystore, SaysMode.SIGNED)
        shipped = exporter.export_fact(LINK.with_metadata(provenance=annotation))
        assert shipped.provenance is annotation
        # One message sealed, and accepted: the annotation is in its leaf.
        assert shipped.signature.sequence == 1
        signature = exporter.seal_batch([shipped], "b")
        (admitted,) = importer.import_batch([shipped], signature)
        assert admitted.provenance is annotation

    def test_signed_annotation_forgery_detected(self, keystore):
        exporter = Authenticator("a", keystore, SaysMode.SIGNED)
        importer = Authenticator("b", keystore, SaysMode.SIGNED)
        shipped = exporter.export_fact(LINK.with_metadata(provenance=p_var("a")))
        signature = exporter.seal_batch([shipped], "b")
        forged_annotation = shipped.with_metadata(provenance=p_var("b"))
        assert importer.import_batch([forged_annotation], signature) == [None]
        assert importer.import_batch([shipped], b"\x01" * 16) == [None]
        # The genuine one still does.
        (admitted,) = importer.import_batch([shipped], signature)
        assert admitted == shipped and admitted.provenance is shipped.provenance

    def test_signed_annotation_unknown_principal(self, keystore):
        importer = Authenticator("b", keystore, SaysMode.SIGNED)
        forged = LINK.with_metadata(
            asserted_by="zz",
            signature=SignedEnvelope(1),
            provenance=p_var("zz"),
        )
        assert not importer.keystore.has_public_key("zz")
        assert importer.import_batch([forged], b"\x01" * 16) == [None]


class TestQuantify:
    PAPER = p_sum(p_var("a"), p_product(p_var("a"), p_var("b")))

    def test_trust_level_paper_example(self):
        assert trust_level(self.PAPER, {"a": 2, "b": 1}) == 2

    def test_trust_level_with_registry(self):
        registry = PrincipalRegistry()
        registry.register("a", security_level=2)
        registry.register("b", security_level=1)
        assert trust_level(self.PAPER, registry) == 2

    def test_trust_level_default(self):
        assert trust_level(p_product(p_var("a"), p_var("b")), {"a": 3}, default_level=1) == 1

    def test_count_derivations(self):
        assert count_derivations(self.PAPER) == 2
        assert count_derivations(p_var("a")) == 1

    def test_vote_principals(self):
        assert vote_principals(self.PAPER) == 2
        assert vote_principals(p_sum(p_var("a"), p_var("b"), p_var("c"))) == 3

    def test_accept_by_vote(self):
        assert accept_by_vote(self.PAPER, 2)
        assert not accept_by_vote(self.PAPER, 3)

    def test_accept_by_trust_level(self):
        assert accept_by_trust_level(self.PAPER, {"a": 2, "b": 1}, minimum_level=2)
        assert not accept_by_trust_level(self.PAPER, {"a": 1, "b": 1}, minimum_level=2)

    def test_accepts_condensed_annotations(self):
        # Absorption keeps the trust level and drops the absorbed derivation.
        annotation = self.PAPER.condense()
        assert trust_level(annotation, {"a": 2, "b": 1}) == 2
        assert count_derivations(annotation) == 1


class TestOptimizations:
    def test_sampler_rates(self):
        always = ProvenanceSampler(rate=1.0)
        never = ProvenanceSampler(rate=0.0)
        assert always.should_record(("t", ("a",)))
        assert not never.should_record(("t", ("a",)))

    def test_sampler_is_deterministic(self):
        a = ProvenanceSampler(rate=0.5, salt="x")
        b = ProvenanceSampler(rate=0.5, salt="x")
        keys = [("t", (i,)) for i in range(100)]
        assert [a.should_record(k) for k in keys] == [b.should_record(k) for k in keys]

    def test_sampler_observed_rate_roughly_matches(self):
        sampler = ProvenanceSampler(rate=0.3)
        for i in range(2000):
            sampler.should_record(("t", (i,)))
        assert 0.2 < sampler.observed_rate() < 0.4

    def test_sampler_rejects_invalid_rate(self):
        with pytest.raises(ValueError):
            ProvenanceSampler(rate=1.5)

    def test_as_aggregation_shrinks_expression(self):
        aggregator = ASAggregator({"n1": "AS1", "n2": "AS1", "n3": "AS2"})
        annotation = p_product(p_var("n1"), p_var("n2"), p_var("n3"))
        aggregated = aggregator.aggregate(annotation)
        assert aggregated.variables() == frozenset({"AS1", "AS2"})
        assert aggregated.serialized_size() < annotation.serialized_size()
        assert aggregator.compression_ratio(annotation) < 1.0

    def test_as_aggregation_default_as(self):
        aggregator = ASAggregator({}, default_as="AS-unknown")
        assert aggregator.as_of("n77") == "AS-unknown"

    def test_grouped_by_as(self):
        aggregator = ASAggregator({"n1": "AS1", "n2": "AS1", "n3": "AS2"})
        groups = grouped_by_as(aggregator, ["n1", "n2", "n3"])
        assert groups == {"AS1": ("n1", "n2"), "AS2": ("n3",)}
