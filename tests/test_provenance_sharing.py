"""Each node's provenance keeps one object per value it repeats.

A node's derivation log keeps one expression per annotation value, built on
one ``(principal, 1)`` pair per principal; its firings name the log's own
key objects, a key's firings are stored as one tuple that ``pointers``
hands back as is, and a tuple refused on arrival enters nothing.  Checked on
the N=8 ``sendlog-prov`` fixpoint and on an N=8 condensed link flap (one-
fixpoint deletions: keys are invalidated and recorded again), in every log.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from sealing import deliver, receive, seal

from repro.api import Network
from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.events import LinkDown, LinkUp
from repro.net.topology import random_topology
from repro.provenance.polynomial import ProvenanceExpression
from repro.security.keystore import KeyStore
from repro.security.says import SaysMode


def sendlog_prov_fixpoint() -> Network:
    network = Network.build(
        topology=8, program="best-path", provenance="sendlog-prov", seed=4, key_bits=128
    )
    assert network.run().converged
    return network


def condensed_link_flap() -> Network:
    topology = random_topology(8, seed=2)
    network = Network.build(
        topology=topology,
        program="best-path",
        provenance="condensed",
        default_ttl=1e6,
        track_dependencies=True,
        rederivation=True,
    )
    assert network.run().converged
    for link in topology.redundant_links():
        for event_type in (LinkDown, LinkUp):
            network.schedule(
                event_type(
                    time=network.current_time() + 1.0,
                    source=link.source,
                    destination=link.destination,
                )
            )
            assert network.run_until_idle()
    assert network.stats.total("facts_retracted") > 0
    return network


@pytest.fixture(scope="module", params=[sendlog_prov_fixpoint, condensed_link_flap])
def network(request) -> Network:
    return request.param()


def annotations_kept(engine: NodeEngine) -> list:
    """Every annotation object the node keeps: the log's and its tuples'."""
    log = engine.provenance
    held = list(log._kept.values()) + list(log._condensed.values())
    held += [
        fact.provenance
        for fact in engine.database.all_facts()
        if isinstance(fact.provenance, ProvenanceExpression)
    ]
    return held


def test_no_two_annotation_objects_at_a_node_are_equal(network):
    for engine in network.engines.values():
        held = annotations_kept(engine)
        assert held
        assert len({id(annotation) for annotation in held}) == len(
            {annotation.monomials for annotation in held}
        ), engine.address
        kept = engine.provenance._kept
        assert all(kept[annotation.monomials] is annotation for annotation in held)


def test_each_principal_has_one_pair_object(network):
    for engine in network.engines.values():
        pairs = engine.provenance.pairs
        for annotation in annotations_kept(engine):
            for monomial, _ in annotation.monomials:
                for pair in monomial:
                    assert pairs[pair[0]] is pair, (engine.address, pair)


def test_firings_name_the_log_s_own_key_objects(network):
    for engine in network.engines.values():
        log = engine.provenance
        own = {key: key for key in log._forgotten}
        own.update((key, node.key) for key, node in log._tuples.items())
        assert log.keys()
        for key in log.keys():
            firings = log.pointers(key)
            assert log.pointers(key) is firings
            for pointer in firings:
                assert pointer.output is own[pointer.output]
                for input_key, _ in pointer.inputs:
                    assert input_key is own[input_key], (engine.address, input_key)


@pytest.fixture(scope="module")
def keystore() -> KeyStore:
    store = KeyStore(key_bits=128, seed=9)
    store.create_all(["a", "b"])
    return store


def test_a_tuple_refused_for_a_forged_mask_enters_nothing(compiled_best_path, keystore):
    """``a`` ships ``path_p2_mid_1(b, a, 1)`` annotated ``<a>`` as mask
    0b010; the relay flips it to 0b001, which rebuilds ``<b>`` and breaks the
    signed leaf.  The refused tuple leaves ``b``'s tables as they were; the
    genuine one enters its annotation and its pair."""
    config = EngineConfig(says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED)
    a = NodeEngine("a", compiled_best_path, config, keystore)
    b = NodeEngine("b", compiled_best_path, config, keystore)
    (item,) = a.insert_base(Fact("link", ("a", "b", 1.0))).outgoing
    assert item.mask == 0b010
    log = b.provenance
    assert not log._kept and not log.pairs

    signature = seal(a, (item,), "b")
    report = receive(b, (replace(item, mask=0b001),), signature, 1.0).report
    assert (report.facts_rejected, report.verification_failures) == (1, 1)
    assert not log._kept and not log.pairs

    report = deliver(a, b, (item,), now=2.0).report
    assert report.facts_verified == 1
    (annotation,) = log._kept.values()
    assert annotation.to_string() == "a" and log.pairs == {"a": ("a", 1)}
    (pair,), _ = annotation.monomials[0]
    assert pair is log.pairs["a"]
