"""The one derivation log against the four stores it replaced.

Every engine in these runs carries a :class:`reference_stores.ShadowedLog`:
the live :class:`~repro.provenance.log.DerivationLog` plus PR 21's
``LocalProvenanceStore`` (eager graph), ``DistributedProvenanceStore``,
``OnlineProvenanceStore`` and dependents index, fed by the same writes.
After churn scripts (Hypothesis, from ``test_churn_property``), named
Best-Path / reachable runs, sampling, crashes and both backends, every read
the log answers — ``graph(root)``, ``pointers``, ``is_base``, ``knows``,
``annotation``, the dependents index, which keys are still vouched for —
must equal the old stores'.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_stores import ShadowedLog, assert_log_matches_reference
from test_churn_property import (
    _COMPILED,
    TTL,
    _base_facts,
    _inject_base,
    _play,
    _topology,
    chords_strategy,
)

from repro.api import Network
from repro.engine import node_engine
from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.events import NodeCrash, NodeRecover, SoftStateRefresh
from repro.provenance.log import DerivationLog
from repro.provenance.pruning import ProvenanceSampler
from repro.queries.best_path import compile_best_path


def shadowed():
    """Every engine built inside this context gets a shadowed log."""
    return mock.patch.object(node_engine, "DerivationLog", ShadowedLog)


def assert_network_matches_reference(network) -> None:
    checked = 0
    for engine in network.engines.values():
        assert isinstance(engine.provenance, ShadowedLog)
        checked += assert_log_matches_reference(engine.provenance)
    assert checked > len(network.engines)  # more than the never-recorded probe


# -- churn scripts ---------------------------------------------------------------


def _churn_network(topology, **options):
    settings_ = dict(
        default_ttl=TTL,
        track_dependencies=True,
        keep_offline_provenance=True,
        rederivation=True,
    )
    settings_.update(options)
    return Network.build(
        topology=topology, program=_COMPILED, provenance="condensed", **settings_
    )


#: The engine switches that change what the log is asked to write.
CONFIGS = {
    "rederivation": {},
    "cascade": {"rederivation": False},
    "no-dependency-index": {"rederivation": False, "track_dependencies": False},
    "sampled": {"sampler": ProvenanceSampler(0.5, salt="log")},
    "sampled-cascade": {
        "rederivation": False,
        "sampler": ProvenanceSampler(0.4, salt="cascade"),
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@given(
    chords=chords_strategy,
    script=st.lists(
        st.tuples(
            st.sampled_from(["retract", "flap", "crash"]),
            st.integers(min_value=0, max_value=1_000_000),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_churn_scripts_leave_the_log_equal_to_the_old_stores(name, chords, script):
    topology = _topology(chords)
    base = _base_facts(topology)
    with shadowed():
        network = _churn_network(topology, **CONFIGS[name])
        simulator = network.simulator
        _inject_base(simulator, base, 0.0)
        assert simulator.run_until_idle()
        assert_network_matches_reference(network)
        at = simulator.current_time()
        for at in _play(simulator, topology, base, script):
            assert_network_matches_reference(network)
        repair_at = max(at, simulator.current_time()) + TTL + 1.0
        simulator.schedule(SoftStateRefresh(time=repair_at))
        assert simulator.run_until_idle()
        assert_network_matches_reference(network)


# -- named runs, both backends ---------------------------------------------------


@pytest.mark.parametrize("backend", ("serial", "sharded"))
@pytest.mark.parametrize(
    "provenance", ("condensed", "sendlog-prov", "distributed")
)
def test_best_path_runs_match_on_both_backends(provenance, backend):
    options = {}
    if backend == "sharded":
        options = {"backend": "sharded", "shards": 2, "shard_mode": "inline"}
    with shadowed():
        network = Network.build(
            topology=8,
            program="best-path",
            provenance=provenance,
            seed=4,
            key_bits=128,
            **options,
        )
        assert network.run().converged
        assert_network_matches_reference(network)


@pytest.mark.parametrize("backend", ("serial", "sharded"))
def test_crash_and_recover_match_on_both_backends(backend):
    options = {}
    if backend == "sharded":
        options = {"backend": "sharded", "shards": 2, "shard_mode": "inline"}
    with shadowed():
        network = Network.build(
            topology=8,
            program="best-path",
            provenance="condensed",
            seed=2,
            default_ttl=1e6,
            track_dependencies=True,
            rederivation=True,
            keep_offline_provenance=True,
            **options,
        )
        assert network.run().converged
        victim = network.topology.nodes[3]
        at = network.current_time() + 1.0
        network.schedule(NodeCrash(time=at, address=victim))
        assert network.run_until_idle()
        # The crash replaced the log: nothing is vouched for, in either world.
        assert network.engines[victim].provenance.keys() == ()
        assert_network_matches_reference(network)
        network.schedule(NodeRecover(time=at + 1.0, address=victim, reinject=True))
        assert network.run_until_idle()
        assert network.engines[victim].provenance.keys()
        assert_network_matches_reference(network)


def test_shadowing_sees_every_write_of_a_single_engine():
    """The harness itself: a bare engine, no kernel in between."""
    with shadowed():
        engine = NodeEngine(
            "a",
            compile_best_path(),
            EngineConfig(
                provenance_mode=ProvenanceMode.CONDENSED, track_dependencies=True
            ),
        )
    engine.insert_base(Fact("link", ("a", "b", 1.0)), now=0.0)
    engine.insert_base(Fact("link", ("a", "c", 2.0)), now=1.0)
    assert assert_log_matches_reference(engine.provenance) > 3
    engine.retract_base(Fact("link", ("a", "b", 1.0)), now=2.0)
    assert not engine.provenance.knows(("link", ("a", "b", 1.0)))
    assert_log_matches_reference(engine.provenance)


# -- the log's own contract ------------------------------------------------------


def test_keys_are_in_recording_order_not_hash_order():
    """``keys()`` used to end in ``tuple(set)``: worker processes disagreed."""
    log = DerivationLog("a")
    base = [Fact("link", ("a", f"n{i}", float(i)), origin="a") for i in range(40)]
    for fact in reversed(base):
        log.record_base(fact)
    derived = Fact("path", ("a", "n7"), origin="a")
    log.append(derived.key(), "p1", 0.0, None, (base[7],))
    assert log.keys() == (derived.key(),) + tuple(f.key() for f in reversed(base))
    log.invalidate(base[5].key())
    log.record_base(base[5])  # re-asserted: now the newest base key
    assert log.keys()[-1] == base[5].key()
    assert log.keys()[1:-1] == tuple(
        f.key() for f in reversed(base) if f is not base[5]
    )
