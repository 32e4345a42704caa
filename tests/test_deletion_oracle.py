"""Defects a from-scratch oracle catches, recorded as reproducers.

Two deletion defects, after one retraction on ``random_topology(8, seed=1)``:
``link(n0,n4)`` withdrawn at n0 after the fixpoint, with n0 still reaching
n4 over n1-n2-n3 and over n7-n6-n3.  The oracle is either an invariant of
the program (a ``min`` aggregate equals the minimum over the tuples it
aggregates) or a fresh network built without the link.

One annotation defect, at the ``sendlog-prov`` fixpoint on
``random_topology(25, seed=0)`` with ``batching=False``: an aggregate's
annotation is that of whichever row set the minimum first, where the oracle
sums the group's rows that reach it.

The three tests marked ``xfail(strict=True)`` fail today; the fix that makes
one pass must drop its marker (ROADMAP items 6(b) and 2(b)).
"""

from __future__ import annotations

import pytest

from repro.api import Network
from repro.net.events import FactRetraction
from repro.net.topology import random_topology
from repro.provenance.quantify import acceptable

RETRACTED = ("n0", "n4")


def _retract(network: Network) -> None:
    """Converge, then withdraw ``link(n0,n4)`` at n0 and settle."""
    assert network.run().converged
    engine = network.engines["n0"]
    link = next(f for f in engine.facts("link") if f.values[:2] == RETRACTED)
    network.schedule(
        FactRetraction(time=network.current_time() + 1.0, address="n0", facts=(link,))
    )
    assert network.run_until_idle()


# -- 6(b): an aggregate group dropped while its inputs survive -------------------


@pytest.mark.xfail(
    strict=True,
    reason="_forget_aggregate_groups drops the min group and no surviving "
    "path tuple re-fires p3 (ROADMAP 6(b))",
)
@pytest.mark.parametrize("rederivation", [True, False])
def test_best_path_cost_is_the_min_over_stored_paths_after_a_retraction(rederivation):
    network = Network.build(
        topology=random_topology(8, seed=1),
        program="best-path",
        provenance="ndlog",
        default_ttl=1e6,
        track_dependencies=True,
        rederivation=rederivation,
    )
    _retract(network)
    engine = network.engines["n0"]
    cheapest = {}
    for fact in engine.facts("path"):
        _source, destination, _path, cost = fact.values
        cheapest[destination] = min(cost, cheapest.get(destination, cost))
    best = {fact.values[1]: fact.values[2] for fact in engine.facts("bestPathCost")}
    # n0 still stores path(n0,n4,(n0,n1,n2,n3,n4),20.0).
    assert cheapest["n4"] == 20.0
    assert best == cheapest


# -- 2(b): a survivor keeps the annotation of a derivation that is gone ----------


def _reachable(topology) -> Network:
    return Network.build(
        topology=topology,
        program="reachable",
        provenance="condensed",
        default_ttl=1e6,
        track_dependencies=True,
        rederivation=True,
    )


def _n0_reaches_n4(network: Network):
    engine = network.engines["n0"]
    fact = next(f for f in engine.facts("reachable") if f.values[:2] == RETRACTED)
    return engine, fact


def test_the_oracle_rejects_the_survivor_for_a_policy_trusting_only_n0():
    fresh = _reachable(random_topology(8, seed=1).without_links([RETRACTED]))
    assert fresh.run().converged
    engine, fact = _n0_reaches_n4(fresh)
    annotation = engine.provenance_of(fact)
    assert str(annotation) == "<n0*n1*n2*n3+n0*n3*n6*n7>"
    assert not acceptable(annotation, {"n0"})


@pytest.mark.xfail(
    strict=True,
    reason="the survivor keeps the retracted derivation's annotation <n0> and "
    "a support without the second alternative (ROADMAP 2(b))",
)
def test_a_surviving_tuple_carries_what_a_fresh_network_derives():
    topology = random_topology(8, seed=1)
    fresh = _reachable(topology.without_links([RETRACTED]))
    assert fresh.run().converged
    oracle_engine, oracle_fact = _n0_reaches_n4(fresh)

    network = _reachable(topology)
    _retract(network)
    engine, fact = _n0_reaches_n4(network)  # it survives on n0-n1-n2-n3-n4
    annotation = engine.provenance_of(fact)
    # The Section 4.4 trust decision must be made on derivations that exist.
    assert acceptable(annotation, {"n0"}) == acceptable(
        oracle_engine.provenance_of(oracle_fact), {"n0"}
    )
    assert annotation == oracle_engine.provenance_of(oracle_fact)
    assert engine._support[fact.key()] == oracle_engine._support[oracle_fact.key()]
    # Its online traceback does not lead through the retracted link.
    assert network.query(fact, at="n0").complete


# -- 6(b): an aggregate annotated by one row of its group ------------------------


@pytest.mark.xfail(
    strict=True,
    reason="bestPathCost keeps the annotation of the path that set the minimum "
    "first, not the sum over the group's rows at the minimum (ROADMAP 6(b))",
)
def test_a_best_path_rests_on_the_principals_of_its_own_path():
    network = Network.build(
        topology=random_topology(25, seed=0),
        program="best-path",
        provenance="sendlog-prov",
        batching=False,
    )
    assert network.run().converged
    engine = network.engines["n1"]
    # n1 holds two cost-14 paths to n19, each resting on its own hops.
    paths = {
        fact.values[2]: str(engine.provenance_of(fact))
        for fact in engine.facts("path")
        if fact.values[1] == "n19" and fact.values[3] == 14.0
    }
    assert paths == {("n1", "n2", "n19"): "<n1*n2>", ("n1", "n18", "n19"): "<n1*n18>"}
    best = next(f for f in engine.facts("bestPath") if f.values[1] == "n19")
    assert best.values[2:] == (("n1", "n18", "n19"), 14.0)
    # Today it is <n1*n18*n2>: a policy trusting n1 and n18 refuses a route
    # that depends on no one else.
    assert acceptable(engine.provenance_of(best), {"n1", "n18"})
