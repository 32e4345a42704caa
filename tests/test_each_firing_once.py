"""Each rule firing is found once.

A derived tuple joins its table only when the delta queue reaches it
(``NodeEngine._drain``), so a firing whose inputs are all new in one round is
found from whichever input the queue reaches last, never from each of them —
pipelined semi-naive evaluation, as P2 runs it.  The census below wraps the
engine's doors from outside ``src/``: every firing handed to
``_handle_firing``, keyed by (node, rule, head, inputs, instant) within one
processing round (one ``insert_base`` / ``receive_batch`` /
``retract_base`` / ``retract_remote`` call), and every ``Table.insert`` that
only refreshed a stored tuple.  The joins are asked for their antecedents
under every configuration, so a firing's inputs are known even where nothing
in the engine reads them.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from test_sharding import _assert_equivalent

import repro.engine.node_engine as node_engine_module
from repro.api import Network
from repro.datalog import localize_program, parse_program
from repro.datalog.planner import compile_program
from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.table import Table
from repro.engine.tuples import Fact
from repro.net.events import LinkDown, LinkUp
from repro.net.topology import random_topology

NODES = 8

#: Best-Path's local rules at one node: ``path`` and ``cost`` are both
#: derived in the round a ``link`` enters, and ``best`` joins the two.
LOCAL_JOIN = """
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(path, infinity, infinity, keys(1,2,3)).
    materialize(cost, infinity, infinity, keys(1,2)).
    materialize(best, infinity, infinity, keys(1,2)).

    r1 path(@S, D, C) :- link(@S, D, C).
    r2 cost(@S, D, min<C>) :- path(@S, D, C).
    r3 best(@S, D, C) :- cost(@S, D, C), path(@S, D, C).
"""


@pytest.fixture
def census(monkeypatch):
    """Count firings, firings found twice in one round, and refreshes."""
    tally = {"firings": 0, "twice": 0, "refreshes": 0, "by_rule": {}}
    seen = set()
    evaluate = node_engine_module.evaluate_plan_with_delta
    handle, insert = NodeEngine._handle_firing, Table.insert

    def evaluate_with_inputs(*args, **kwargs):
        kwargs["collect_antecedents"] = True
        return evaluate(*args, **kwargs)

    def counted_handle(self, plan, firing, now, *args):
        found = (
            self.address,
            plan.label,
            firing.head_values,
            tuple(antecedent.key() for antecedent in firing.antecedents),
            now,
        )
        tally["firings"] += 1
        tally["twice"] += found in seen
        tally["by_rule"][plan.label] = tally["by_rule"].get(plan.label, 0) + 1
        seen.add(found)
        return handle(self, plan, firing, now, *args)

    def counted_insert(self, fact, now=None):
        outcome = insert(self, fact, now=now)
        tally["refreshes"] += outcome.refreshed
        return outcome

    def round_entry(call):
        def entered(self, *args, **kwargs):
            seen.clear()
            return call(self, *args, **kwargs)

        return entered

    monkeypatch.setattr(node_engine_module, "evaluate_plan_with_delta", evaluate_with_inputs)
    monkeypatch.setattr(NodeEngine, "_handle_firing", counted_handle)
    monkeypatch.setattr(Table, "insert", counted_insert)
    for name in ("insert_base", "receive_batch", "retract_base", "retract_remote"):
        monkeypatch.setattr(NodeEngine, name, round_entry(getattr(NodeEngine, name)))
    return tally


def test_a_join_of_two_inputs_derived_in_one_round_fires_once(census):
    compiled = compile_program(localize_program(parse_program(LOCAL_JOIN)))
    engine = NodeEngine(
        "a", compiled, EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED)
    )
    result = engine.insert_base(Fact("link", ("a", "b", 3)))

    assert engine.facts("best")[0].values == ("a", "b", 3)
    assert census["by_rule"] == {"r1": 1, "r2": 1, "r3": 1}
    assert census["twice"] == census["refreshes"] == 0
    assert result.report.rule_firings == 3
    assert result.report.facts_inserted == 4  # link, path, cost, best
    (pointer,) = engine.provenance.pointers(("best", ("a", "b", 3)))
    assert [key for key, _ in pointer.inputs] == [
        ("cost", ("a", "b", 3)),
        ("path", ("a", "b", 3)),
    ]


#: A rule joining a relation with itself: ``twin(a,b,b)`` binds one new
#: ``hop`` tuple at both body positions.
SELF_JOIN = """
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(hop, infinity, infinity, keys(1,2)).
    materialize(twin, infinity, infinity, keys(1,2,3)).

    r1 hop(@S, D) :- link(@S, D).
    r2 twin(@S, D, E) :- hop(@S, D), hop(@S, E).
"""


def test_a_self_join_finds_a_firing_that_binds_the_delta_twice_once(census):
    """Each of the three nodes has two links: two ``hop`` firings and, over
    its two hops, four ``twin`` firings — 18 in all.  The delta plan of the
    second ``hop`` position skips the delta at the first, so ``twin(a,b,b)``
    is found from one position only, not from both (24)."""
    network = Network.build(
        topology=random_topology(3, seed=0), program=SELF_JOIN, provenance="condensed", seed=0
    )
    assert network.run().converged
    assert network.stats.summary()["facts_derived"] == 18
    assert census["by_rule"] == {"r1": 6, "r2": 12}
    assert census["twice"] == census["refreshes"] == 0
    assert sum(len(engine.facts("twin")) for engine in network.engines.values()) == 12


def test_the_engine_census_finds_no_firing_twice_on_a_self_join():
    # In a child process: a census wraps the classes it counts for good.
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve().parent.parent / "tools" / "engine_census.py"),
            "--program", SELF_JOIN, "--provenance", "condensed", "--nodes", "3",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    counts = dict(
        line.rsplit(None, 1) for line in completed.stdout.splitlines() if line.startswith("firings")
    )
    assert counts["firings"] == "18" and counts["firings found twice"] == "0"


def _flap_two_links(network, topology) -> None:
    for link in topology.redundant_links()[:2]:
        for event in (LinkDown, LinkUp):
            network.schedule(
                event(
                    time=network.current_time() + 1.0,
                    source=link.source,
                    destination=link.destination,
                )
            )
            assert network.run_until_idle()


CHURN = dict(default_ttl=1e6, track_dependencies=True, rederivation=True)


@pytest.mark.parametrize(
    "provenance, churn",
    [("ndlog", False), ("sendlog-prov", False), ("condensed", True)],
    ids=["ndlog", "sendlog-prov", "condensed-churn"],
)
def test_best_path_finds_every_firing_once(census, provenance, churn):
    topology = random_topology(NODES, seed=0)
    network = Network.build(
        topology=topology,
        program="best-path",
        provenance=provenance,
        seed=0,
        key_bits=128,
        **(CHURN if churn else {}),
    )
    assert network.run().converged
    assert census["firings"] > 0 and census["by_rule"]["p4"] > 0
    assert census["twice"] == 0
    assert census["refreshes"] == 0  # a static fixpoint derives nothing twice
    if churn:
        fixpoint = census["firings"]
        _flap_two_links(network, topology)
        assert census["firings"] > fixpoint
        assert census["twice"] == 0


def test_serial_equals_inline_sharded():
    def run(**backend):
        return Network.build(
            topology=random_topology(NODES, seed=0),
            program="best-path",
            provenance="sendlog-prov",
            seed=0,
            key_bits=128,
            **backend,
        ).run()

    _assert_equivalent(run(), run(backend="sharded", shards=3, shard_mode="inline"))
