"""Any schedule, one answer: final tables do not depend on link latencies.

The determinism tests pin one schedule per seed, and every link of
``random_topology`` has the same latency.  Here Hypothesis draws a latency
for each link of ``random_topology(8)`` (``dataclasses.replace`` on each
``Link``), which reorders every message race of the run, and the converged
tables must not move: Best-Path's ``bestPathCost`` equals Dijkstra over the
link costs, and the reachable and path-vector tables equal the single-site
fixpoint of ``tests/oracle.evaluate_program``.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import evaluate_program

from repro.api import Network
from repro.datalog import localize_program, parse_program
from repro.datalog.catalog import Catalog
from repro.datalog.planner import compile_program
from repro.engine.database import Database
from repro.net.kernel import as_facts, shape_link_keys
from repro.net.topology import Topology, random_topology
from repro.queries.path_vector import compile_path_vector
from repro.queries.reachable import REACHABLE_LOCALIZED

TOPOLOGY = random_topology(8, seed=3)

#: One latency per link, from a microsecond to fifty milliseconds: wide
#: enough that any two messages can arrive in either order.
latencies = st.lists(
    st.floats(min_value=1e-6, max_value=0.05),
    min_size=len(TOPOLOGY.links),
    max_size=len(TOPOLOGY.links),
)


def _with_latencies(drawn) -> Topology:
    return Topology(
        TOPOLOGY.nodes,
        tuple(
            dataclasses.replace(link, latency=latency)
            for link, latency in zip(TOPOLOGY.links, drawn)
        ),
    )


def _oracle_rows(compiled, relation: str):
    catalog = Catalog.from_program(compiled.program)
    arity = catalog.schema("link").arity
    base = [
        fact
        for facts in as_facts(shape_link_keys(TOPOLOGY, "link", arity)).values()
        for fact in facts
    ]
    result = evaluate_program(compiled, Database(catalog), base)
    return {fact.values for fact in result.facts(relation)}


def _dijkstra_costs():
    graph = nx.DiGraph()
    for link in TOPOLOGY.links:
        graph.add_edge(link.source, link.destination, weight=link.cost)
    return {
        (source, destination): cost
        for source, targets in nx.all_pairs_dijkstra_path_length(graph)
        for destination, cost in targets.items()
        if source != destination
    }


REACHABLE = compile_program(localize_program(parse_program(REACHABLE_LOCALIZED)))
PATH_VECTOR = compile_path_vector()
EXPECTED = {
    "reachable": _oracle_rows(REACHABLE, "reachable"),
    "route": _oracle_rows(PATH_VECTOR, "route"),
}
COSTS = _dijkstra_costs()


def _converged_rows(topology, program, relation: str):
    network = Network.build(topology=topology, program=program, provenance="ndlog")
    assert network.run().converged
    return {fact.values for fact in network.all_facts(relation)}


@settings(max_examples=50, deadline=None)
@given(drawn=latencies)
def test_best_path_costs_equal_dijkstra_under_any_latencies(drawn):
    rows = _converged_rows(_with_latencies(drawn), "best-path", "bestPathCost")
    costs = {(source, destination): cost for source, destination, cost in rows}
    assert costs.keys() == COSTS.keys()
    for pair, cost in COSTS.items():
        assert costs[pair] == pytest.approx(cost)


@settings(max_examples=50, deadline=None)
@given(drawn=latencies)
def test_reachable_and_path_vector_equal_the_oracle_under_any_latencies(drawn):
    topology = _with_latencies(drawn)
    assert _converged_rows(topology, REACHABLE, "reachable") == EXPECTED["reachable"]
    assert _converged_rows(topology, PATH_VECTOR, "route") == EXPECTED["route"]
