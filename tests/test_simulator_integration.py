"""Integration tests: full distributed runs on the simulator.

These are the end-to-end checks that the reproduction actually computes what
the paper's system computes: all-pairs reachability, all-pairs best paths,
identical results across the three evaluated configurations, the expected
overhead ordering, and provenance that matches the Section 4 example.
"""

from __future__ import annotations

import pytest

from repro.datalog import localize_program, parse_program
from repro.datalog.planner import compile_program
from repro.engine.node_engine import EngineConfig, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.link import Link
from repro.net.kernel import CostModel, SimulationKernel
from repro.net.topology import Topology, line_topology, random_topology
from repro.provenance.quantify import acceptable
from repro.queries.best_path import compile_best_path
from repro.queries.reachable import REACHABLE_LOCALIZED
from repro.security.says import SaysMode

import networkx as nx


def reference_shortest_paths(topology: Topology):
    """Dijkstra via networkx as an independent oracle for best-path costs."""
    graph = nx.DiGraph()
    for link in topology.links:
        graph.add_edge(link.source, link.destination, weight=link.cost)
    return dict(nx.all_pairs_dijkstra_path_length(graph))


@pytest.fixture(scope="module")
def compiled_reachable():
    return compile_program(localize_program(parse_program(REACHABLE_LOCALIZED)))


class TestReachabilityEndToEnd:
    def test_all_pairs_reachability_on_ring(self, compiled_reachable):
        topology = line_topology(4)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        base = {
            node: [
                Fact("link", (link.source, link.destination))
                for link in topology.outgoing(node)
            ]
            for node in topology.nodes
        }
        result = simulator.run(base)
        assert result.converged
        reachable = {
            (fact.values[0], fact.values[1]) for fact in result.all_facts("reachable")
        }
        # A bidirectional 4-node chain: every ordered pair is reachable.
        expected = {(a, b) for a in topology.nodes for b in topology.nodes if a != b}
        assert expected <= reachable

    def test_tuples_stored_at_their_location(self, compiled_reachable):
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        base = {
            node: [
                Fact("link", (link.source, link.destination))
                for link in topology.outgoing(node)
            ]
            for node in topology.nodes
        }
        result = simulator.run(base)
        for address, engine in result.engines.items():
            for fact in engine.facts("reachable"):
                assert fact.values[0] == address


class TestBestPathEndToEnd:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_costs_match_dijkstra(self, compiled_best_path, seed):
        topology = random_topology(9, seed=seed)
        simulator = SimulationKernel(topology, compiled_best_path, EngineConfig())
        result = simulator.run()
        assert result.converged
        oracle = reference_shortest_paths(topology)
        for address, engine in result.engines.items():
            for fact in engine.facts("bestPath"):
                source, destination, path, cost = fact.values
                assert source == address
                assert cost == pytest.approx(oracle[source][destination])
                # The reported path must really have the reported cost.
                hops = list(path)
                total = sum(
                    topology.link_between(hops[i], hops[i + 1]).cost
                    for i in range(len(hops) - 1)
                )
                assert total == pytest.approx(cost)

    def test_every_reachable_pair_gets_a_best_path(self, compiled_best_path):
        topology = random_topology(8, seed=5)
        result = SimulationKernel(topology, compiled_best_path, EngineConfig()).run()
        oracle = reference_shortest_paths(topology)
        expected_pairs = {
            (s, d) for s, targets in oracle.items() for d in targets if s != d
        }
        computed_pairs = {
            (fact.values[0], fact.values[1]) for fact in result.all_facts("bestPath")
        }
        assert computed_pairs == expected_pairs

    def test_all_three_configurations_compute_identical_best_paths(self, compiled_best_path):
        topology = random_topology(7, seed=9)
        outcomes = {}
        for name, config in (
            ("ndlog", EngineConfig()),
            ("sendlog", EngineConfig(says_mode=SaysMode.SIGNED)),
            (
                "sendlogprov",
                EngineConfig(
                    says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
                ),
            ),
        ):
            result = SimulationKernel(topology, compiled_best_path, config).run()
            outcomes[name] = {
                (f.values[0], f.values[1], f.values[3]) for f in result.all_facts("bestPath")
            }
        assert outcomes["ndlog"] == outcomes["sendlog"] == outcomes["sendlogprov"]

    def test_overhead_ordering_matches_paper(self, compiled_best_path):
        """NDlog < SeNDlog < SeNDlogProv in both completion time and bandwidth."""
        topology = random_topology(10, seed=4)
        summaries = {}
        for name, config in (
            ("ndlog", EngineConfig()),
            ("sendlog", EngineConfig(says_mode=SaysMode.SIGNED)),
            (
                "sendlogprov",
                EngineConfig(
                    says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
                ),
            ),
        ):
            summaries[name] = SimulationKernel(topology, compiled_best_path, config).run().stats.summary()
        assert (
            summaries["ndlog"]["completion_time_s"]
            < summaries["sendlog"]["completion_time_s"]
            < summaries["sendlogprov"]["completion_time_s"]
        )
        assert (
            summaries["ndlog"]["bandwidth_mb"]
            < summaries["sendlog"]["bandwidth_mb"]
            < summaries["sendlogprov"]["bandwidth_mb"]
        )

    def test_determinism_of_a_full_run(self, compiled_best_path):
        topology = random_topology(8, seed=2)
        config = EngineConfig(says_mode=SaysMode.SIGNED)
        first = SimulationKernel(topology, compiled_best_path, config).run().stats.summary()
        second = SimulationKernel(topology, compiled_best_path, config).run().stats.summary()
        assert first == second

    def test_cost_model_scales_completion_time(self, compiled_best_path):
        topology = random_topology(6, seed=2)
        slow = CostModel(seconds_per_rule_firing=10e-3)
        fast = CostModel(seconds_per_rule_firing=0.1e-3)
        slow_time = (
            SimulationKernel(topology, compiled_best_path, EngineConfig(), cost_model=slow)
            .run()
            .stats.completion_time
        )
        fast_time = (
            SimulationKernel(topology, compiled_best_path, EngineConfig(), cost_model=fast)
            .run()
            .stats.completion_time
        )
        assert slow_time > fast_time

    def test_max_events_guard_reports_non_convergence(self, compiled_best_path):
        topology = random_topology(8, seed=2)
        simulator = SimulationKernel(topology, compiled_best_path, EngineConfig(), max_events=10)
        result = simulator.run()
        assert not result.converged


class TestProvenanceEndToEnd:
    def test_paper_example_network_provenance(self, compiled_reachable):
        """Figure 1 / 2: reachable(a, c) over links a->b, a->c, b->c condenses to <a>."""
        topology = Topology(
            nodes=("a", "b", "c"),
            links=(
                Link(source="a", destination="b", cost=1.0),
                Link(source="a", destination="c", cost=1.0),
                Link(source="b", destination="c", cost=1.0),
            ),
        )
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        simulator = SimulationKernel(topology, compiled_reachable, config, key_bits=128)
        base = {
            node: [
                Fact("link", (link.source, link.destination))
                for link in topology.outgoing(node)
            ]
            for node in topology.nodes
        }
        result = simulator.run(base)
        engine_a = result.engines["a"]
        reach_ac = next(
            fact for fact in engine_a.facts("reachable") if fact.values == ("a", "c")
        )
        annotation = engine_a.provenance_of(reach_ac)
        # The paper's condensation example: <a + a*b> collapses to <a>.
        assert acceptable(annotation, {"a"})
        assert not acceptable(annotation, {"b"})
        assert str(annotation) == "<a>"

    def test_provenance_sources_lie_on_the_best_path(self, compiled_best_path):
        topology = line_topology(5)
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        result = SimulationKernel(topology, compiled_best_path, config, key_bits=128).run()
        engine = result.engines["n0"]
        fact = next(
            f for f in engine.facts("bestPath") if f.values[0] == "n0" and f.values[1] == "n4"
        )
        sources = engine.provenance_of(fact).variables()
        # Every principal contributing to the derivation lies on the path.
        assert sources <= set(fact.values[2])

    def test_offline_archives_cover_all_nodes(self, compiled_best_path):
        topology = line_topology(4)
        config = EngineConfig(
            says_mode=SaysMode.SIGNED,
            provenance_mode=ProvenanceMode.CONDENSED,
            keep_offline_provenance=True,
        )
        result = SimulationKernel(topology, compiled_best_path, config, key_bits=128).run()
        assert all(len(e.offline_provenance) > 0 for e in result.engines.values())

    def test_distributed_traceback_after_distributed_run(self, compiled_best_path):
        from repro.provenance.distributed import traceback

        topology = line_topology(4)
        config = EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED)
        result = SimulationKernel(topology, compiled_best_path, config).run()
        engine = result.engines["n0"]
        target = next(
            f for f in engine.facts("bestPath") if f.values[0] == "n0" and f.values[1] == "n3"
        )
        stores = {a: e.provenance for a, e in result.engines.items()}
        walk = traceback(target.key(), "n0", stores.get)
        assert walk.complete
        # The reconstruction reaches the base link tuples along the chain.
        base_relations = {key[0] for key in walk.graph.base_tuples(target.key())}
        assert base_relations == {"link"}
