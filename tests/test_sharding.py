"""The sharded execution backend: partitioning, serial equivalence, dynamics.

The backend's contract is strong: for any shard count and either worker
mode, derived facts, per-message sequence numbers and every integer/byte
statistic are identical to the serial backend; per-node floating point
metrics are bit-identical (each node's processing order is unchanged) and
only cross-node float *sums* may differ in the last bits by association
order.  These tests pin that contract on static runs, dynamic scenarios
(events crossing shard boundaries), the query plane, and the
multiprocessing worker path.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.api.network import Network
from repro.api.options import NetOptions
from repro.engine.node_engine import EngineConfig, ProvenanceMode
from repro.net.events import FactInjection, SoftStateRefresh
from repro.net.kernel import SimulationKernel
from repro.net.sharding import ShardedSimulator, ShardWorkerError, partition_topology
from repro.net.stats import COORDINATION_KEYS
from repro.net.topology import line_topology, random_topology
from repro.queries.best_path import compile_best_path
from repro.security.says import SaysMode


def _facts_by_node(result, relation):
    return {
        address: tuple(sorted(fact.values for fact in facts))
        for address, facts in result.facts(relation).items()
    }


def _assert_equivalent(serial, sharded, relation="bestPath"):
    """The full cross-backend contract between two SimulationResults."""
    assert serial.converged == sharded.converged
    assert _facts_by_node(serial, relation) == _facts_by_node(sharded, relation)
    # Integer/byte summary metrics are exactly equal; cpu_seconds is the one
    # cross-node float sum and may differ by association order only.  The
    # coordination ledger describes how the run was coordinated, not what
    # the simulated network did — serial runs report zeros there.
    left, right = serial.stats.summary(), sharded.stats.summary()
    for key in left:
        if key in COORDINATION_KEYS:
            continue
        if key == "cpu_seconds":
            assert left[key] == pytest.approx(right[key], rel=1e-12)
        else:
            assert left[key] == right[key], key
    # Per-node statistics are exactly equal, floats included: each node's
    # event processing order is identical, so its accumulations are too.
    assert set(serial.stats.nodes) == set(sharded.stats.nodes)
    for address, mine in serial.stats.nodes.items():
        other = sharded.stats.nodes[address]
        for field in dataclasses.fields(mine):
            assert getattr(mine, field.name) == getattr(other, field.name), (
                address,
                field.name,
            )
    assert serial.events_processed == sharded.events_processed


class TestPartitioner:
    def test_partition_is_deterministic(self):
        topology = random_topology(24, seed=5)
        first = partition_topology(topology, 4, seed=1)
        second = partition_topology(topology, 4, seed=1)
        assert first.assignment == second.assignment
        assert first.shards == second.shards
        assert first.cut_links == second.cut_links

    def test_partition_covers_all_nodes_balanced(self):
        topology = random_topology(23, seed=2)
        plan = partition_topology(topology, 4, seed=0)
        assert sorted(node for group in plan.shards for node in group) == sorted(
            topology.nodes
        )
        sizes = [len(group) for group in plan.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_window_is_min_cross_shard_latency(self):
        topology = random_topology(12, seed=0, latency=0.02)
        plan = partition_topology(topology, 3, seed=0)
        assert plan.cut_links
        assert plan.window == 0.02

    def test_single_shard_has_no_cut(self):
        topology = random_topology(8, seed=0)
        plan = partition_topology(topology, 1, seed=0)
        assert plan.cut_links == ()
        assert plan.window == float("inf")

    def test_more_shards_than_nodes_clamps(self):
        topology = line_topology(3)
        plan = partition_topology(topology, 8, seed=0)
        assert plan.shard_count == 3

    def test_zero_latency_cross_links_rejected(self):
        topology = random_topology(8, seed=0, latency=0.0)
        with pytest.raises(ValueError, match="positive propagation latency"):
            partition_topology(topology, 2, seed=0)

    def test_cut_is_smaller_than_random_split(self):
        # The greedy growth heuristic must beat a round-robin split on a
        # structured graph (a line has a 2-edge optimal bisection).
        topology = line_topology(16)
        plan = partition_topology(topology, 2, seed=0)
        assert len(plan.cut_links) <= 6  # round-robin would cut ~all 30


def _assert_drained(result):
    """At least one receive round ran two or more queued messages: an
    :class:`~repro.net.events.InboxDrain` fired, so the byte-identity contract
    covers it."""
    summary = result.stats.summary()
    assert summary["messages_lost"] == 0
    assert summary["receive_rounds"] < summary["batches_sent"]


def _serial(topology, config, **kwargs):
    return SimulationKernel(
        topology, compile_best_path(), config, key_bits=128, **kwargs
    ).run()


def _sharded(topology, config, shards=3, shard_mode="inline", **kwargs):
    return ShardedSimulator(
        topology,
        compile_best_path(),
        config,
        key_bits=128,
        shards=shards,
        shard_mode=shard_mode,
        **kwargs,
    ).run()


def _within(seconds, call):
    """Run *call* on a helper thread; fail instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised on the calling thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestSerialEquivalence:
    @pytest.mark.parametrize("shards", (2, 3, 5))
    def test_ndlog_identical_across_shard_counts(self, shards):
        topology = random_topology(14, seed=7)
        config = EngineConfig()
        _assert_equivalent(
            _serial(topology, config), _sharded(topology, config, shards=shards)
        )

    def test_signed_provenance_identical(self):
        # Signatures and condensed annotations cross shard boundaries; the
        # per-shard keystores must derive bit-identical keys for the bytes
        # (and the byte *statistics*) to line up.
        topology = random_topology(12, seed=3)
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        serial = _serial(topology, config)
        _assert_equivalent(serial, _sharded(topology, config))
        _assert_drained(serial)

    @pytest.mark.parametrize("shards", (2, 4))
    def test_tiered_provenance_counters_identical(self, shards, tmp_path):
        # The tiered archive's three counters (resident gauge, spilled
        # bytes, spill reads) are integer stats and therefore part of the
        # byte-identical contract: spill records are repr-encoded literals,
        # never pickles, so their sizes cannot vary across processes.
        topology = random_topology(12, seed=5)

        def config():
            return EngineConfig(
                provenance_mode=ProvenanceMode.CONDENSED,
                keep_offline_provenance=True,
                hot_tier_entries=8,
                spill_dir=str(tmp_path),
            )

        serial = _serial(topology, config())
        sharded = _sharded(topology, config(), shards=shards)
        _assert_equivalent(serial, sharded)
        summary = serial.stats.summary()
        assert summary["provenance_bytes_spilled"] > 0
        assert summary["provenance_bytes_resident"] > 0

    @pytest.mark.parametrize("shard_mode", ("inline", "processes"))
    def test_in_memory_spill_log_counters_identical(self, shard_mode):
        # With no spill_dir the log lives in process memory, travels with
        # its engine back from the worker, and its bytes count as
        # resident — on every backend alike.
        topology = random_topology(12, seed=5)

        def config():
            return EngineConfig(
                provenance_mode=ProvenanceMode.CONDENSED,
                keep_offline_provenance=True,
                hot_tier_entries=8,
            )

        serial = _serial(topology, config())
        sharded = _sharded(topology, config(), shards=2, shard_mode=shard_mode)
        _assert_equivalent(serial, sharded)
        summary = serial.stats.summary()
        spilled = summary["provenance_bytes_spilled"]
        assert summary["provenance_bytes_resident"] > spilled > 0

    def test_per_tuple_wire_format_identical(self):
        topology = random_topology(10, seed=4)
        config = EngineConfig()
        _assert_equivalent(
            _serial(topology, config, batching=False),
            _sharded(topology, config, batching=False),
        )

    def test_delivery_order_per_destination_matches_serial(self):
        # The content-based event ranks must replay, at every node, exactly
        # the delivery sequence the serial backend produced.
        topology = random_topology(12, seed=9)

        @contextmanager
        def recording():
            records = []
            original = SimulationKernel._deliver

            def patched(self, message, deliver_at):
                records.append(
                    (
                        str(message.source),
                        str(message.destination),
                        message.sequence,
                        tuple(item.fact.key() for item in getattr(message, "items", ())),
                    )
                )
                return original(self, message, deliver_at)

            SimulationKernel._deliver = patched
            try:
                yield records
            finally:
                SimulationKernel._deliver = original

        def by_destination(records):
            grouped = {}
            for source, destination, sequence, keys in records:
                grouped.setdefault(destination, []).append((source, sequence, keys))
            return grouped

        with recording() as serial_records:
            _serial(topology, EngineConfig())
        with recording() as sharded_records:
            _sharded(topology, EngineConfig(), shards=3)
        assert by_destination(serial_records) == by_destination(sharded_records)
        # Same wire traffic overall, merely interleaved differently.
        assert sorted(serial_records) == sorted(sharded_records)

    def test_malformed_tuples_end_as_rejections_on_both_backends(self):
        # A delivered tuple shaped unlike its relation used to raise out of
        # the primary-key getter — through ``_deliver``, ending the run.  Now
        # it is a rejection the run's statistics count, on either backend.
        from repro.engine.tuples import Fact
        from repro.net.events import MessageDelivery
        from wire import batch_of_one

        topology = random_topology(10, seed=2)
        plan = partition_topology(topology, 2, seed=0)
        source, destination = plan.cut_links[0]
        malformed = (
            Fact("bestPath", (destination,), origin=source),
            Fact("link", (destination, source, 1.0, "x", "y"), origin=source),
            Fact("path", (destination, source), origin=source),
        )

        def drive(simulator):
            for address, facts in simulator.link_facts().items():
                simulator.schedule(
                    FactInjection(time=0.0, address=address, facts=tuple(facts))
                )
            assert simulator.run_until_idle()
            for offset, fact in enumerate(malformed, start=1):
                message = batch_of_one(source, destination, fact)
                simulator.schedule(
                    MessageDelivery(
                        time=simulator.current_time() + offset, message=message
                    )
                )
            assert simulator.run_until_idle()
            return simulator.finish()

        serial = drive(
            SimulationKernel(topology, compile_best_path(), EngineConfig(), key_bits=128)
        )
        sharded = drive(
            ShardedSimulator(
                topology, compile_best_path(), EngineConfig(), key_bits=128,
                shards=2, shard_mode="inline",
            )
        )
        for result in (serial, sharded):
            assert result.stats.summary()["facts_rejected"] == len(malformed)
        _assert_equivalent(serial, sharded)
        # Nothing stored: the genuine link row kept its three columns.
        for relation in ("link", "path", "bestPath"):
            assert _facts_by_node(serial, relation) == _facts_by_node(sharded, relation)
            arities = {
                len(values)
                for rows in _facts_by_node(serial, relation).values()
                for values in rows
            }
            assert len(arities) == 1, (relation, arities)

    def test_facade_builds_sharded_backend(self):
        network = Network.build(
            topology=10,
            program="best-path",
            provenance="ndlog",
            backend="sharded",
            shards=2,
            shard_mode="inline",
            seed=1,
        )
        assert isinstance(network.simulator, ShardedSimulator)
        run = network.run()
        baseline = Network.build(
            topology=10, program="best-path", provenance="ndlog", seed=1
        ).run()
        assert run.summary()["total_bytes"] == baseline.summary()["total_bytes"]
        assert run.count("bestPath") == baseline.count("bestPath")

    def test_netoptions_validates_backend_fields(self):
        with pytest.raises(ValueError, match="backend"):
            NetOptions(backend="warp")
        with pytest.raises(ValueError, match="shard_mode"):
            NetOptions(backend="sharded", shard_mode="threads")
        with pytest.raises(ValueError, match="shards"):
            NetOptions(backend="sharded", shards=-1)


class TestDynamicsAcrossShards:
    """Link failure, churn and retraction crossing shard boundaries."""

    def _run_scenario(self, name, backend, **kwargs):
        from repro.harness.scenarios import (
            SCENARIO_OPTIONS,
            SCENARIOS,
            run_scenario,
        )

        scenario, network = SCENARIOS[name](
            node_count=8,
            seed=1,
            options=SCENARIO_OPTIONS.merged(backend=backend, **kwargs),
        )
        report = run_scenario(scenario, network)
        return report

    @pytest.mark.parametrize("name", ("link-failure", "churn", "retraction"))
    def test_scenario_rows_match_serial(self, name):
        serial = self._run_scenario(name, "serial")
        sharded = self._run_scenario(
            name, "sharded", shards=3, shard_mode="inline"
        )
        assert serial.converged and sharded.converged
        assert len(serial.rows) == len(sharded.rows)
        for left, right in zip(serial.rows, sharded.rows):
            for field in (
                "phase",
                "events",
                "messages",
                "tuples_sent",
                "messages_lost",
                "facts_retracted",
                "probe_facts",
                "query_messages",
            ):
                assert getattr(left, field) == getattr(right, field), (
                    name,
                    left.phase,
                    field,
                )
            assert left.kilobytes == pytest.approx(right.kilobytes)
            assert left.completion_time == pytest.approx(right.completion_time)

    def test_cross_shard_link_failure_loses_messages_identically(self):
        # Fail a link that provably crosses the shard boundary and compare
        # the serial and sharded accounting of the whole episode.
        topology = random_topology(10, seed=2)
        plan = partition_topology(topology, 2, seed=0)
        assert plan.cut_links, "a 2-way split of a connected graph must cut"
        failed_source, failed_destination = plan.cut_links[0]
        from repro.net.events import FactInjection, LinkDown, SoftStateRefresh

        def drive(simulator):
            base = simulator.link_facts()
            for address, facts in base.items():
                simulator.schedule(
                    FactInjection(time=0.0, address=address, facts=tuple(facts))
                )
            assert simulator.run_until_idle()
            at = simulator.current_time() + 1.0
            simulator.schedule(
                LinkDown(time=at, source=failed_source, destination=failed_destination)
            )
            simulator.schedule(SoftStateRefresh(time=at))
            assert simulator.run_until_idle()
            return simulator.finish()

        serial = drive(
            SimulationKernel(
                topology,
                compile_best_path(),
                EngineConfig(default_ttl=30.0, track_dependencies=True),
                key_bits=128,
            )
        )
        sharded = drive(
            ShardedSimulator(
                topology,
                compile_best_path(),
                EngineConfig(default_ttl=30.0, track_dependencies=True),
                key_bits=128,
                shards=2,
                shard_mode="inline",
            )
        )
        _assert_equivalent(serial, sharded)


class TestDynamicsCountersEquivalence:
    """The six churn-plane counters are part of the byte-identical contract.

    Rederivations, anti-delta messages/bytes and the refresh rounds'
    messages/bytes/timer events are all driven by events on simulated
    time, so a script that exercises one-fixpoint deletion *and* a refresh
    round that rebuilds lapsed state must produce exactly equal ledgers on
    the serial backend and on the sharded backend at every shard count.
    """

    COUNTERS = (
        "rederivations",
        "anti_delta_messages",
        "anti_delta_bytes",
        "refresh_messages",
        "refresh_bytes",
        "timer_events",
    )

    def _drive(self, backend, shards=2, provenance="condensed", shard_mode="inline"):
        from repro.datalog import localize_program, parse_program
        from repro.datalog.planner import compile_program
        from repro.engine.tuples import Fact
        from repro.net.events import (
            FactInjection,
            FactRetraction,
            SoftStateRefresh,
        )
        from repro.net.topology import Link
        from repro.queries.reachable import REACHABLE_LOCALIZED

        topology = line_topology(4)
        nodes = topology.nodes
        # Redundant chords so the retraction forces rederivation, not just
        # deletion: every pair stays connected without the bridge.
        topology = topology.with_extra_links(
            [
                Link(source=nodes[0], destination=nodes[2], cost=1.0),
                Link(source=nodes[2], destination=nodes[0], cost=1.0),
                Link(source=nodes[1], destination=nodes[3], cost=1.0),
                Link(source=nodes[3], destination=nodes[1], cost=1.0),
            ]
        )
        network = Network.build(
            topology=topology,
            program=compile_program(
                localize_program(parse_program(REACHABLE_LOCALIZED))
            ),
            provenance=provenance,
            default_ttl=12.0,
            track_dependencies=True,
            rederivation=True,
            backend=backend,
            shards=shards,
            shard_mode=shard_mode,
            key_bits=128,
        )
        simulator = network.simulator
        for node in nodes:
            facts = tuple(
                Fact("link", (link.source, link.destination))
                for link in sorted(
                    topology.outgoing(node), key=lambda l: l.destination
                )
            )
            simulator.schedule(FactInjection(time=0.0, address=node, facts=facts))
        assert simulator.run_until_idle()
        # Past the TTL every tuple has lapsed: the round rebuilds it all.
        simulator.schedule(SoftStateRefresh(time=25.0))
        assert simulator.run_until_idle()
        at = max(simulator.current_time(), 25.0) + 1.0
        simulator.schedule(
            FactRetraction(
                time=at,
                address=nodes[1],
                facts=(Fact("link", (nodes[1], nodes[2])),),
            )
        )
        simulator.schedule(
            FactRetraction(
                time=at,
                address=nodes[2],
                facts=(Fact("link", (nodes[2], nodes[1])),),
            )
        )
        assert simulator.run_until_idle()
        return simulator.finish()

    @pytest.mark.parametrize("shards", (2, 4))
    def test_round_and_rederivation_ledger_identical(self, shards):
        serial = self._drive("serial")
        sharded = self._drive("sharded", shards=shards)
        _assert_equivalent(serial, sharded, relation="reachable")
        summary = serial.stats.summary()
        for key in self.COUNTERS:
            assert summary[key] > 0, key
            assert summary[key] == sharded.stats.summary()[key], key

    @pytest.mark.parametrize("shard_mode", ("inline", "processes"))
    def test_every_node_ledger_identical_in_both_shard_modes(self, shard_mode):
        """Each exported tuple's support crosses a shard boundary as its
        support code, through the frame codec (and the worker pipes), and is
        rebuilt from the payload there: every ``NodeStats`` field of every
        node matches the serial run."""
        _assert_equivalent(
            self._drive("serial"),
            self._drive("sharded", shard_mode=shard_mode),
            relation="reachable",
        )

    def test_signed_envelopes_and_anti_deltas_cross_shards(self):
        """Under signed ``says`` every tuple and anti-delta that crosses a
        shard boundary is opened from its decoded frame: same ledger, nothing
        rejected, and the anti-deltas paid for their signatures."""
        unsigned = self._drive("serial")
        serial = self._drive("serial", provenance="sendlog-prov")
        sharded = self._drive("sharded", shards=4, provenance="sendlog-prov")
        _assert_equivalent(serial, sharded, relation="reachable")
        _assert_drained(serial)
        for result in (serial, sharded):
            summary = result.stats.summary()
            assert summary["verification_failures"] == summary["facts_rejected"] == 0
            # Envelopes that verified and were fresh: tuples and anti-deltas.
            assert summary["facts_verified"] > 0
        signed, plain = serial.stats.summary(), unsigned.stats.summary()
        assert signed["anti_delta_messages"] > 0
        assert signed["anti_delta_bytes"] > plain["anti_delta_bytes"] > 0


class TestShardedQueries:
    def test_inline_query_pays_messages_and_matches_serial_graph(self):
        topology = random_topology(8, seed=6)
        config = EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED)
        serial_simulator = SimulationKernel(
            topology, compile_best_path(), config, key_bits=128
        )
        serial_result = serial_simulator.run()
        sharded_simulator = ShardedSimulator(
            topology,
            compile_best_path(),
            EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED),
            key_bits=128,
            shards=3,
            shard_mode="inline",
        )
        sharded_result = sharded_simulator.run()
        _assert_equivalent(serial_result, sharded_result)

        target = max(
            serial_result.all_facts("bestPath"), key=lambda fact: len(fact.values[2])
        )
        asker = target.values[0]
        serial_answer = Network(serial_simulator).query(target, at=asker)
        sharded_answer = Network(sharded_simulator).query(target, at=asker)
        assert serial_answer.complete and sharded_answer.complete
        assert serial_answer.graph.same_structure(sharded_answer.graph)
        assert serial_answer.messages == sharded_answer.messages
        assert serial_answer.bytes == sharded_answer.bytes

    def test_query_from_foreign_shard_ships_instead_of_dropping(self):
        # Regression: a query issued *between* drains ships its first
        # requests outside any window; cross-shard ones must enter the
        # coordinator's export path, not be scheduled (and dropped) on the
        # asker's own kernel.
        topology = random_topology(8, seed=6)
        config = EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED)
        serial_simulator = SimulationKernel(
            topology, compile_best_path(), config, key_bits=128
        )
        serial_result = serial_simulator.run()
        sharded_simulator = ShardedSimulator(
            topology,
            compile_best_path(),
            EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED),
            key_bits=128,
            shards=3,
            shard_mode="inline",
        )
        sharded_simulator.run()
        # Ask at the route's origin (the asker expands its own store first,
        # so it must hold the root) for a route whose hops live on other
        # shards: the pointer dereferences the local closure names are the
        # first requests, and they must cross the shard boundary.  Some
        # roots are legitimately unresolvable even serially (aggregate churn
        # invalidated their pointers); pick one the serial oracle completes.
        plan = sharded_simulator.plan
        candidates = (
            fact
            for fact in serial_result.all_facts("bestPath")
            if any(
                plan.shard_of(hop) != plan.shard_of(fact.values[0])
                for hop in fact.values[2]
            )
        )
        serial_answer = target = None
        for candidate in candidates:
            answer = Network(serial_simulator).query(candidate, at=candidate.values[0])
            if answer.complete and answer.messages:
                serial_answer, target = answer, candidate
                break
        assert target is not None, "no serially-resolvable cross-shard root"
        sharded_answer = Network(sharded_simulator).query(target, at=target.values[0])
        assert sharded_answer.complete == serial_answer.complete is True
        assert sharded_answer.messages == serial_answer.messages
        assert sharded_answer.bytes == serial_answer.bytes
        assert sharded_answer.timeouts == 0
        assert sharded_simulator.stats.messages_dropped == 0
        assert serial_answer.graph.same_structure(sharded_answer.graph)

    def test_concurrent_same_id_queries_bill_separately(self):
        # Regression: query ids are only unique per kernel; a response
        # crossing shards must bill the asker's pending query, not an
        # unrelated same-id query pending at the responder's kernel.
        topology = random_topology(8, seed=6)

        def build_and_query(simulator):
            simulator.run()
            routes = sorted(
                (fact for fact in simulator.engines["n0"].facts("bestPath")),
                key=lambda fact: fact.values,
            )
            askers = []
            for fact in routes:
                if fact.values[0] not in askers:
                    askers.append(fact.values[0])
            from repro.net.query import ProvenanceQuery

            pendings = [
                simulator.issue_query(
                    ProvenanceQuery(root=routes[0].key(), at=askers[0])
                ),
                simulator.issue_query(
                    ProvenanceQuery(root=routes[-1].key(), at="n0")
                ),
            ]
            assert simulator.run_until_idle()
            return [(p.result().messages, p.result().bytes) for p in pendings]

        serial_bills = build_and_query(
            SimulationKernel(
                topology,
                compile_best_path(),
                EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED),
                key_bits=128,
            )
        )
        sharded_bills = build_and_query(
            ShardedSimulator(
                topology,
                compile_best_path(),
                EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED),
                key_bits=128,
                shards=3,
                shard_mode="inline",
            )
        )
        assert serial_bills == sharded_bills

    def test_mid_run_engines_guarded_in_process_mode(self):
        topology = random_topology(6, seed=0)
        simulator = ShardedSimulator(
            topology,
            compile_best_path(),
            EngineConfig(),
            key_bits=128,
            shards=2,
            shard_mode="processes",
        )
        # Workers are started lazily; before finish(), engines stay remote.
        simulator._ensure_running()
        with pytest.raises(RuntimeError, match="finish"):
            _ = simulator.engines
        simulator.close()


def _running(pid):
    """Whether *pid* is a live process; a zombie (exited, not yet reaped by
    whoever adopted it) is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


class TestProcessWorkers:
    """The multiprocessing worker path: workers forked from the coordinator."""

    def test_process_mode_matches_serial_and_returns_engines(self):
        topology = random_topology(8, seed=11)
        config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        serial = _serial(topology, config)
        sharded = _sharded(
            topology,
            EngineConfig(
                says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
            ),
            shards=2,
            shard_mode="processes",
        )
        _assert_equivalent(serial, sharded)
        # The worker kernels were reeled back in whole: engines (and their
        # provenance stores) are real and inspectable, exactly like serial.
        assert set(sharded.engines) == set(topology.nodes)
        any_engine = next(iter(sharded.engines.values()))
        assert any_engine.compiled is not None

    @pytest.mark.parametrize("drains_before_kill", (0, 1))
    def test_killed_worker_ends_in_a_structured_error(self, drains_before_kill):
        # SIGKILL one worker — right after its start, or between two drains
        # — and the next drain must name the shard and its exit code, stop
        # every other worker, and neither hang nor leak a bare pipe error.
        simulator = ShardedSimulator(
            random_topology(12, seed=4),
            compile_best_path(),
            EngineConfig(),
            key_bits=128,
            shards=2,
            shard_mode="processes",
        )
        for address, facts in simulator.link_facts().items():
            simulator.schedule(
                FactInjection(time=0.0, address=address, facts=tuple(facts))
            )
        simulator._ensure_running()
        processes = [worker.process for worker in simulator._workers]
        try:
            if drains_before_kill:
                assert _within(30, simulator.run_until_idle)
                simulator.schedule(SoftStateRefresh(time=simulator.current_time() + 1))
            os.kill(processes[1].pid, signal.SIGKILL)
            with pytest.raises(
                ShardWorkerError, match=r"shard 1 worker .*exit code -9"
            ):
                _within(30, simulator.run_until_idle)
            for process in processes:
                process.join(timeout=5)
            assert not any(process.is_alive() for process in processes)
            assert simulator._workers is None
        finally:
            simulator.close()

    def test_failure_reply_names_the_shard_and_stops_every_worker(self):
        # A live worker that fails an op replies with its error and exits;
        # the coordinator must name the shard and stop the other workers too.
        simulator = ShardedSimulator(
            random_topology(8, seed=4),
            compile_best_path(),
            EngineConfig(),
            key_bits=128,
            shards=2,
            shard_mode="processes",
        )
        simulator._ensure_running()
        workers = simulator._workers
        processes = [worker.process for worker in workers]
        try:
            workers[1].send_command(pickle.dumps((0xEE,)))
            with pytest.raises(
                ShardWorkerError, match=r"shard 1 worker failed: .*unknown shard worker op"
            ):
                _within(30, workers[1].recv_reply)
            for process in processes:
                process.join(timeout=5)
            assert not any(process.is_alive() for process in processes)
            assert simulator._workers is None
        finally:
            simulator.close()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_a_killed_coordinator_leaves_no_live_worker(self, tmp_path):
        # A worker closes every coordinator-side pipe end its fork
        # inherited, so the coordinator's death is end-of-file on each
        # worker's pipe.  The pids travel through a file and no stream is
        # captured: an orphan holding a pipe to this process would hang the
        # read.
        pids = tmp_path / "pids"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.api.network import Network
            network = Network.build(topology=8, program="best-path",
                                    provenance="ndlog", seed=4, key_bits=128,
                                    backend="sharded", shards=2,
                                    shard_mode="processes")
            network.simulator._ensure_running()
            with open({str(pids)!r}, "w") as handle:
                handle.write(" ".join(
                    str(worker.process.pid) for worker in network.simulator._workers
                ))
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        source = Path(repro.__file__).resolve().parent.parent
        coordinator = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(source)),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert coordinator.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        for pid in orphans:  # leave no orphan behind a failure
            os.kill(pid, signal.SIGKILL)
        assert not orphans


class TestInlineWorkers:
    """The in-process worker path: the debugger-friendly mode keeps the
    original exception of a failing op."""

    @staticmethod
    def _run_with_failing_window(monkeypatch, error):
        def fail(kernel, horizon, imports=()):
            raise error

        monkeypatch.setattr(SimulationKernel, "run_window", fail)
        simulator = ShardedSimulator(
            random_topology(8, seed=4),
            compile_best_path(),
            EngineConfig(),
            key_bits=128,
            shards=2,
            shard_mode="inline",
        )
        simulator.run()

    def test_a_failing_op_surfaces_with_its_cause(self, monkeypatch):
        error = ValueError("window refused")
        with pytest.raises(
            ShardWorkerError, match=r"shard 0 worker failed: ValueError: window refused"
        ) as raised:
            self._run_with_failing_window(monkeypatch, error)
        assert raised.value.__cause__ is error
        assert error.__traceback__ is not None

    @pytest.mark.parametrize("error", (KeyboardInterrupt(), SystemExit(3)))
    def test_interrupts_pass_through_unchanged(self, monkeypatch, error):
        with pytest.raises(type(error)) as raised:
            self._run_with_failing_window(monkeypatch, error)
        assert raised.value is error


class TestCoordinationLedger:
    """The coordinator's books: cheap empty drains, kernel-local query
    billing, and a ledger that does not depend on the worker mode."""

    def test_empty_drain_is_cheap(self):
        # A drain with nothing to do pays one small fixed-size flush round
        # per shard and no window.
        topology = random_topology(10, seed=2)
        simulator = ShardedSimulator(
            topology,
            compile_best_path(),
            EngineConfig(),
            key_bits=128,
            shards=2,
            shard_mode="inline",
        )
        simulator.run()
        rounds = simulator._coordination_rounds
        bytes_before = simulator._coordination_bytes
        windows = simulator._windows_executed
        assert simulator.run_until_idle()
        assert simulator._coordination_rounds - rounds == simulator.plan.shard_count
        assert (
            simulator._coordination_bytes - bytes_before
            <= 96 * simulator.plan.shard_count
        )
        assert simulator._windows_executed == windows

    def test_query_receipts_keep_kernel_books_local(self):
        # Responses passing through a kernel that does not host
        # the asker are recorded as receipts and settled at merge time; no
        # kernel's stats book ever names a node it does not host.
        topology = random_topology(8, seed=6)
        serial_simulator = SimulationKernel(
            topology,
            compile_best_path(),
            EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED),
            key_bits=128,
        )
        serial_result = serial_simulator.run()
        sharded_simulator = ShardedSimulator(
            topology,
            compile_best_path(),
            EngineConfig(provenance_mode=ProvenanceMode.DISTRIBUTED),
            key_bits=128,
            shards=3,
            shard_mode="inline",
        )
        sharded_simulator.run()
        plan = sharded_simulator.plan
        # Queries whose closure provably crosses shards, from several askers.
        queried = 0
        for fact in sorted(
            serial_result.all_facts("bestPath"), key=lambda f: f.values
        ):
            asker = fact.values[0]
            if any(plan.shard_of(hop) != plan.shard_of(asker) for hop in fact.values[2]):
                Network(serial_simulator).query(fact, at=asker)
                Network(sharded_simulator).query(fact, at=asker)
                queried += 1
                if queried == 3:
                    break
        assert queried, "no cross-shard query candidates"
        assert sharded_simulator._kernels is not None
        receipts_seen = 0
        for shard, kernel in enumerate(sharded_simulator._kernels):
            hosted = set(plan.shards[shard])
            assert set(kernel.stats.nodes) <= hosted, "stats book not local"
            assert set(kernel.query_receipts) <= set(topology.nodes) - hosted
            receipts_seen += sum(kernel.query_receipts.values())
        assert receipts_seen > 0, "expected cross-shard response billing"
        # The settled merge matches the serial ledger node for node.
        serial_nodes = serial_simulator.stats
        merged = sharded_simulator.stats
        for address in topology.nodes:
            assert (
                serial_nodes.node(address).query_bytes_charged
                == merged.node(address).query_bytes_charged
            ), address

    def test_ledger_identical_between_inline_and_process_modes(self):
        # The coordination ledger is part of the deterministic contract:
        # byte-identical frames in both shard modes, so identical counters.
        topology = random_topology(8, seed=11)
        ledgers = []
        for mode in ("inline", "processes"):
            simulator = ShardedSimulator(
                topology,
                compile_best_path(),
                EngineConfig(),
                key_bits=128,
                shards=2,
                shard_mode=mode,
            )
            result = simulator.run()
            summary = result.stats.summary()
            ledgers.append(
                {key: summary[key] for key in COORDINATION_KEYS}
            )
        assert ledgers[0] == ledgers[1]
        assert ledgers[0]["windows_executed"] > 0


class TestServicePlaneEquivalence:
    """The query service plane is part of the cross-backend contract.

    Arrival streams are precomputed pure functions of the workload spec and
    the node list; admission buckets, cache epochs and latency buckets all
    run on simulated time — so every new integer counter (rejected / shed /
    completed, cache hits / misses / invalidations, both histograms) must
    be byte-identical between the serial and sharded backends, in every
    shard mode, under open- and closed-loop load.
    """

    def _served(
        self, backend, shards=2, shard_mode="inline", clients=0, flap=None,
        condensed=False,
    ):
        from repro.net.events import LinkDown, LinkUp
        from repro.service import QueryWorkload

        network = Network.build(
            topology=10,
            program="best-path",
            provenance="condensed",
            options=NetOptions(
                key_bits=128,
                backend=backend,
                shards=shards,
                shard_mode=shard_mode,
                query_cache=True,
                admission_rate=2.0,
                seed=6,
            ),
        )
        workload = QueryWorkload(
            rate=5.0, clients=clients, think_time=0.7, duration=6.0, seed=11,
            condensed=condensed,
        )
        if flap is None:
            return network.serve(workload)
        # Both directions of *flap* fail and recover inside the serve window;
        # the program's link tuples stay (retract=False), so only query
        # routing — every kernel's own route table — sees the change.
        network.run()
        start = network.current_time()
        for source, destination in (flap, flap[::-1]):
            network.schedule(
                LinkDown(
                    time=start + 1.5,
                    source=source,
                    destination=destination,
                    retract=False,
                )
            )
            network.schedule(
                LinkUp(time=start + 4.0, source=source, destination=destination)
            )
        return network.serve(workload, converge=False)

    @pytest.mark.parametrize("shards", (2, 4))
    def test_open_loop_counters_identical_inline(self, shards):
        serial = self._served("serial")
        sharded = self._served("sharded", shards=shards)
        _assert_equivalent(serial, sharded)
        # The workload must have actually exercised the plane.
        assert serial.queries_completed > 0
        assert serial.queries_rejected > 0
        assert serial.stats.total("cache_hits") > 0

    def test_query_bytes_per_node_identical_inline(self):
        # Responses carry closure records and condensed annotations but no
        # key; both backends rebuild and bill them alike, node for node.
        serial = self._served("serial", condensed=True)
        sharded = self._served("sharded", condensed=True)
        _assert_equivalent(serial, sharded)
        for field in ("query_bytes_sent", "query_messages_sent"):
            per_node = {
                address: getattr(node, field)
                for address, node in serial.stats.nodes.items()
            }
            assert per_node == {
                address: getattr(node, field)
                for address, node in sharded.stats.nodes.items()
            }
            assert sum(1 for count in per_node.values() if count) > 1
        # The condensed answers did ship their annotations.
        plain = self._served("serial")
        assert serial.stats.total("query_bytes_sent") > plain.stats.total(
            "query_bytes_sent"
        )

    @pytest.mark.parametrize("shards", (2, 4))
    def test_closed_loop_counters_identical_inline(self, shards):
        serial = self._served("serial", clients=3)
        sharded = self._served("sharded", shards=shards, clients=3)
        _assert_equivalent(serial, sharded)
        assert serial.queries_completed > 0

    def test_mixed_load_counters_identical_processes(self):
        serial = self._served("serial", clients=2)
        sharded = self._served(
            "sharded", shards=2, shard_mode="processes", clients=2
        )
        _assert_equivalent(serial, sharded)
        assert serial.offered == sharded.offered
        assert serial.service().as_dict() == sharded.service().as_dict()

    @pytest.mark.parametrize("shard_mode", ("inline", "processes"))
    def test_link_flap_inside_serve_window(self, shard_mode):
        # A shard serving from a stale route table, or a message whose size
        # memo did not survive the trip between kernels, shows up here as a
        # different loss count, byte count or latency histogram.
        flap = ("n2", "n3")
        calm = self._served("serial")
        serial = self._served("serial", flap=flap)
        sharded = self._served("sharded", shards=2, shard_mode=shard_mode, flap=flap)
        # Every summary counter (query_bytes, query_messages, messages_lost
        # among them) and every per-node field, then the SLO report.
        _assert_equivalent(serial, sharded)
        assert serial.service().as_dict() == sharded.service().as_dict()
        # The flap must have bitten: queries were lost to the partition.
        lost = serial.stats.summary()["messages_lost"]
        assert lost > calm.stats.summary()["messages_lost"]

    def test_latency_percentiles_identical(self):
        # Percentiles are pure functions of the integer histograms, so they
        # must match exactly — no float tolerance.
        serial = self._served("serial")
        sharded = self._served("sharded", shards=4)
        assert serial.query_p50_ms == sharded.query_p50_ms
        assert serial.query_p95_ms == sharded.query_p95_ms
        assert serial.query_p99_ms == sharded.query_p99_ms
