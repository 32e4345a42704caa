"""Typed simulation events: scheduler ordering and dynamic-network semantics.

Covers the EventScheduler's deterministic (time, priority, sequence) order,
link failure/recovery, node crash/recovery, base-fact injection/retraction
through the event loop, the retraction cascade with provenance invalidation,
aggregate-group repair after expiry, and the end-of-run residual soft-state
sweep.
"""

from __future__ import annotations

import pytest

from repro.datalog import localize_program, parse_program
from repro.datalog.planner import compile_program
from repro.engine.node_engine import EngineConfig, NodeEngine, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.events import (
    EventScheduler,
    FactInjection,
    FactRetraction,
    LinkDown,
    LinkUp,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
)
from repro.net.message import Message
from repro.net.kernel import SimulationKernel
from repro.net.topology import line_topology, random_topology, ring_topology
from repro.queries.best_path import compile_best_path
from repro.queries.reachable import REACHABLE_LOCALIZED


@pytest.fixture(scope="module")
def compiled_reachable():
    return compile_program(localize_program(parse_program(REACHABLE_LOCALIZED)))


def reachable_base(topology):
    return {
        node: [
            Fact("link", (link.source, link.destination))
            for link in topology.outgoing(node)
        ]
        for node in topology.nodes
    }


def delivery(at, sequence=0):
    return MessageDelivery(
        time=at,
        message=Message(
            source="a", destination="b", fact=Fact("r", (at,)), sequence=sequence
        ),
    )


class TestEventScheduler:
    def test_pops_in_time_order(self):
        scheduler = EventScheduler()
        scheduler.schedule(delivery(3.0))
        scheduler.schedule(delivery(1.0))
        scheduler.schedule(delivery(2.0))
        assert [scheduler.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_control_events_fire_before_deliveries_at_equal_time(self):
        scheduler = EventScheduler()
        scheduler.schedule(delivery(1.0))
        scheduler.schedule(LinkDown(time=1.0, source="a", destination="b"))
        first, second = scheduler.pop(), scheduler.pop()
        assert isinstance(first, LinkDown)
        assert isinstance(second, MessageDelivery)

    def test_equal_events_fire_in_scheduling_order(self):
        scheduler = EventScheduler()
        events = [NodeCrash(time=2.0, address=f"n{i}") for i in range(5)]
        for event in events:
            scheduler.schedule(event)
        assert [scheduler.pop() for _ in range(5)] == events

    def test_peek_time_and_len(self):
        scheduler = EventScheduler()
        assert scheduler.peek_time() is None
        assert not scheduler
        scheduler.schedule(delivery(4.0))
        scheduler.schedule(delivery(2.0))
        assert scheduler.peek_time() == 2.0
        assert len(scheduler) == 2

    def test_pending_is_nondestructive_and_ordered(self):
        scheduler = EventScheduler()
        scheduler.schedule(delivery(2.0))
        scheduler.schedule(delivery(1.0))
        pending = scheduler.pending()
        assert [event.time for event in pending] == [1.0, 2.0]
        assert len(scheduler) == 2


class TestLinkDynamics:
    def test_messages_shipped_on_a_down_link_are_lost(self, compiled_reachable):
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        simulator.schedule(
            LinkDown(time=0.0, source="n0", destination="n1", retract=False)
        )
        result = simulator.run(reachable_base(topology))
        assert result.converged
        assert result.stats.messages_lost > 0
        # n2 never hears n0's advertisements through the dead link, so the
        # pair (n1, n0)/(n2, n0) reachability derived *through* n0->n1 differs
        # from the healthy run.
        healthy = SimulationKernel(topology, compiled_reachable, EngineConfig()).run(
            reachable_base(topology)
        )
        assert len(result.all_facts("reachable")) < len(
            healthy.all_facts("reachable")
        )

    def test_link_down_retracts_the_source_base_tuple(self, compiled_reachable):
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        result = simulator.run(reachable_base(topology))
        before = simulator.engines["n0"].facts("link")
        assert any(f.values == ("n0", "n1") for f in before)
        simulator.schedule(LinkDown(time=1.0, source="n0", destination="n1"))
        assert simulator.run_until_idle()
        after = simulator.engines["n0"].facts("link")
        assert not any(f.values == ("n0", "n1") for f in after)
        assert simulator.stats.total("facts_retracted") >= 1

    def test_link_up_reinjects_the_retracted_tuples(self, compiled_reachable):
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        simulator.run(reachable_base(topology))
        simulator.schedule(LinkDown(time=1.0, source="n0", destination="n1"))
        simulator.schedule(LinkUp(time=2.0, source="n0", destination="n1"))
        assert simulator.run_until_idle()
        assert simulator.link_is_up("n0", "n1")
        restored = simulator.engines["n0"].facts("link")
        assert any(f.values == ("n0", "n1") for f in restored)

    def test_recovered_link_does_not_inherit_stale_busy_window(
        self, compiled_reachable
    ):
        # Regression: transmissions serialized behind a failure reserved the
        # wire far into the future; a recovered link must start fresh, not
        # queue new traffic behind sends that never happened.
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        simulator.run(reachable_base(topology))
        simulator.schedule(LinkDown(time=1.0, source="n0", destination="n1"))
        assert simulator.run_until_idle()
        # Traffic shipped while the link is down still reserves the wire
        # (the sender cannot tell); model a long queue of such sends.
        simulator._link_busy_until[("n0", "n1")] = 1.0e9
        simulator.schedule(LinkUp(time=2.0, source="n0", destination="n1"))
        assert simulator.run_until_idle()
        result = simulator.finish()
        # The re-injected link tuple's advertisements crossed the recovered
        # wire immediately: nothing waited out the phantom busy window.
        assert result.stats.completion_time < 1.0e3
        assert simulator._link_busy_until.get(("n0", "n1"), 0.0) < 1.0e3
        assert any(
            f.values == ("n0", "n1")
            for f in simulator.engines["n0"].facts("link")
        )

    def test_link_up_during_a_crash_is_restored_on_recovery(
        self, compiled_reachable
    ):
        # LinkUp while the source is down cannot inject, but the restored
        # tuples are remembered — recovery must bring the link back.
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        simulator.run(reachable_base(topology))
        simulator.schedule(LinkDown(time=1.0, source="n0", destination="n1"))
        simulator.schedule(NodeCrash(time=2.0, address="n0"))
        simulator.schedule(LinkUp(time=3.0, source="n0", destination="n1"))
        simulator.schedule(NodeRecover(time=4.0, address="n0"))
        assert simulator.run_until_idle()
        restored = simulator.engines["n0"].facts("link")
        assert any(f.values == ("n0", "n1") for f in restored)

    def test_repeated_link_down_keeps_the_remembered_tuples(
        self, compiled_reachable
    ):
        # A second LinkDown for an already-retracted link must not clobber
        # the remembered tuples with nothing — a later bare LinkUp still
        # restores the link.
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        simulator.run(reachable_base(topology))
        simulator.schedule(LinkDown(time=1.0, source="n0", destination="n1"))
        simulator.schedule(LinkDown(time=2.0, source="n0", destination="n1"))
        simulator.schedule(LinkUp(time=3.0, source="n0", destination="n1"))
        assert simulator.run_until_idle()
        restored = simulator.engines["n0"].facts("link")
        assert any(f.values == ("n0", "n1") for f in restored)


class TestNodeChurn:
    def test_crash_clears_soft_state_and_drops_traffic(self, compiled_reachable):
        topology = ring_topology(4)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        base = reachable_base(topology)
        # Hold one of n0's links back so it can be injected fresh post-crash.
        held_back = Fact("link", ("n0", "n1"))
        base["n0"] = [f for f in base["n0"] if f.values != held_back.values]
        simulator.run(base)
        assert simulator.engines["n1"].facts("reachable")
        simulator.schedule(NodeCrash(time=5.0, address="n1"))
        simulator.schedule(
            FactInjection(time=6.0, address="n0", facts=(held_back,))
        )
        assert simulator.run_until_idle()
        assert not simulator.node_is_up("n1")
        assert simulator.engines["n1"].facts("reachable") == ()
        # The fresh link advertises to the crashed node: nobody is listening.
        assert simulator.stats.messages_lost > 0

    def test_injections_at_a_crashed_node_are_ignored(self, compiled_reachable):
        topology = ring_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        simulator.schedule(NodeCrash(time=0.0, address="n0"))
        simulator.schedule(
            FactInjection(
                time=1.0, address="n0", facts=(Fact("link", ("n0", "n1")),)
            )
        )
        assert simulator.run_until_idle()
        assert simulator.engines["n0"].facts("link") == ()

    def test_recover_reinjects_remembered_base_facts(self, compiled_reachable):
        topology = ring_topology(4)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        simulator.run(reachable_base(topology))
        simulator.schedule(NodeCrash(time=5.0, address="n1"))
        simulator.schedule(NodeRecover(time=6.0, address="n1"))
        assert simulator.run_until_idle()
        assert simulator.node_is_up("n1")
        links = simulator.engines["n1"].facts("link")
        assert any(f.values == ("n1", "n2") for f in links)

    def test_offline_archive_survives_a_crash(self):
        topology = line_topology(3)
        config = EngineConfig(
            provenance_mode=ProvenanceMode.CONDENSED, keep_offline_provenance=True
        )
        simulator = SimulationKernel(topology, compile_best_path(), config)
        simulator.run()
        engine = simulator.engines["n1"]
        archived = len(engine.offline_provenance)
        assert archived > 0
        simulator.schedule(NodeCrash(time=10.0, address="n1"))
        assert simulator.run_until_idle()
        assert len(engine.offline_provenance) == archived
        assert engine.provenance.keys() == ()
        assert not engine.provenance.knows(("link", ("n1", "n2", 1.0)))


class TestRetraction:
    def _engine(self, compiled, **config_kwargs):
        config_kwargs.setdefault("track_dependencies", True)
        return NodeEngine("a", compiled, EngineConfig(**config_kwargs))

    def test_cascade_deletes_local_dependents(self, compiled_reachable):
        engine = self._engine(compiled_reachable)
        engine.insert_base(Fact("link", ("a", "b")), now=0.0)
        assert any(
            f.values == ("a", "b") for f in engine.facts("reachable")
        )
        result = engine.retract_base(Fact("link", ("a", "b")), now=1.0)
        assert result.report.facts_retracted == 2  # the link + reachable(a,b)
        assert not any(
            f.values == ("a", "b") for f in engine.facts("reachable")
        )

    def test_retraction_without_tracking_deletes_only_the_base(
        self, compiled_reachable
    ):
        engine = self._engine(compiled_reachable, track_dependencies=False)
        engine.insert_base(Fact("link", ("a", "b")), now=0.0)
        result = engine.retract_base(Fact("link", ("a", "b")), now=1.0)
        assert result.report.facts_retracted == 1
        assert any(f.values == ("a", "b") for f in engine.facts("reachable"))

    def test_retracting_an_absent_fact_is_a_noop(self, compiled_reachable):
        engine = self._engine(compiled_reachable)
        result = engine.retract_base(Fact("link", ("a", "zz")), now=0.0)
        assert result.report.facts_retracted == 0

    def test_provenance_is_invalidated(self, compiled_reachable):
        engine = self._engine(
            compiled_reachable, provenance_mode=ProvenanceMode.CONDENSED
        )
        engine.insert_base(Fact("link", ("a", "b")), now=0.0)
        reachable = next(
            f for f in engine.facts("reachable") if f.values == ("a", "b")
        )
        assert reachable.key() in engine.provenance.keys()
        engine.retract_base(Fact("link", ("a", "b")), now=1.0)
        assert reachable.key() not in engine.provenance.keys()
        assert Fact("link", ("a", "b")).key() not in engine.provenance.keys()
        assert not engine.provenance.knows(reachable.key())

    def test_remote_destined_provenance_is_invalidated_too(
        self, compiled_reachable
    ):
        # l2 derives linkd(@b, a) at a and ships it — never stored locally,
        # but a *recorded its provenance*.  Retracting the supporting link
        # must stop a's stores from vouching for the shipped tuple as well.
        engine = self._engine(
            compiled_reachable, provenance_mode=ProvenanceMode.CONDENSED
        )
        engine.insert_base(Fact("link", ("a", "b")), now=0.0)
        shipped_key = ("linkd", ("b", "a"))
        assert shipped_key in engine.provenance.keys()
        engine.retract_base(Fact("link", ("a", "b")), now=1.0)
        assert shipped_key not in engine.provenance.keys()
        assert not engine.provenance.knows(shipped_key)

    def test_online_store_stops_vouching_too(self, compiled_reachable):
        engine = self._engine(
            compiled_reachable,
            provenance_mode=ProvenanceMode.CONDENSED,
        )
        engine.insert_base(Fact("link", ("a", "b")), now=0.0)
        reachable = next(
            f for f in engine.facts("reachable") if f.values == ("a", "b")
        )
        assert engine.provenance.pointers(reachable.key())
        engine.retract_base(Fact("link", ("a", "b")), now=1.0)
        assert not engine.provenance.pointers(reachable.key())
        assert engine.provenance.graph(reachable.key()).operators() == ()

    def test_retracting_an_already_expired_tuple_counts_no_work(
        self, compiled_reachable
    ):
        engine = self._engine(compiled_reachable)
        engine.insert_base(Fact("link", ("a", "b"), ttl=5.0), now=0.0)
        # Long after the TTL elapsed the tuple ceased to exist on its own:
        # retraction must not count (or charge for) deleting it, but the
        # cascade still removes its live (hard-state) dependent.
        result = engine.retract_base(Fact("link", ("a", "b")), now=100.0)
        assert result.report.facts_retracted == 1
        assert not any(f.values == ("a", "b") for f in engine.facts("link"))
        assert not any(
            f.values == ("a", "b") for f in engine.facts("reachable")
        )

    def test_identical_rederivation_merges_back_after_invalidation(
        self, compiled_reachable
    ):
        # Invalidation forgets the producing firings; a later identical
        # re-derivation must be recorded afresh and show up in the graph view.
        engine = self._engine(
            compiled_reachable, provenance_mode=ProvenanceMode.FULL_LOCAL
        )
        engine.insert_base(Fact("link", ("a", "b")), now=0.0)
        key = ("reachable", ("a", "b"))
        assert engine.provenance.graph(key).producers(key)
        engine.retract_base(Fact("link", ("a", "b")), now=1.0)
        assert not engine.provenance.graph(key).producers(key)
        engine.insert_base(Fact("link", ("a", "b")), now=2.0)
        assert len(engine.provenance.graph(key).producers(key)) == 1
        assert not engine.provenance.graph(key).is_base(key)

    def test_aggregate_group_is_forgotten_on_retraction(self):
        compiled = compile_best_path()
        engine = NodeEngine(
            "a", compiled, EngineConfig(track_dependencies=True)
        )
        engine.insert_base(Fact("link", ("a", "a2", 5.0)), now=0.0)
        [cost] = [f for f in engine.facts("bestPathCost")]
        assert cost.values[2] == 5.0
        engine.retract_base(Fact("link", ("a", "a2", 5.0)), now=1.0)
        assert engine.facts("bestPathCost") == ()
        # A worse path must be able to re-establish the group.
        engine.insert_base(Fact("link", ("a", "a2", 9.0)), now=2.0)
        [cost] = [f for f in engine.facts("bestPathCost")]
        assert cost.values[2] == 9.0

    def test_retraction_event_flows_through_the_simulator(self, compiled_reachable):
        topology = line_topology(3)
        simulator = SimulationKernel(
            topology,
            compiled_reachable,
            EngineConfig(track_dependencies=True),
        )
        simulator.run(reachable_base(topology))
        simulator.schedule(
            FactRetraction(
                time=2.0, address="n0", facts=(Fact("link", ("n0", "n1")),)
            )
        )
        assert simulator.run_until_idle()
        assert not any(
            f.values == ("n0", "n1") for f in simulator.engines["n0"].facts("link")
        )
        assert simulator.stats.node("n0").facts_retracted >= 1


class TestAggregateExpiryRepair:
    def test_expired_aggregate_group_accepts_worse_values(self):
        compiled = compile_best_path()
        engine = NodeEngine("a", compiled, EngineConfig(default_ttl=5.0))
        engine.insert_base(Fact("link", ("a", "b", 2.0)), now=0.0)
        [cost] = engine.facts("bestPathCost")
        assert cost.values[2] == 2.0
        # After expiry, the min-group must be re-establishable: a refreshed,
        # more expensive link yields a *worse* best cost instead of being
        # rejected by stale aggregate state.
        engine.database.expire(now=10.0)
        assert engine.facts("bestPathCost") == ()
        engine.insert_base(Fact("link", ("a", "b", 7.0)), now=10.0)
        [cost] = engine.facts("bestPathCost")
        assert cost.values[2] == 7.0


SOFT_MIN = """
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(best, 10, infinity, keys(1)).

    b1 best(@S, min<C>) :- link(@S, D, C).
"""


class TestAggregateExpiryRace:
    def test_fresh_best_survives_the_insert_triggered_sweep(self):
        # The stored aggregate tuple expires during the very insert that
        # stores its fresher replacement; the expiry hook must not wipe the
        # just-recorded group, or a later worse value would displace it.
        compiled = compile_program(localize_program(parse_program(SOFT_MIN)))
        engine = NodeEngine("a", compiled, EngineConfig())
        engine.insert_base(Fact("link", ("a", "b", 2.0)), now=0.0)
        [best] = engine.facts("best")
        assert best.values[1] == 2.0
        # Long after best(a, 2) expired, a strictly better value arrives:
        # its insert sweeps the stale tuple out of the same table.
        engine.insert_base(Fact("link", ("a", "d", 1.0)), now=20.0)
        [best] = engine.facts("best")
        assert best.values[1] == 1.0
        # A worse contribution must now be rejected, not accepted.
        engine.insert_base(Fact("link", ("a", "e", 4.0)), now=21.0)
        [best] = engine.facts("best")
        assert best.values[1] == 1.0


class TestEndOfRunExpiry:
    def test_post_run_snapshots_never_include_elapsed_ttls(self, compiled_reachable):
        topology = line_topology(3)
        simulator = SimulationKernel(topology, compiled_reachable, EngineConfig())
        base = {
            node: [
                Fact("link", (link.source, link.destination), ttl=1e-6)
                for link in topology.outgoing(node)
            ]
            for node in topology.nodes
        }
        result = simulator.run(base)
        assert result.converged
        completion = result.stats.completion_time
        assert completion > 1e-6
        # The soft links elapsed mid-run; the end-of-run sweep must have
        # removed every one of them from the snapshots.
        assert result.all_facts("link") == ()
        for engine in result.engines.values():
            for fact in engine.database.all_facts():
                assert not fact.is_expired(completion)

    def test_unexpired_soft_state_survives_the_sweep(self, compiled_reachable):
        topology = line_topology(3)
        simulator = SimulationKernel(
            topology,
            compiled_reachable,
            EngineConfig(default_ttl=1e6),
        )
        result = simulator.run(reachable_base(topology))
        assert result.all_facts("link")
        assert result.all_facts("reachable")
