"""Determinism guarantees: FIFO delta order, repeatable runs, backend parity.

The last class parametrizes a representative slice over
``backend="serial" | "sharded"``: the two execution backends must produce
identical derived facts, per-message sequence numbers and integer/byte
statistics (the sharded backend's core contract).
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from oracle import evaluate_program

from repro.datalog import localize_program, parse_program
from repro.datalog.catalog import Catalog
from repro.datalog.planner import compile_program
from repro.engine.database import Database
from repro.engine.node_engine import EngineConfig, ProvenanceMode
from repro.engine.tuples import Fact
from repro.net.events import EventScheduler, InboxDrain, QueryTimeout
from repro.net.kernel import SimulationKernel
from repro.net.sharding import ShardedSimulator
from repro.net.stats import COORDINATION_KEYS
from repro.net.topology import random_topology
from repro.queries.best_path import compile_best_path
from repro.security.says import SaysMode

REACH = """
    materialize(edge, infinity, infinity, keys(1,2)).
    materialize(reach, infinity, infinity, keys(1)).

    r1 reach(@X) :- edge(@Y, X), reach(@Y).
"""


def _reach_fixpoint():
    compiled = compile_program(localize_program(parse_program(REACH)))
    database = Database(Catalog.from_program(compiled.program))
    base = [
        Fact("edge", ("a", "b")),
        Fact("edge", ("a", "c")),
        Fact("edge", ("b", "d")),
        Fact("edge", ("c", "e")),
        Fact("edge", ("d", "f")),
        Fact("reach", ("a",)),
    ]
    return evaluate_program(compiled, database, base)


class TestFifoDeltaOrder:
    def test_derivations_appear_in_breadth_first_order(self):
        # FIFO draining means one-hop facts derive before two-hop facts: the
        # deque switch and same-relation batching must not reorder deltas.
        result = _reach_fixpoint()
        derived = [d.fact.values[0] for d in result.derivations if d.rule_label == "r1"]
        assert derived == ["b", "c", "d", "e", "f"]

    def test_back_to_back_fixpoints_are_identical(self):
        first = _reach_fixpoint()
        second = _reach_fixpoint()
        assert [str(d) for d in first.derivations] == [str(d) for d in second.derivations]
        assert first.iterations == second.iterations
        assert first.database.snapshot() == second.database.snapshot()


#: One scheduling step: ``(operation, time, kind, index)``.  Schedules and
#: cancellations outweigh pops, so cancelled entries pile up below the heap
#: front and outnumber the live ones again and again.
scheduler_steps = st.lists(
    st.tuples(
        st.sampled_from(("schedule",) * 3 + ("cancel",) * 3 + ("pop",)),
        st.integers(0, 6).map(float),
        st.sampled_from(("timeout", "drain")),
        st.integers(0, 10_000),
    ),
    min_size=60,
    max_size=120,
)


class TestCancelledEventsLeaveTheHeap:
    @settings(max_examples=60, deadline=None)
    @given(steps=scheduler_steps)
    def test_pops_follow_a_sorted_reference_of_the_live_events(self, steps):
        """Random events — ties in time, priority and rank included — are
        scheduled, cancelled through ``EventScheduler.cancel`` and popped.
        Every pop returns the front of a sorted reference of the live
        entries, and ``len`` is the live count after every step, however
        often the cancelled entries outnumbered the live ones and the heap
        was rebuilt."""
        scheduler = EventScheduler()
        live = []  # (time, priority, rank, sequence, event), kept sorted
        rebuilds = 0
        rebuild = scheduler._rebuild

        def counted_rebuild():
            nonlocal rebuilds
            rebuilds += 1
            rebuild()

        scheduler._rebuild = counted_rebuild
        for number, (operation, time, kind, index) in enumerate(steps):
            if operation == "schedule":
                if kind == "timeout":
                    # Equal query ids tie on rank; the sequence decides.
                    queued = QueryTimeout(time=time, query_id=number % 3, request_id=0)
                    rank = (1, queued.query_id, 0)
                else:
                    queued = InboxDrain(time=time, address=f"n{number % 2}")
                    rank = (4, queued.address)
                sequence = scheduler.schedule(queued)
                live.append((time, queued.priority, rank, sequence, queued))
                live.sort(key=lambda entry: entry[:4])
            elif operation == "cancel" and live:
                scheduler.cancel(live.pop(index % len(live))[-1])
            elif operation == "pop" and live:
                assert scheduler.pop() is live.pop(0)[-1]
            assert len(scheduler) == len(live)
            assert bool(scheduler) == bool(live)
            assert scheduler.peek_time() == (live[0][0] if live else None)
        assert [entry[-1] for entry in live] == list(scheduler.pending())
        event(f"heap rebuilds: {min(rebuilds, 4)}")
        while live:
            assert scheduler.pop() is live.pop(0)[-1]
        assert not scheduler and len(scheduler) == 0

    def test_rebuilds_happen_when_cancellations_dominate(self):
        scheduler = EventScheduler()
        timeouts = [
            QueryTimeout(time=float(i), query_id=i, request_id=0) for i in range(64)
        ]
        for timeout in timeouts:
            scheduler.schedule(timeout)
        # Cancel from the back, so no cancelled entry surfaces at the front:
        # only rebuilds keep the heap within twice the live count.
        for timeout in reversed(timeouts[1:]):
            scheduler.cancel(timeout)
            assert len(scheduler._heap) <= 2 * len(scheduler)
        assert len(scheduler) == 1 and len(scheduler._heap) == 1
        assert scheduler.pop() is timeouts[0]


class RecordingSimulator(SimulationKernel):
    """SimulationKernel that records every delivered message's identifying data."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered = []

    def _deliver(self, message, deliver_at):
        self.delivered.append(
            (
                message.sequence,
                str(message.source),
                str(message.destination),
                tuple(item.fact.key() for item in getattr(message, "items", ())),
            )
        )
        super()._deliver(message, deliver_at)


def _run_once():
    topology = random_topology(10, seed=3)
    simulator = RecordingSimulator(
        topology=topology,
        compiled=compile_best_path(),
        config=EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.NONE
        ),
    )
    result = simulator.run()
    assert result.converged
    return result, simulator.delivered


class TestSimulatorDeterminism:
    def test_identical_runs_in_one_process_match_exactly(self):
        # Two back-to-back runs must agree on every statistic AND on the
        # per-message sequence numbers: the sequence counter lives on the
        # SimulationKernel, not in process-global state.
        first_result, first_delivered = _run_once()
        second_result, second_delivered = _run_once()

        assert first_result.stats.summary() == second_result.stats.summary()
        assert first_delivered == second_delivered

        # Sequence numbering starts fresh for every run.
        assert first_delivered[0][0] == second_delivered[0][0]
        assert min(seq for seq, *_ in first_delivered) <= len(first_delivered)

    def test_runs_agree_on_stored_facts(self):
        first_result, _ = _run_once()
        second_result, _ = _run_once()
        for address, engine in first_result.engines.items():
            assert engine.database.snapshot() == (
                second_result.engines[address].database.snapshot()
            )


#: Run in a child process: the two serial fixpoints whose every result must
#: not depend on the interpreter's hash seed — a signed provenance run, and
#: a one-fixpoint-deletion churn run through one link flap.  Prints their
#: sorted bestPathCost rows and summary() items.
HASH_SEED_PROBE = """
from repro.api import Network
from repro.net.events import LinkDown, LinkUp

fixpoint = Network.build(topology=10, provenance="sendlog-prov", seed=0).run()
print(sorted(fact.values for fact in fixpoint.all_facts("bestPathCost")))
print(sorted(fixpoint.summary().items()))

churn = Network.build(
    topology=10,
    provenance="condensed",
    seed=0,
    default_ttl=1e6,
    track_dependencies=True,
    rederivation=True,
)
settled = [churn.run().converged]
link = churn.topology.redundant_links()[0]
for event_type in (LinkDown, LinkUp):
    churn.schedule(
        event_type(
            time=churn.current_time() + 1.0,
            source=link.source,
            destination=link.destination,
        )
    )
    settled.append(churn.run_until_idle())
result = churn.finish(all(settled))
print(settled)
print(sorted(fact.values for fact in result.all_facts("bestPathCost")))
print(sorted(result.summary().items()))
"""


def test_serial_fixpoint_does_not_depend_on_the_hash_seed():
    """Forked shard workers share the coordinator's hash seed, so only a
    fresh interpreter varies it: two children, seeds 1 and 2, must print
    the same fixpoint rows and the same statistics."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    source = Path(repro.__file__).resolve().parent.parent
    outputs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(source)),
            capture_output=True,
            check=True,
            text=True,
            timeout=300,
        ).stdout
        for seed in ("1", "2")
    ]
    assert "[True, True, True]" in outputs[0]
    assert outputs[0] == outputs[1]


def _run_backend(backend: str, configuration: EngineConfig):
    """One Best-Path run plus its per-delivery records, on either backend."""
    topology = random_topology(10, seed=3)
    records = []
    original = SimulationKernel._deliver

    def patched(self, message, deliver_at):
        records.append(
            (
                message.sequence,
                str(message.source),
                str(message.destination),
                tuple(item.fact.key() for item in getattr(message, "items", ())),
            )
        )
        return original(self, message, deliver_at)

    if backend == "serial":
        simulator = SimulationKernel(topology, compile_best_path(), configuration)
    else:
        simulator = ShardedSimulator(
            topology,
            compile_best_path(),
            configuration,
            shards=3,
            shard_mode="inline",
        )
    SimulationKernel._deliver = patched
    try:
        result = simulator.run()
    finally:
        SimulationKernel._deliver = original
    assert result.converged
    return result, records


class TestCrossBackendDeterminism:
    """backend="sharded" replays the exact serial schedule (satellite slice)."""

    @pytest.fixture(scope="class")
    def runs(self):
        def configuration():
            return EngineConfig(
                says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.NONE
            )

        return (
            _run_backend("serial", configuration()),
            _run_backend("sharded", configuration()),
        )

    def test_identical_integer_and_byte_stats(self, runs):
        (serial, _), (sharded, _) = runs
        left, right = serial.stats.summary(), sharded.stats.summary()
        for key in left:
            if key in COORDINATION_KEYS:
                continue  # the ledger measures coordination, not the network
            if key == "cpu_seconds":  # cross-node float sum: association only
                assert left[key] == pytest.approx(right[key], rel=1e-12)
            else:
                assert left[key] == right[key], key

    def test_identical_derived_facts(self, runs):
        (serial, _), (sharded, _) = runs
        for address, engine in serial.engines.items():
            assert engine.database.snapshot() == (
                sharded.engines[address].database.snapshot()
            )

    def test_identical_sequence_numbers_per_destination(self, runs):
        # Each node must see the same messages, from the same senders, with
        # the same per-sender sequence numbers, in the same order — the
        # backends differ only in how deliveries interleave *across* nodes.
        (_, serial_records), (_, sharded_records) = runs

        def per_destination(records):
            grouped = {}
            for sequence, source, destination, keys in records:
                grouped.setdefault(destination, []).append((sequence, source, keys))
            return grouped

        assert per_destination(serial_records) == per_destination(sharded_records)
        assert sorted(serial_records) == sorted(sharded_records)
