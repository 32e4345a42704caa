"""`NodeEngine.receive_batch`, the engine's one receive path.

A delivered wire message drains through a single ProcessingResult /
ProcessingReport and one probe-warm-up memo, admitting and fixpointing its
tuples strictly in arrival order — so one batch of N tuples must derive,
ship and report exactly what N singleton batches do (a per-tuple wire
message *is* a singleton batch), and the linear cost model must charge the
same CPU either way.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.datalog import localize_program, parse_program
from repro.datalog.planner import compile_program
from repro.engine.node_engine import EngineConfig, NodeEngine, ProcessingReport
from repro.engine.tuples import Fact
from repro.net.kernel import CostModel
from repro.queries.reachable import REACHABLE_LOCALIZED
from repro.security.says import SaysMode


@pytest.fixture(scope="module")
def compiled_reachable():
    return compile_program(localize_program(parse_program(REACHABLE_LOCALIZED)))


class TestEngineLevelEquivalence:
    """receive_batch(facts) == sequential singleton batches, fact by fact."""

    def _engines(self, compiled):
        config = EngineConfig()
        sender = NodeEngine("a", compiled, config)
        return (
            sender,
            NodeEngine("b", compiled, config),
            NodeEngine("b", compiled, config),
        )

    def _shipped(self, sender):
        outgoing = []
        for values in (("a", "b"), ("a", "c"), ("b", "a")):
            outgoing.extend(
                item
                for item in sender.insert_base(Fact("link", values)).outgoing
                if item.destination == "b"
            )
        return [item.fact for item in outgoing]

    def test_same_outgoing_and_report(self, compiled_reachable):
        sender, via_batch, via_tuple = self._engines(compiled_reachable)
        shipped = self._shipped(sender)
        assert shipped  # the workload must actually exercise the path

        batch_result = via_batch.receive_batch(shipped, now=1.0)
        reports = []
        outgoing = []
        for fact in shipped:
            result = via_tuple.receive_batch((fact,), now=1.0)
            reports.append(result.report)
            outgoing.extend(result.outgoing)

        assert [
            (o.destination, o.fact.key()) for o in batch_result.outgoing
        ] == [(o.destination, o.fact.key()) for o in outgoing]
        # Every counter of the one report is the sum of the singletons'.
        assert batch_result.report == ProcessingReport(
            **{
                spec.name: sum(getattr(report, spec.name) for report in reports)
                for spec in fields(ProcessingReport)
            }
        )
        assert via_batch.database.snapshot() == via_tuple.database.snapshot()

    def test_batch_accounting_is_linear_in_the_cost_model(self, compiled_reachable):
        """One merged report charges the same CPU as its per-tuple parts."""
        sender, via_batch, via_tuple = self._engines(compiled_reachable)
        shipped = self._shipped(sender)
        model = CostModel()
        batch_cpu = model.cpu_seconds(via_batch.receive_batch(shipped, now=1.0).report)
        tuple_cpu = sum(
            model.cpu_seconds(via_tuple.receive_batch((fact,), now=1.0).report)
            for fact in shipped
        )
        assert batch_cpu == pytest.approx(tuple_cpu)

    def test_rejected_tuples_counted_once_each(self, compiled_reachable):
        receiver = NodeEngine(
            "b", compiled_reachable, EngineConfig(says_mode=SaysMode.SIGNED)
        )
        unsigned = [Fact("link", ("b", "c")), Fact("link", ("b", "d"))]
        result = receiver.receive_batch(unsigned, now=0.0)
        assert result.report.facts_received == 2
        assert result.report.facts_rejected == 2
        assert result.report.facts_inserted == 0
        assert not result.outgoing
