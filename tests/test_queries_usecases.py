"""Tests for the query library and the four Section-3 use cases."""

from __future__ import annotations

import pytest

from reference_stores import fire, pointer_for
from wire import batch_of_one

from repro.datalog import lint_program, localize_program, parse_program
from repro.datalog.planner import compile_program
from repro.engine.node_engine import OutgoingFact
from repro.engine.tuples import Fact
from repro.net.message import MessageBatch
from repro.provenance.log import DerivationLog
from repro.provenance.polynomial import p_product, p_sum, p_var
from repro.provenance.store import OfflineProvenanceArchive
from repro.queries.best_path import best_path_program, compile_best_path
from repro.queries.monitoring import route_flap_monitor_program
from repro.queries.path_vector import (
    compile_distance_vector,
    compile_path_vector,
    distance_vector_program,
    path_vector_program,
)
from repro.queries.reachable import reachable_program
from repro.security.authenticator import Seal
from repro.security.principal import PrincipalRegistry
from repro.usecases.accountability import AccountabilityAuditor, UsagePolicy
from repro.usecases.diagnostics import FlapEvent, RouteFlapDetector
from repro.usecases.forensics import ForensicInvestigator
from repro.usecases.trust import TrustManager, TrustPolicy


class TestQueryLibrary:
    def test_reachable_dialects(self):
        assert len(reachable_program("ndlog").rules) == 2
        assert reachable_program("sendlog").dialect == "sendlog"
        assert len(reachable_program("localized").rules) == 3
        with pytest.raises(ValueError):
            reachable_program("prolog")

    def test_best_path_program_is_safe_and_recursive(self):
        program = best_path_program()
        assert not [d for d in lint_program(program) if d.is_error]
        assert "bestPath" in program.derived_predicates()

    def test_best_path_compiles(self):
        assert len(compile_best_path().plans) == 5

    def test_path_vector_program(self):
        program = path_vector_program()
        assert set(program.derived_predicates()) == {"route"}
        assert len(compile_path_vector().plans) == 3  # v1 + split v2

    def test_distance_vector_program(self):
        program = distance_vector_program()
        assert "distance" in program.derived_predicates()
        compiled = compile_distance_vector()
        aggregate_plans = [p for p in compiled.plans if p.head.has_aggregate]
        assert len(aggregate_plans) == 1

    def test_monitoring_program_window_declared(self):
        program = route_flap_monitor_program()
        event_decl = [d for d in program.materialized if d.name == "routeEvent"][0]
        assert event_decl.lifetime == 30.0
        assert not [d for d in lint_program(program) if d.is_error]
        assert "flapAlarm" in program.derived_predicates()


class TestDiagnostics:
    def test_no_alarm_below_threshold(self):
        detector = RouteFlapDetector(window_seconds=30, threshold=3)
        assert not detector.observe_route_change("a", "b", 1.0)
        assert not detector.observe_route_change("a", "b", 2.0)
        assert detector.change_count("a", "b", now=3.0) == 2
        assert detector.flapping_entries(now=3.0) == ()

    def test_alarm_at_threshold(self):
        detector = RouteFlapDetector(window_seconds=30, threshold=3)
        detector.observe_route_change("a", "b", 1.0)
        detector.observe_route_change("a", "b", 5.0)
        assert detector.observe_route_change("a", "b", 9.0)
        assert detector.flapping_entries(now=10.0) == (("a", "b"),)

    def test_window_eviction_clears_old_changes(self):
        detector = RouteFlapDetector(window_seconds=10, threshold=3)
        detector.observe_route_change("a", "b", 0.0)
        detector.observe_route_change("a", "b", 1.0)
        detector.observe_route_change("a", "b", 20.0)
        assert detector.change_count("a", "b", now=20.0) == 1

    def test_identify_suspects_excludes_trusted(self):
        detector = RouteFlapDetector()
        provenance = {
            ("a", "b"): p_product(p_var("mallory"), p_var("b")).condense()
        }
        suspects = detector.identify_suspects([("a", "b")], provenance, trusted=["b"])
        assert suspects == ("mallory",)

    def test_purge_cascades_through_dependents(self):
        detector = RouteFlapDetector()
        store = DerivationLog("a", track_dependencies=True)
        route = Fact("bestPath", ("a", "c", ("a", "c"), 1.0))
        downstream = Fact("forwarding", ("a", "c"))
        fire(store, route, "p4")
        fire(store, downstream, "f", (route,))
        purged = detector.purge_derived_state(store, [route.key()])
        assert route.key() in purged and downstream.key() in purged
        assert not store.knows(route.key()) and not store.knows(downstream.key())

    def test_run_produces_full_report(self):
        detector = RouteFlapDetector(window_seconds=30, threshold=2)
        events = [FlapEvent("a", "b", 1.0), FlapEvent("a", "b", 2.0)]
        provenance = {("a", "b"): p_var("mallory")}
        report = detector.run(events, provenance_of=provenance)
        assert report.anomaly_detected
        assert report.suspicious_principals == ("mallory",)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RouteFlapDetector(window_seconds=0)
        with pytest.raises(ValueError):
            RouteFlapDetector(threshold=0)


class TestForensics:
    def build_archives(self):
        link_ab = Fact("link", ("a", "b"))
        link_bc = Fact("link", ("b", "c"))
        reach_bc = Fact("reachable", ("b", "c"))
        reach_ac = Fact("reachable", ("a", "c"))
        archive_a = OfflineProvenanceArchive("a")
        archive_b = OfflineProvenanceArchive("b")
        archive_b.record(pointer_for(reach_bc, "r1", "b", (link_bc,), timestamp=1.0))
        archive_a.record(
            pointer_for(reach_ac, "r2", "a", (link_ab, reach_bc), timestamp=2.0)
        )
        return {"a": archive_a, "b": archive_b}, reach_ac, link_bc

    def test_traceback_finds_origins_and_nodes(self):
        archives, target, _ = self.build_archives()
        report = ForensicInvestigator(archives).traceback(target.key())
        assert report.found
        assert set(report.nodes_traversed) == {"a", "b"}
        assert set(report.rules_applied) == {"r1", "r2"}
        assert ("link", ("a", "b")) in report.origins
        assert ("link", ("b", "c")) in report.origins
        assert report.derivation_depth == 2

    def test_traceback_of_unknown_tuple(self):
        archives, _, _ = self.build_archives()
        report = ForensicInvestigator(archives).traceback(("mystery", ("x",)))
        assert report.origins == (("mystery", ("x",)),)
        assert report.nodes_traversed == ()

    def test_activity_window_query(self):
        archives, _, _ = self.build_archives()
        investigator = ForensicInvestigator(archives)
        assert len(investigator.activity_of("a", 0.0, 10.0)) == 1
        assert len(investigator.activity_of("a", 5.0, 10.0)) == 0
        assert investigator.activity_of("unknown", 0.0, 10.0) == ()

    def test_forward_dependency_query(self):
        archives, target, suspect_link = self.build_archives()
        investigator = ForensicInvestigator(archives)
        affected = investigator.tuples_depending_on(suspect_link.key())
        assert ("reachable", ("b", "c")) in affected
        assert target.key() in affected

    def test_storage_footprint(self):
        archives, _, _ = self.build_archives()
        footprint = ForensicInvestigator(archives).storage_footprint()
        assert set(footprint) == {"a", "b"}
        assert all(size > 0 for size in footprint.values())


class TestAccountability:
    def make_message(self, source, principal, size_relation="update", destination="x"):
        # The principal is the one the message's seal names, not its source.
        fact = Fact(size_relation, (source, destination))
        seal = Seal(principal, 1, b"sig")
        return batch_of_one(source, destination, fact, sent_at=1.0, seal=seal)

    def test_usage_attributed_to_asserting_principal(self):
        auditor = AccountabilityAuditor()
        auditor.observe(self.make_message("n1", "alice"))
        auditor.observe(self.make_message("n1", "alice"))
        auditor.observe(self.make_message("n2", "bob"))
        assert auditor.record_for("alice").messages == 2
        assert auditor.record_for("bob").messages == 1
        assert auditor.total_bytes() > 0

    def test_unattributed_traffic_falls_back_to_source(self):
        auditor = AccountabilityAuditor()
        fact = Fact("update", ("n3", "x"))
        auditor.observe(batch_of_one("n3", "x", fact))
        assert auditor.record_for("n3").messages == 1

    def test_batched_message_counted_once_per_message(self):
        # Batches are the default wire format: one message, its bytes once,
        # its relations once per carried tuple.
        items = tuple(
            OutgoingFact("x", Fact(relation, ("n1", "x"))) for relation in ("update", "route")
        )
        batch = MessageBatch(
            source="n1", destination="x", items=items, sent_at=1.0, seal=Seal("alice", 1, b"sig")
        )
        auditor = AccountabilityAuditor()
        auditor.observe(batch)
        record = auditor.record_for("alice")
        assert record.messages == 1
        assert record.bytes_sent == batch.size_bytes()
        assert record.relations == {"update": 1, "route": 1}
        assert record.destinations == {"x": 1}

    def test_top_talkers_ordering(self):
        auditor = AccountabilityAuditor()
        for _ in range(5):
            auditor.observe(self.make_message("n1", "alice"))
        auditor.observe(self.make_message("n2", "bob"))
        top = auditor.top_talkers(1)
        assert top[0].principal == "alice"

    def test_quota_violations(self):
        auditor = AccountabilityAuditor({"alice": UsagePolicy(max_messages=1)})
        auditor.observe(self.make_message("n1", "alice"))
        auditor.observe(self.make_message("n1", "alice"))
        violations = auditor.violations()
        assert len(violations) == 1
        assert violations[0].kind == "message_quota"

    def test_forbidden_destination_violation(self):
        auditor = AccountabilityAuditor()
        auditor.set_policy("alice", UsagePolicy(forbidden_destinations=frozenset({"evil"})))
        auditor.observe(self.make_message("n1", "alice", destination="evil"))
        kinds = {violation.kind for violation in auditor.violations()}
        assert "forbidden_destination" in kinds

    def test_no_violation_when_within_policy(self):
        auditor = AccountabilityAuditor({"alice": UsagePolicy(max_messages=10)})
        auditor.observe(self.make_message("n1", "alice"))
        assert auditor.violations() == ()

    def test_report_text(self):
        auditor = AccountabilityAuditor()
        auditor.observe(self.make_message("n1", "alice"))
        report = auditor.report()
        assert "alice" in report and "no policy violations" in report


class TestTrustManagement:
    PAPER = p_sum(p_var("a"), p_product(p_var("a"), p_var("b")))

    def test_source_set_policy(self):
        manager = TrustManager(TrustPolicy.trust_sources("a"))
        assert manager.evaluate(self.PAPER).accepted
        manager_b = TrustManager(TrustPolicy.trust_sources("b"))
        assert not manager_b.evaluate(self.PAPER).accepted

    def test_level_policy_uses_registry(self):
        registry = PrincipalRegistry()
        registry.register("a", security_level=2)
        registry.register("b", security_level=1)
        manager = TrustManager(TrustPolicy.require_level(2), registry)
        decision = manager.evaluate(self.PAPER)
        assert decision.accepted and decision.trust_level == 2

    def test_level_policy_rejects_weak_chain(self):
        registry = PrincipalRegistry()
        registry.register("a", security_level=1)
        registry.register("b", security_level=1)
        manager = TrustManager(TrustPolicy.require_level(2), registry)
        assert not manager.evaluate(self.PAPER).accepted

    def test_vote_policy(self):
        manager = TrustManager(TrustPolicy.require_votes(2))
        assert manager.evaluate(self.PAPER).accepted
        assert not manager.evaluate(p_var("a")).accepted

    def test_combined_policy_requires_all_criteria(self):
        registry = PrincipalRegistry()
        registry.register("a", security_level=3)
        satisfied = TrustPolicy(
            trusted_principals=frozenset({"a"}), minimum_level=2, minimum_votes=2
        )
        assert TrustManager(satisfied, registry).evaluate(self.PAPER).accepted
        # Tighten one criterion (votes) and the same update is rejected.
        strict = TrustPolicy(
            trusted_principals=frozenset({"a"}), minimum_level=2, minimum_votes=3
        )
        decision = TrustManager(strict, registry).evaluate(self.PAPER)
        assert not decision.accepted
        assert any("principals assert" in reason for reason in decision.reasons)

    def test_filter_updates_and_acceptance_rate(self):
        manager = TrustManager(TrustPolicy.trust_sources("a"))
        updates = [
            (Fact("route", ("a", "c")), p_var("a")),
            (Fact("route", ("b", "c")), p_var("mallory")),
        ]
        decisions = manager.filter_updates(updates)
        assert decisions[0][1].accepted
        assert not decisions[1][1].accepted
        assert manager.acceptance_rate() == 0.5

    def test_decision_reports_derivation_count(self):
        manager = TrustManager(TrustPolicy.trust_sources("a"))
        assert manager.evaluate(self.PAPER).derivations == 2
