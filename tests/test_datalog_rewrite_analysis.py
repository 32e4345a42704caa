"""Tests for the localization rewrite and static analysis."""

from __future__ import annotations

import pytest

from repro.datalog.analysis import (
    build_dependency_graph,
    iter_safety_violations,
    stratify,
)
from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.rewrite import is_localized, localize_program, localize_rule
from repro.queries.best_path import BEST_PATH_NDLOG
from repro.queries.reachable import REACHABLE_NDLOG


class TestLocalization:
    def test_single_atom_rule_is_localized(self):
        rule = parse_rule("r1 reachable(@S, D) :- link(@S, D).")
        assert is_localized(rule)
        assert localize_rule(rule) == [rule]

    def test_two_location_rule_is_not_localized(self):
        rule = parse_rule("r2 reachable(@S, D) :- link(@S, Z), reachable(@Z, D).")
        assert not is_localized(rule)

    def test_localizing_reachable_creates_intermediate(self):
        rule = parse_rule("r2 reachable(@S, D) :- link(@S, Z), reachable(@Z, D).")
        rewritten = localize_rule(rule)
        assert len(rewritten) == 2
        intermediate = rewritten[0].head
        assert "_mid_" in intermediate.name
        assert intermediate.location_index == 0
        # The final rule's body is localized and re-derives the original head.
        assert rewritten[-1].head.name == "reachable"
        assert is_localized(rewritten[-1])

    def test_intermediate_carries_join_variables(self):
        rule = parse_rule("r2 reachable(@S, D) :- link(@S, Z), reachable(@Z, D).")
        intermediate = localize_rule(rule)[0].head
        names = {str(t) for t in intermediate.terms}
        assert "Z" in names and "S" in names

    def test_every_localized_rule_passes_is_localized(self):
        program = localize_program(parse_program(BEST_PATH_NDLOG))
        assert all(is_localized(rule) for rule in program.rules)

    def test_best_path_rule_count_after_rewrite(self):
        program = localize_program(parse_program(BEST_PATH_NDLOG))
        # p2 splits into two rules, the rest stay.
        assert len(program.rules) == 5

    def test_expressions_moved_to_the_stage_where_bound(self):
        program = localize_program(parse_program(BEST_PATH_NDLOG))
        final_p2 = [rule for rule in program.rules if rule.label == "p2b"][0]
        rendered = str(final_p2)
        assert "f_concat" in rendered and "f_member" in rendered

    def test_localized_program_preserves_materialize_decls(self):
        program = localize_program(parse_program(BEST_PATH_NDLOG))
        assert {decl.name for decl in program.materialized} == {
            "link",
            "path",
            "bestPathCost",
            "bestPath",
        }

    def test_already_localized_program_unchanged(self):
        program = parse_program(REACHABLE_NDLOG)
        rewritten = localize_program(program)
        assert len(rewritten.rules) == 3  # r1 stays, r2 splits into two
        labels = [rule.label for rule in rewritten.rules]
        assert labels[0] == "r1"


class TestDependencyGraph:
    def test_edges_of_reachable(self):
        graph = build_dependency_graph(parse_program(REACHABLE_NDLOG))
        assert graph.edges["reachable"] == {"link", "reachable"}


class TestStratification:
    def test_positive_program_single_stratum(self):
        strata = stratify(parse_program(REACHABLE_NDLOG))
        assert len(strata) == 1

    def test_negation_pushes_predicate_to_higher_stratum(self):
        program = parse_program(
            "r1 good(X) :- node(X), !bad(X).\nr2 bad(X) :- blacklisted(X)."
        )
        strata = stratify(program)
        levels = {name: i for i, level in enumerate(strata) for name in level}
        assert levels["good"] > levels["bad"]

    def test_negative_cycle_rejected(self):
        program = parse_program("r1 p(X) :- node(X), !q(X).\nr2 q(X) :- node(X), !p(X).")
        with pytest.raises(SafetyError):
            stratify(program)


def violation_codes(source: str) -> list:
    return [violation.code for violation in iter_safety_violations(parse_rule(source))]


class TestSafety:
    def test_safe_rule_passes(self):
        assert violation_codes("r p(X, Y) :- q(X), r(Y).") == []

    def test_unbound_head_variable_rejected(self):
        assert violation_codes("r p(X, Y) :- q(X).") == ["NDL101"]

    def test_assignment_binds_head_variable(self):
        assert violation_codes("r p(X, C) :- q(X), C := 1 + 2.") == []

    def test_negated_atom_with_unbound_variable_rejected(self):
        assert violation_codes("r p(X) :- q(X), !r(Y).") == ["NDL102"]

    def test_comparison_with_unbound_variable_rejected(self):
        assert violation_codes("r p(X) :- q(X), Y < 3.") == ["NDL103"]

    def test_unbound_ship_to_rejected(self):
        assert violation_codes("r p(X)@Z :- q(X).") == ["NDL107"]

    def test_aggregate_head_variable_must_be_bound(self):
        assert violation_codes("r best(@S, D, min<C>) :- path(@S, D, P, C).") == []
        assert violation_codes("r best(@S, D, min<C>) :- path(@S, D, P, C2).") == [
            "NDL101"
        ]
