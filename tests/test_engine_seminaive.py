"""Tests for delta-driven evaluation and the single-site fixpoint."""

from __future__ import annotations

import pytest

from repro.datalog.catalog import Catalog
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.planner import compile_program, compile_rule
from repro.datalog.rewrite import localize_program
from repro.engine.database import Database
from repro.engine.seminaive import (
    apply_expression,
    evaluate_plan_with_delta,
    evaluate_program,
    evaluate_term,
    unify_atom,
)
from repro.engine.tuples import Fact
from repro.queries.best_path import BEST_PATH_NDLOG
from repro.queries.reachable import REACHABLE_LOCALIZED


def make_database(source: str) -> Database:
    return Database(Catalog.from_program(parse_program(source)))


class TestUnification:
    def test_unify_atom_binds_variables(self):
        rule = parse_rule("r1 reachable(@S, D) :- link(@S, D).")
        bindings = unify_atom(rule.body[0], Fact("link", ("a", "b")), {})
        assert bindings == {"S": "a", "D": "b"}

    def test_unify_respects_existing_bindings(self):
        rule = parse_rule("r1 reachable(@S, D) :- link(@S, D).")
        assert unify_atom(rule.body[0], Fact("link", ("a", "b")), {"S": "a"}) is not None
        assert unify_atom(rule.body[0], Fact("link", ("a", "b")), {"S": "z"}) is None

    def test_unify_constant_mismatch(self):
        rule = parse_rule("r p(X) :- q(X, 3).")
        assert unify_atom(rule.body[0], Fact("q", ("a", 3)), {}) is not None
        assert unify_atom(rule.body[0], Fact("q", ("a", 4)), {}) is None

    def test_unify_repeated_variable(self):
        rule = parse_rule("r selfloop(X) :- link(X, X).")
        assert unify_atom(rule.body[0], Fact("link", ("a", "a")), {}) is not None
        assert unify_atom(rule.body[0], Fact("link", ("a", "b")), {}) is None

    def test_wrong_relation_or_arity(self):
        rule = parse_rule("r p(X) :- q(X, Y).")
        assert unify_atom(rule.body[0], Fact("other", ("a", "b")), {}) is None
        assert unify_atom(rule.body[0], Fact("q", ("a",)), {}) is None


class TestExpressions:
    def test_evaluate_function_term(self):
        rule = parse_rule("r p(S, P) :- q(S, P2), P := f_concat(S, P2).")
        value = evaluate_term(rule.body[1].expression, {"S": "a", "P2": ("b", "c")})
        assert value == ("a", "b", "c")

    def test_apply_comparison(self):
        rule = parse_rule("r p(S) :- q(S, C), C < 10.")
        assert apply_expression(rule.body[1], {"C": 5}) is not None
        assert apply_expression(rule.body[1], {"C": 15}) is None

    def test_apply_assignment_binds(self):
        rule = parse_rule("r p(S, C) :- q(S, A), C := A + 1.")
        bindings = apply_expression(rule.body[1], {"A": 2})
        assert bindings["C"] == 3

    def test_assignment_to_already_bound_variable_checks_equality(self):
        rule = parse_rule("r p(S, C) :- q(S, A), C := A + 1.")
        assert apply_expression(rule.body[1], {"A": 2, "C": 3}) is not None
        assert apply_expression(rule.body[1], {"A": 2, "C": 4}) is None


class TestDeltaEvaluation:
    def test_single_atom_rule_fires(self):
        plan = compile_rule(parse_rule("r1 reachable(@S, D) :- link(@S, D)."))
        database = make_database("r1 reachable(@S, D) :- link(@S, D).")
        firings = evaluate_plan_with_delta(plan, database, Fact("link", ("a", "b")), 0)
        assert len(firings) == 1
        assert firings[0].head_values == ("a", "b")
        assert firings[0].destination == "a"

    def test_join_against_stored_table(self):
        source = "l3 reachable(@S, D) :- linkd(@Z, S), reachable(@Z, D)."
        plan = compile_rule(parse_rule(source))
        database = make_database(source)
        database.insert(Fact("reachable", ("z", "d")))
        firings = evaluate_plan_with_delta(plan, database, Fact("linkd", ("z", "s")), 0)
        assert len(firings) == 1
        assert firings[0].head_values == ("s", "d")
        # The antecedents list the delta first, then the joined facts.
        assert firings[0].antecedents[0].relation == "linkd"
        assert firings[0].antecedents[1].relation == "reachable"

    def test_no_firing_when_join_partner_missing(self):
        source = "l3 reachable(@S, D) :- linkd(@Z, S), reachable(@Z, D)."
        plan = compile_rule(parse_rule(source))
        database = make_database(source)
        firings = evaluate_plan_with_delta(plan, database, Fact("linkd", ("z", "s")), 0)
        assert firings == []

    def test_expressions_filter_firings(self):
        source = "r p(@S, C) :- q(@S, C), C < 10."
        plan = compile_rule(parse_rule(source))
        database = make_database(source)
        assert evaluate_plan_with_delta(plan, database, Fact("q", ("a", 5)), 0)
        assert not evaluate_plan_with_delta(plan, database, Fact("q", ("a", 50)), 0)

    def test_negated_atom_blocks_firing(self):
        source = "r p(@S) :- q(@S), !blocked(@S)."
        plan = compile_rule(parse_rule(source))
        database = make_database(source)
        database.insert(Fact("blocked", ("a",)))
        assert not evaluate_plan_with_delta(plan, database, Fact("q", ("a",)), 0)
        assert evaluate_plan_with_delta(plan, database, Fact("q", ("b",)), 0)

    def test_says_requirement_checks_asserted_by(self):
        source = "s p(@S, D, W) :- W says link(@S, D)."
        plan = compile_rule(parse_rule(source))
        database = make_database(source)
        unsigned = Fact("link", ("a", "b"))
        signed = Fact("link", ("a", "b"), asserted_by="w")
        assert not evaluate_plan_with_delta(plan, database, unsigned, 0)
        firings = evaluate_plan_with_delta(plan, database, signed, 0)
        assert len(firings) == 1
        assert firings[0].head_values == ("a", "b", "w")

    def test_says_constant_principal_must_match(self):
        source = "s p(@S, D) :- alice says link(@S, D)."
        plan = compile_rule(parse_rule(source))
        database = make_database(source)
        assert evaluate_plan_with_delta(
            plan, database, Fact("link", ("a", "b"), asserted_by="alice"), 0
        )
        assert not evaluate_plan_with_delta(
            plan, database, Fact("link", ("a", "b"), asserted_by="mallory"), 0
        )

    def test_soft_state_expired_partners_ignored(self):
        source = "l3 reachable(@S, D) :- linkd(@Z, S), reachable(@Z, D)."
        plan = compile_rule(parse_rule(source))
        database = make_database(source)
        database.insert(Fact("reachable", ("z", "d"), timestamp=0.0, ttl=1.0))
        firings = evaluate_plan_with_delta(
            plan, database, Fact("linkd", ("z", "s")), 0, now=5.0
        )
        assert firings == []


class TestFixpoint:
    def test_transitive_closure_on_a_chain(self):
        compiled = compile_program(parse_program(REACHABLE_LOCALIZED))
        database = Database(Catalog.from_program(compiled.program))
        base = [
            Fact("link", ("a", "b")),
            Fact("link", ("b", "c")),
            Fact("link", ("c", "d")),
        ]
        result = evaluate_program(compiled, database, base)
        reachable = {fact.values for fact in result.facts("reachable")}
        assert ("a", "d") in reachable
        assert ("b", "d") in reachable
        assert ("d", "a") not in reachable
        assert len(reachable) == 6

    def test_cycle_terminates(self):
        compiled = compile_program(parse_program(REACHABLE_LOCALIZED))
        database = Database(Catalog.from_program(compiled.program))
        base = [Fact("link", ("a", "b")), Fact("link", ("b", "a"))]
        result = evaluate_program(compiled, database, base)
        reachable = {fact.values for fact in result.facts("reachable")}
        assert reachable == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_best_path_single_site(self):
        compiled = compile_program(localize_program(parse_program(BEST_PATH_NDLOG)))
        database = Database(Catalog.from_program(compiled.program))
        base = [
            Fact("link", ("a", "b", 1.0)),
            Fact("link", ("b", "c", 1.0)),
            Fact("link", ("a", "c", 5.0)),
        ]
        result = evaluate_program(compiled, database, base)
        best = {
            (fact.values[0], fact.values[1]): fact.values
            for fact in result.facts("bestPath")
        }
        # The two-hop route a-b-c (cost 2) beats the direct link (cost 5).
        assert best[("a", "c")][3] == 2.0
        assert best[("a", "c")][2] == ("a", "b", "c")

    def test_derivations_recorded_for_every_insert(self):
        compiled = compile_program(parse_program(REACHABLE_LOCALIZED))
        database = Database(Catalog.from_program(compiled.program))
        result = evaluate_program(compiled, database, [Fact("link", ("a", "b"))])
        stored = sum(len(t) for t in database.tables())
        assert len(result.derivations) == stored
