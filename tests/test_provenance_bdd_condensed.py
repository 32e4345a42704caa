"""Tests for the BDD package and condensed provenance annotations."""

from __future__ import annotations

import pytest

from repro.provenance.bdd import BDDManager
from repro.provenance.polynomial import join_all, p_one, p_product, p_sum, p_var, p_zero
from repro.provenance.quantify import acceptable
from repro.provenance.semiring import COUNTING, TRUST


class TestBDDBasics:
    def test_true_and_false_constants(self):
        manager = BDDManager()
        assert manager.true.is_true
        assert manager.false.is_false
        assert manager.true != manager.false

    def test_variable_evaluation(self):
        manager = BDDManager()
        a = manager.declare("a")
        assert a.evaluate({"a": True})
        assert not a.evaluate({"a": False})

    def test_declare_is_idempotent(self):
        manager = BDDManager()
        assert manager.declare("a") == manager.declare("a")
        assert manager.variables() == ("a",)

    def test_and_or_not(self):
        manager = BDDManager()
        a, b = manager.declare("a"), manager.declare("b")
        conj = a & b
        disj = a | b
        nega = ~a
        assert conj.evaluate({"a": True, "b": True})
        assert not conj.evaluate({"a": True, "b": False})
        assert disj.evaluate({"a": False, "b": True})
        assert nega.evaluate({"a": False})

    def test_canonical_form_gives_structural_equality(self):
        manager = BDDManager()
        a, b, c = manager.declare("a"), manager.declare("b"), manager.declare("c")
        left = (a & b) | (a & c)
        right = a & (b | c)
        assert left == right

    def test_complement_laws(self):
        manager = BDDManager()
        a = manager.declare("a")
        assert (a | ~a) == manager.true
        assert (a & ~a) == manager.false

    def test_absorption_law(self):
        manager = BDDManager()
        a, b = manager.declare("a"), manager.declare("b")
        assert (a | (a & b)) == a
        assert (a & (a | b)) == a

    def test_support(self):
        manager = BDDManager()
        a, b = manager.declare("a"), manager.declare("b")
        manager.declare("unused")
        assert (a & b).support() == frozenset({"a", "b"})

    def test_node_count_of_terminal(self):
        manager = BDDManager()
        assert manager.true.node_count() == 0
        assert manager.declare("a").node_count() == 1

    def test_count_solutions(self):
        manager = BDDManager()
        a, b = manager.declare("a"), manager.declare("b")
        # a | b has 3 satisfying assignments over 2 variables.
        assert (a | b).count_solutions() == 3
        assert (a & b).count_solutions() == 1
        assert manager.true.count_solutions() == 4

    def test_satisfying_assignments(self):
        manager = BDDManager()
        a, b = manager.declare("a"), manager.declare("b")
        models = list((a & b).satisfying_assignments())
        assert {"a": True, "b": True} in models


class TestBDDProvenance:
    def test_from_expression_and_back(self):
        manager = BDDManager()
        expr = p_sum(p_var("a"), p_product(p_var("a"), p_var("b")))
        bdd = manager.from_expression(expr)
        assert manager.to_expression(bdd) == p_var("a")

    def test_prime_implicants_of_monotone_function(self):
        manager = BDDManager()
        expr = p_sum(p_product(p_var("a"), p_var("b")), p_var("c"))
        implicants = manager.from_expression(expr).prime_implicants()
        assert set(implicants) == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_bdd_encoding_matches_condensed_polynomial(self):
        manager = BDDManager()
        expr = p_sum(
            p_product(p_var("a"), p_var("b"), p_var("b")),
            p_var("a"),
            p_product(p_var("c"), p_var("a")),
        )
        assert manager.to_expression(manager.from_expression(expr)) == expr.condense()

    def test_equivalent_expressions_share_bdd_node(self):
        manager = BDDManager()
        left = manager.from_expression(p_sum(p_var("a"), p_product(p_var("a"), p_var("b"))))
        right = manager.from_expression(p_var("a"))
        assert left == right

    def test_zero_and_one_expressions(self):
        manager = BDDManager()
        from repro.provenance.polynomial import ProvenanceExpression

        assert manager.from_expression(ProvenanceExpression.zero()).is_false
        assert manager.from_expression(ProvenanceExpression.one()).is_true


class TestCondensedProvenance:
    """The annotation is a condensed polynomial: ``join_all`` joins the
    inputs of one derivation, ``absorb`` merges an alternative one."""

    def test_from_source(self):
        annotation = p_var("a")
        assert annotation.variables() == frozenset({"a"})
        assert str(annotation) == "<a>"

    def test_join_combines_sources(self):
        joined = join_all([p_var("a"), p_var("b")])
        assert joined.variables() == frozenset({"a", "b"})
        assert joined.to_string() == "a*b"

    def test_merge_keeps_alternatives(self):
        assert p_var("a").absorb(p_var("b")).to_string() == "a+b"

    def test_merge_applies_absorption(self):
        a = p_var("a")
        assert a.absorb(join_all([a, p_var("b")])) is a

    def test_join_all_and_merge_all(self):
        parts = [p_var(x) for x in ("a", "b", "c")]
        assert join_all(parts).variables() == frozenset({"a", "b", "c"})
        merged = p_zero()
        for part in parts:
            merged = merged.absorb(part)
        assert merged.to_string() == "a+b+c"

    def test_acceptable_by_trusted_sources(self):
        annotation = p_sum(p_var("a"), p_product(p_var("b"), p_var("c"))).condense()
        assert acceptable(annotation, {"a"})
        assert acceptable(annotation, {"b", "c"})
        assert not acceptable(annotation, {"b"})
        assert not acceptable(annotation, set())

    def test_paper_example_acceptability(self):
        # <a + a*b> condenses to <a>; trusting a alone suffices, b alone does not.
        annotation = p_sum(p_var("a"), p_product(p_var("a"), p_var("b"))).condense()
        assert acceptable(annotation, {"a"})
        assert not acceptable(annotation, {"b"})

    def test_evaluate_delegates_to_semirings(self):
        annotation = p_sum(p_var("a"), p_product(p_var("a"), p_var("b")))
        assert annotation.evaluate(TRUST, {"a": 2, "b": 1}) == 2
        assert annotation.evaluate(COUNTING, {"a": 1, "b": 1}) == 2

    def test_serialized_size(self):
        assert p_var("node17").serialized_size() == len("node17")

    def test_to_bdd_uses_shared_manager(self):
        manager = BDDManager()
        assert manager.from_expression(p_var("a")) == manager.from_expression(p_var("a"))

    def test_condense_absorbs_the_paper_example(self):
        expr = p_sum(p_var("a"), p_product(p_var("a"), p_var("b")))
        assert expr.condense() == p_var("a")

    def test_empty_and_axiomatic(self):
        assert not acceptable(p_zero(), {"a"})
        assert acceptable(p_one(), set())
        assert join_all([]).is_one
