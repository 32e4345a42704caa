"""Tests for condensed provenance annotations (Section 4.4)."""

from __future__ import annotations

from repro.provenance.polynomial import join_all, p_one, p_product, p_sum, p_var, p_zero
from repro.provenance.quantify import acceptable
from repro.provenance.semiring import COUNTING, TRUST


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

    def test_condense_absorbs_the_paper_example(self):
        expr = p_sum(p_var("a"), p_product(p_var("a"), p_var("b")))
        assert expr.condense() == p_var("a")

    def test_empty_and_axiomatic(self):
        assert not acceptable(p_zero(), {"a"})
        assert acceptable(p_one(), set())
        assert join_all([]).is_one
