"""The polynomial kernel against the code it replaced.

``reference_*`` below is the previous, ``Counter``-based kernel kept verbatim
as the slow reference (the role ``unify_atom`` plays for the rule compiler):
every operation rebuilds its result through ``from_monomials`` and never
returns an operand.  The kernel in ``provenance/polynomial.py`` must produce
the same normal form on every input, and — where the answer is an operand —
that operand itself.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.node_engine import EngineConfig, NodeEngine
from repro.engine.tuples import Fact
from repro.provenance import polynomial
from repro.provenance.polynomial import (
    Monomial,
    ProvenanceExpression,
    join_all,
    p_one,
    p_product,
    p_var,
    p_zero,
)

# -- the reference kernel (the parent commit's code, verbatim) -------------------


def reference_monomial_from_vars(variables) -> Monomial:
    counts = Counter(variables)
    return tuple(sorted(counts.items()))


def reference_monomial_times(left: Monomial, right: Monomial) -> Monomial:
    counts = Counter(dict(left))
    for name, exponent in right:
        counts[name] += exponent
    return tuple(sorted(counts.items()))


def reference_add(self, other):
    combined: Dict[Monomial, int] = dict(self.monomials)
    for monomial, count in other.monomials:
        combined[monomial] = combined.get(monomial, 0) + count
    return ProvenanceExpression.from_monomials(combined)


def reference_mul(self, other):
    product: Dict[Monomial, int] = {}
    for left, left_count in self.monomials:
        for right, right_count in other.monomials:
            key = reference_monomial_times(left, right)
            product[key] = product.get(key, 0) + left_count * right_count
    return ProvenanceExpression.from_monomials(product)


def reference_condense(self):
    supports = {frozenset(support) for support in self.monomial_supports()}
    minimal = [
        support
        for support in supports
        if not any(other < support for other in supports)
    ]
    condensed = {
        reference_monomial_from_vars(sorted(support)): 1 for support in minimal
    }
    return ProvenanceExpression.from_monomials(condensed)


def patch_reference_kernel(monkeypatch) -> None:
    """Run everything above ``ProvenanceExpression`` on the reference kernel."""
    monkeypatch.setattr(polynomial, "_monomial_times", reference_monomial_times)
    monkeypatch.setattr(ProvenanceExpression, "__add__", reference_add)
    monkeypatch.setattr(ProvenanceExpression, "__mul__", reference_mul)
    monkeypatch.setattr(ProvenanceExpression, "condense", reference_condense)


def reference_join(left: ProvenanceExpression, right: ProvenanceExpression):
    """The old per-factor join of two annotations: multiply, then condense."""
    return reference_condense(reference_mul(left, right))


# -- inputs ----------------------------------------------------------------------

#: A small alphabet, so operands share variables and absorption happens.
monomials = st.dictionaries(
    st.sampled_from("abcd"), st.integers(1, 3), max_size=3
).map(lambda exponents: tuple(sorted(exponents.items())))
polynomials = st.dictionaries(monomials, st.integers(1, 3), max_size=4).map(
    ProvenanceExpression.from_monomials
)

a, b = p_var("a"), p_var("b")
NAMED = {
    "a*a": (a, a),
    "2*a": (a + a, p_one()),
    "a + a*b": (a, a * b),
    "1 + a": (p_one(), a),
    "0 * a": (p_zero(), a),
    "1 * 1": (p_one(), p_one()),
}


def assert_kernel_matches(left: ProvenanceExpression, right: ProvenanceExpression):
    total, product = left + right, left * right
    assert total.monomials == reference_add(left, right).monomials
    assert product.monomials == reference_mul(left, right).monomials
    for expression in (left, right, total, product):
        assert expression.condense().monomials == reference_condense(expression).monomials


# -- differential ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(left=polynomials, right=polynomials)
def test_sum_product_and_condense_match_the_reference(left, right):
    assert_kernel_matches(left, right)


@pytest.mark.parametrize("name", NAMED)
def test_named_cases_match_the_reference(name):
    left, right = NAMED[name]
    assert_kernel_matches(left, right)
    assert_kernel_matches(right, left)


def test_named_cases_have_the_paper_s_answers():
    assert (a * a).to_string() == "a*a" and (a * a).condense() == a
    assert (a + a).to_string() == "2*a" and (a + a).condense() == a
    assert (a + a * b).condense() == a  # Figure 2: <a + a*b> -> <a>
    assert (p_one() + a).condense() == p_one()
    assert (p_zero() * a).is_zero and (p_one() * p_one()).is_one


@settings(max_examples=200, deadline=None)
@given(expressions=st.lists(polynomials, max_size=4))
def test_join_all_equals_the_left_fold_of_the_old_join(expressions):
    folded = p_one()
    for expression in expressions:
        folded = reference_join(folded, expression)
    joined = join_all(iter(expressions))
    # Condensing once at the end is condensing after every factor: the
    # minimal DNF of a monotone function is unique.
    assert joined.monomials == folded.monomials


@settings(max_examples=200, deadline=None)
@given(expressions=st.lists(st.one_of(st.none(), polynomials), max_size=4))
def test_support_product_equals_the_old_product_then_condense(
    compiled_best_path, expressions
):
    engine = NodeEngine("n0", compiled_best_path, EngineConfig(rederivation=True))
    antecedents = tuple(Fact("link", ("n0", f"n{i}", i)) for i in range(len(expressions)))
    expected = None
    for fact, expression in zip(antecedents, expressions):
        if expression is None:  # no recorded support: the fact is its own base
            expression = p_var(engine._base_var(fact.key()))
        else:
            engine._support[fact.key()] = expression
        expected = expression if expected is None else reference_mul(expected, expression)
    expected = p_one() if expected is None else reference_condense(expected)
    # The engine's support product: the shared product over its supports.
    support = join_all([engine._support_of(fact.key()) for fact in antecedents])
    assert support.monomials == expected.monomials


@settings(max_examples=200, deadline=None)
@given(left=polynomials, right=polynomials)
def test_merging_condensed_annotations_matches_the_reference(left, right):
    left, right = left.condense(), right.condense()
    expected = reference_condense(reference_add(left, right))
    assert left.absorb(right).monomials == expected.monomials


# -- identity --------------------------------------------------------------------


def assert_is(result, operand, neutral) -> None:
    """*result* is *operand* itself — or *neutral*, when they are equal
    (``0 + 0``, ``1 * 1``: either operand is the answer)."""
    assert result is operand or (result is neutral and operand == neutral)


@settings(max_examples=200, deadline=None)
@given(expression=polynomials)
def test_operations_return_the_operand_that_is_the_answer(expression):
    condensed = expression.condense()
    assert condensed.condense() is condensed
    if condensed.monomials == expression.monomials:
        assert condensed is expression
    zero, one = p_zero(), p_one()
    assert_is(zero + expression, expression, zero)
    assert_is(expression + zero, expression, zero)
    assert_is(one * expression, expression, one)
    assert_is(expression * one, expression, one)
    assert p_product(expression) is expression
    assert condensed.absorb(condensed * p_var("e")) is condensed  # absorbed

    # The shared product and merge of annotations and supports.
    assert_is(join_all([condensed, one]), condensed, one)
    assert_is(join_all([one, condensed]), condensed, one)
    assert join_all([condensed]) is condensed
    assert_is(condensed.absorb(zero), condensed, zero)
    assert_is(zero.absorb(condensed), condensed, zero)
    assert condensed.absorb(condensed) is condensed
    assert condensed.absorb(ProvenanceExpression(condensed.monomials)) is condensed


def test_the_rendering_memo_is_invisible():
    import pickle

    rendered, fresh = a + a * b, a + a * b
    assert rendered.to_string() == "a+a*b" == rendered.to_string()
    assert rendered._rendered == "a+a*b" and fresh._rendered is None
    assert rendered == fresh and hash(rendered) == hash(fresh)
    assert repr(rendered) == repr(fresh)
    clone = pickle.loads(pickle.dumps(rendered))
    assert clone == rendered and clone._rendered is None
    assert pickle.dumps(rendered) == pickle.dumps(fresh)
    assert clone.serialized_size() == len("a+a*b")
