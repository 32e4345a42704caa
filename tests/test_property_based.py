"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance.polynomial import ProvenanceExpression, p_product, p_sum, p_var
from repro.provenance.pruning import ASAggregator
from repro.provenance.quantify import trust_level
from repro.provenance.semiring import BOOLEAN, COUNTING, TRUST
from repro.datalog.catalog import RelationSchema
from repro.engine.table import Table
from repro.engine.tuples import Fact
from repro.net.topology import random_topology
from repro.security.rsa import generate_keypair, sign, verify

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

VARIABLES = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def provenance_expressions(draw, max_terms: int = 4, max_factors: int = 3):
    """Random monotone provenance expressions over a small variable pool."""
    terms = draw(st.integers(min_value=1, max_value=max_terms))
    expression = ProvenanceExpression.zero()
    for _ in range(terms):
        factors = draw(st.lists(VARIABLES, min_size=1, max_size=max_factors))
        term = ProvenanceExpression.one()
        for name in factors:
            term = term * p_var(name)
        expression = expression + term
    return expression


def boolean_assignments(variables):
    return st.fixed_dictionaries({name: st.booleans() for name in sorted(variables)})


@st.composite
def expression_pairs(draw):
    """Two expressions: unrelated, or the second a boolean-equivalent rewrite
    of the first (absorption, idempotence of ``*`` and of ``+``)."""
    x = draw(provenance_expressions())
    rewrite = draw(st.sampled_from(["unrelated", "absorb", "square", "double"]))
    if rewrite == "unrelated":
        return x, draw(provenance_expressions())
    if rewrite == "absorb":
        return x, x + x * draw(provenance_expressions())
    if rewrite == "square":
        return x, x * x
    return x, x + x


def truth_table(expression, variables):
    """*expression*'s value under every boolean assignment of *variables*."""
    return tuple(
        expression.evaluate(
            BOOLEAN, {name: bool(bits >> i & 1) for i, name in enumerate(variables)}
        )
        for bits in range(1 << len(variables))
    )


# ---------------------------------------------------------------------------
# Provenance polynomial laws
# ---------------------------------------------------------------------------

class TestPolynomialProperties:
    @given(provenance_expressions(), provenance_expressions())
    def test_addition_commutative(self, x, y):
        assert x + y == y + x

    @given(provenance_expressions(), provenance_expressions())
    def test_multiplication_commutative(self, x, y):
        assert x * y == y * x

    @given(provenance_expressions(), provenance_expressions(), provenance_expressions())
    def test_addition_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(provenance_expressions(), provenance_expressions(), provenance_expressions())
    def test_multiplication_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(provenance_expressions(), provenance_expressions(), provenance_expressions())
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == (x * y) + (x * z)

    @given(provenance_expressions())
    def test_identities(self, x):
        assert x + ProvenanceExpression.zero() == x
        assert x * ProvenanceExpression.one() == x
        assert (x * ProvenanceExpression.zero()).is_zero

    @given(provenance_expressions())
    def test_condense_idempotent(self, x):
        assert x.condense().condense() == x.condense()

    @given(provenance_expressions())
    def test_condense_never_grows(self, x):
        assert x.condense().serialized_size() <= x.serialized_size()

    @given(provenance_expressions(), st.data())
    def test_condense_preserves_boolean_semantics(self, x, data):
        assignment = data.draw(boolean_assignments(x.variables() or {"a"}))
        assert x.evaluate(BOOLEAN, assignment) == x.condense().evaluate(BOOLEAN, assignment)

    @settings(deadline=None)
    @given(expression_pairs())
    def test_condense_is_the_canonical_form(self, pair):
        """Two expressions denote the same boolean function iff they condense
        to the same polynomial: the unique minimal DNF ``join_all``'s
        "condense once" relies on."""
        x, y = pair
        variables = sorted(x.variables() | y.variables())
        equivalent = truth_table(x, variables) == truth_table(y, variables)
        assert (x.condense() == y.condense()) == equivalent

    @settings(deadline=None)
    @given(provenance_expressions())
    def test_condense_is_the_minimal_dnf(self, x):
        """``condense`` yields the sum of the prime implicants of the boolean
        function *x* denotes: its minimal satisfying variable sets, read off
        the truth table."""
        variables = sorted(x.variables())
        table = truth_table(x, variables)
        satisfying = [
            frozenset(name for i, name in enumerate(variables) if bits >> i & 1)
            for bits in range(1 << len(variables))
            if table[bits]
        ]
        minimal = [s for s in satisfying if not any(t < s for t in satisfying)]
        expected = p_sum(*(p_product(*(p_var(name) for name in sorted(s))) for s in minimal))
        assert x.condense() == expected

    @given(provenance_expressions(), st.data())
    def test_trust_of_condensed_never_lower(self, x, data):
        """Absorption removes only weaker-or-equal derivations, so the trust
        level of the condensed expression equals the original's."""
        levels = data.draw(
            st.fixed_dictionaries(
                {name: st.integers(min_value=0, max_value=5) for name in sorted(x.variables() or {"a"})}
            )
        )
        assert trust_level(x.condense(), levels) == trust_level(x, levels)

    @given(provenance_expressions())
    def test_counting_evaluation_counts_monomials(self, x):
        count = x.evaluate(COUNTING, {name: 1 for name in x.variables()})
        assert count == sum(multiplicity for _, multiplicity in x.monomials)


# ---------------------------------------------------------------------------
# AS aggregation
# ---------------------------------------------------------------------------

class TestAggregationProperties:
    @given(provenance_expressions())
    def test_as_aggregation_maps_sources(self, expression):
        aggregator = ASAggregator({"a": "AS1", "b": "AS1", "c": "AS2", "d": "AS2", "e": "AS3"})
        aggregated = aggregator.aggregate(expression)
        expected_sources = {aggregator.as_of(v) for v in expression.variables()}
        assert aggregated.variables() <= expected_sources


# ---------------------------------------------------------------------------
# Soft-state table invariants
# ---------------------------------------------------------------------------

class TestTableProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"), st.integers(0, 5)),
            max_size=30,
        )
    )
    def test_key_semantics_one_row_per_key(self, rows):
        table = Table(RelationSchema(name="t", arity=3, keys=(0, 1)))
        for row in rows:
            table.insert(Fact("t", row))
        keys = [(fact.values[0], fact.values[1]) for fact in table]
        assert len(keys) == len(set(keys))
        # The stored row for each key is the last one inserted for that key.
        last = {}
        for row in rows:
            last[(row[0], row[1])] = row
        assert {fact.values for fact in table} == set(last.values())

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.floats(0.5, 5.0)), min_size=1, max_size=30
        ),
        st.floats(min_value=0.0, max_value=30.0),
    )
    def test_expiry_never_keeps_expired_facts(self, rows, now):
        table = Table(RelationSchema(name="t", arity=3))
        for index, (timestamp, ttl) in enumerate(rows):
            table.insert(Fact("t", ("x", index, index), timestamp=float(timestamp), ttl=ttl))
        table.expire(now)
        assert all(not fact.is_expired(now) for fact in table)

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("abc"), st.integers(0, 3)),
            max_size=25,
        ),
        st.integers(0, 2),
    )
    def test_index_lookup_agrees_with_scan(self, rows, column):
        table = Table(RelationSchema(name="t", arity=3))
        for row in rows:
            table.insert(Fact("t", row))
        for value in "abc" if column < 2 else range(4):
            via_index = set(f.values for f in table.lookup([column], [value]))
            via_scan = {f.values for f in table if f.values[column] == value}
            assert via_index == via_scan


# ---------------------------------------------------------------------------
# RSA and topology
# ---------------------------------------------------------------------------

class TestSecurityProperties:
    KEY = generate_keypair(bits=128, rng=random.Random(99))

    @settings(deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_sign_verify_round_trip(self, message):
        signature = sign(message, self.KEY)
        assert verify(message, signature, self.KEY.public_key)

    @settings(deadline=None)
    @given(st.binary(min_size=1, max_size=100), st.binary(min_size=1, max_size=100))
    def test_signature_does_not_transfer_between_messages(self, first, second):
        if first == second:
            return
        signature = sign(first, self.KEY)
        assert not verify(second, signature, self.KEY.public_key)


class TestTopologyProperties:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_random_topologies_are_strongly_connected(self, node_count, seed):
        topology = random_topology(node_count, seed=seed)
        assert topology.is_strongly_connected()

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=4, max_value=60), st.integers(min_value=0, max_value=10_000))
    def test_average_outdegree_close_to_three(self, node_count, seed):
        topology = random_topology(node_count, seed=seed)
        assert 2.0 <= topology.average_outdegree() <= 3.5
