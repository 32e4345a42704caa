"""Tests for facts and soft-state tables."""

from __future__ import annotations

from dataclasses import replace

import pytest
from oracle import Derivation

from repro.datalog.catalog import RelationSchema
from repro.engine.table import Table
from repro.engine.tuples import Fact, fact_key


class TestFact:
    def test_equality_ignores_metadata(self):
        a = Fact("link", ("a", "b"), timestamp=1.0, ttl=5.0, asserted_by="a")
        b = Fact("link", ("a", "b"), timestamp=9.0, asserted_by="z")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_values(self):
        assert Fact("link", ("a", "b")) != Fact("link", ("a", "c"))

    def test_inequality_on_relation(self):
        assert Fact("link", ("a", "b")) != Fact("edge", ("a", "b"))

    def test_key(self):
        fact = Fact("link", ("a", "b", 3))
        assert fact.key() == ("link", ("a", "b", 3))
        assert fact.key() == fact_key("link", ["a", "b", 3])

    def test_expiry(self):
        fact = Fact("route", ("a", "b"), timestamp=10.0, ttl=5.0)
        assert fact.expires_at() == 15.0
        assert not fact.is_expired(14.9)
        assert fact.is_expired(15.0)

    def test_hard_state_never_expires(self):
        fact = Fact("link", ("a", "b"))
        assert fact.expires_at() is None
        assert not fact.is_expired(1e9)

    def test_payload_is_deterministic(self):
        a = Fact("link", ("a", "b", 3.0))
        b = Fact("link", ("a", "b", 3.0), timestamp=7.0)
        assert a.payload() == b.payload()
        assert a.payload_size() == len(a.payload())

    def test_payload_renders_paths_compactly(self):
        fact = Fact("bestPath", ("a", "c", ("a", "b", "c"), 2.0))
        assert b"[a|b|c]" in fact.payload()

    def test_a_copy_with_new_values_renders_its_own_values(self):
        """The size memo stays with the fact that filled it: a copy made
        with ``replace`` and other values renders and sizes those values."""
        fact = Fact("r", ("a",))
        assert fact.payload_size() == len(b"r(a)")
        changed = replace(fact, values=("abc",))
        assert changed.payload() == b"r(abc)"
        assert changed.payload_size() == len(changed.payload())
        assert fact.payload() == b"r(a)" and fact.payload_size() == len(b"r(a)")

    def test_a_copy_with_new_metadata_is_the_same_tuple(self):
        fact = Fact("link", ("a", "b"))
        signed = replace(fact, asserted_by="a", signature=b"sig")
        assert signed.asserted_by == "a"
        assert fact.asserted_by is None  # original untouched
        assert signed == fact  # identity unchanged

    def test_str_includes_says_prefix(self):
        fact = Fact("link", ("a", "b"), asserted_by="a")
        assert str(fact).startswith("a says ")

    def test_derivation_base_flag(self):
        base = Derivation(fact=Fact("link", ("a", "b")), rule_label="base", node="a")
        derived = Derivation(
            fact=Fact("reachable", ("a", "b")),
            rule_label="r1",
            node="a",
            antecedents=(Fact("link", ("a", "b")),),
        )
        assert base.is_base
        assert not derived.is_base


def make_table(keys=(), lifetime=None, max_size=None) -> Table:
    return Table(
        RelationSchema(name="t", arity=3, keys=keys, lifetime=lifetime, max_size=max_size)
    )


class TestTableBasics:
    def test_insert_and_contains(self):
        table = make_table()
        fact = Fact("t", ("a", "b", 1))
        result = table.insert(fact)
        assert result.inserted
        assert fact in table
        assert len(table) == 1

    def test_duplicate_insert_refreshes(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1), timestamp=0.0))
        result = table.insert(Fact("t", ("a", "b", 1), timestamp=5.0))
        assert not result.inserted
        assert result.refreshed
        assert len(table) == 1
        assert table.facts()[0].timestamp == 5.0

    def test_a_refresh_keeps_the_refreshing_facts_own_rendering(self):
        """Equal values need not render alike: ``r(True)`` refreshes a
        stored, already rendered ``r(1)`` and renders as itself."""
        table = Table(RelationSchema(name="r", arity=1))
        stored = Fact("r", (1,))
        assert stored.payload() == b"r(1)" and stored.payload_size() == 4
        table.insert(stored)
        assert table.insert(Fact("r", (True,))).refreshed
        (row,) = table.facts()
        assert row.payload() == b"r(True)"
        assert row.payload_size() == len(row.payload())

    def test_primary_key_replacement(self):
        table = make_table(keys=(0, 1))
        table.insert(Fact("t", ("a", "b", 1)))
        result = table.insert(Fact("t", ("a", "b", 2)))
        assert result.inserted
        assert result.replaced is not None
        assert result.replaced.values == ("a", "b", 1)
        assert len(table) == 1
        assert table.facts()[0].values == ("a", "b", 2)

    def test_set_semantics_without_keys(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1)))
        table.insert(Fact("t", ("a", "b", 2)))
        assert len(table) == 2

    def test_delete(self):
        table = make_table()
        fact = Fact("t", ("a", "b", 1))
        table.insert(fact)
        assert table.delete(fact)
        assert not table.delete(fact)
        assert len(table) == 0

    def test_get_by_values(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1)))
        assert table.get_by_values(("a", "b", 1)) is not None
        assert table.get_by_values(("a", "b", 2)) is None


class TestTableSoftState:
    def test_expire_removes_old_facts(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1), timestamp=0.0, ttl=10.0))
        table.insert(Fact("t", ("c", "d", 2), timestamp=0.0))  # hard state
        expired = table.expire(now=11.0)
        assert len(expired) == 1
        assert len(table) == 1

    def test_insert_with_now_expires_first(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1), timestamp=0.0, ttl=1.0))
        table.insert(Fact("t", ("x", "y", 9), timestamp=5.0), now=5.0)
        assert len(table) == 1

    def test_scan_with_now(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1), timestamp=0.0, ttl=1.0))
        assert table.scan(now=0.5) != ()
        assert table.scan(now=2.0) == ()

    def test_max_size_evicts_oldest(self):
        table = make_table(max_size=2)
        table.insert(Fact("t", ("a", "a", 1)))
        table.insert(Fact("t", ("b", "b", 2)))
        table.insert(Fact("t", ("c", "c", 3)))
        values = {fact.values[0] for fact in table}
        assert values == {"b", "c"}


class TestTableIndexes:
    def test_lookup_by_single_column(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1)))
        table.insert(Fact("t", ("a", "c", 2)))
        table.insert(Fact("t", ("x", "y", 3)))
        assert len(table.lookup([0], ["a"])) == 2
        assert len(table.lookup([0], ["x"])) == 1
        assert table.lookup([0], ["missing"]) == ()

    def test_lookup_by_multiple_columns(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1)))
        table.insert(Fact("t", ("a", "c", 2)))
        assert len(table.lookup([0, 1], ["a", "b"])) == 1

    def test_index_maintained_across_inserts(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1)))
        assert len(table.lookup([0], ["a"])) == 1
        table.insert(Fact("t", ("a", "z", 9)))
        assert len(table.lookup([0], ["a"])) == 2

    def test_index_maintained_across_deletes(self):
        table = make_table()
        fact = Fact("t", ("a", "b", 1))
        table.insert(fact)
        table.insert(Fact("t", ("a", "c", 2)))
        table.delete(fact)
        assert len(table.lookup([0], ["a"])) == 1

    def test_index_maintained_across_key_replacement(self):
        table = make_table(keys=(0,))
        table.insert(Fact("t", ("a", "b", 1)))
        _ = table.lookup([1], ["b"])
        table.insert(Fact("t", ("a", "z", 2)))
        assert table.lookup([1], ["b"]) == ()
        assert len(table.lookup([1], ["z"])) == 1

    def test_empty_column_lookup_returns_all(self):
        table = make_table()
        table.insert(Fact("t", ("a", "b", 1)))
        assert table.lookup([], []) == table.facts()
