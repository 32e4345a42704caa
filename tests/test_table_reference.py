"""``Table`` (primary-key dict buckets) against ``ReferenceTable`` (list buckets).

One random script of inserts (new, refreshing, primary-key replacing), deletes,
expiry sweeps, index builds, probes, clears and pickle round trips is replayed
on both tables, each holding its *own* fact objects (equal tuples, distinct
identities and metadata — so a bucket entry removed or replaced by equality
instead of identity shows).  After every step both must hold the same rows in
the same order, answer every probe with the same facts in the same order, and
carry the same expiry watermark.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_table import ReferenceTable
from repro.datalog.catalog import RelationSchema
from repro.engine.table import Table
from repro.engine.tuples import Fact

INDEXES = ((0,), (1,), (2,), (0, 2), (1, 2))

#: Three columns from a small alphabet: crowded buckets, frequent key clashes.
ROWS = st.tuples(
    st.sampled_from(("a", "b", "c")),
    st.sampled_from(("x", "y")),
    st.sampled_from((1, 2, 1.0, True)),
)
TTLS = st.sampled_from((None, None, 0.5, 2.0, 50.0))
STEPS = st.one_of(
    st.tuples(st.just("insert"), ROWS, TTLS, st.sampled_from((0.0, 0.0, 0.25, 1.0, 3.0))),
    st.tuples(st.just("delete"), ROWS),
    st.tuples(st.just("expire"), st.sampled_from((0.0, 0.5, 2.0))),
    st.tuples(st.just("ensure_index"), st.sampled_from(INDEXES)),
    st.tuples(st.just("lookup"), st.sampled_from(INDEXES), ROWS),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("clear")),
)
SCHEMAS = st.builds(
    lambda keys, max_size: RelationSchema(name="r", arity=3, keys=keys, max_size=max_size),
    st.sampled_from(((), (0,), (0, 1), (2,))),
    st.sampled_from((None, None, 1, 3)),
)


def stamp(fact):
    return (fact.values, fact.timestamp, fact.ttl, fact.asserted_by)


def assert_same_state(table, reference):
    assert [stamp(f) for f in table.facts()] == [stamp(f) for f in reference.facts()]
    assert len(table) == len(reference)
    assert table._soft_count == reference._soft_count
    assert table._next_expiry == reference._next_expiry
    assert table.has_soft_state == reference.has_soft_state
    assert set(table._indexes) == set(reference._indexes)
    for columns, index in table._indexes.items():
        listed = reference._indexes[columns]
        assert list(index) == list(listed), columns  # bucket keys, build order
        for bucket_key, bucket in index.items():
            assert [stamp(f) for f in bucket.values()] == [
                stamp(f) for f in listed[bucket_key]
            ]
            # Every bucket entry is the very object the rows hold.
            for key, fact in bucket.items():
                assert table._rows[key] is fact


@settings(max_examples=300, deadline=None)
@given(SCHEMAS, st.lists(STEPS, max_size=40))
def test_dict_buckets_replay_the_list_buckets(schema, steps):
    table, reference = Table(schema), ReferenceTable(schema)
    expired_here, expired_there = [], []
    table.on_expire = expired_here.append
    reference.on_expire = expired_there.append
    now = 0.0
    for serial, step in enumerate(steps):
        action = step[0]
        if action == "insert":
            _, values, ttl, advance = step
            now += advance
            # Two objects per insert, told apart by metadata only.
            mine = Fact("r", values, timestamp=now, ttl=ttl, asserted_by=f"s{serial}")
            theirs = Fact("r", values, timestamp=now, ttl=ttl, asserted_by=f"s{serial}")
            got, expected = table.insert(mine, now=now), reference.insert(theirs, now=now)
            assert (got.inserted, got.refreshed) == (expected.inserted, expected.refreshed)
            assert (got.replaced is None) == (expected.replaced is None)
            if got.replaced is not None:
                assert stamp(got.replaced) == stamp(expected.replaced)
        elif action == "delete":
            probe = Fact("r", step[1])
            assert table.delete(probe) == reference.delete(probe)
        elif action == "expire":
            now += step[1]
            assert [stamp(f) for f in table.expire(now)] == [
                stamp(f) for f in reference.expire(now)
            ]
        elif action == "ensure_index":
            table.ensure_index(step[1])
            reference.ensure_index(step[1])
        elif action == "lookup":
            _, columns, row = step
            key = [row[column] for column in columns]
            found = table.lookup(columns, key)
            assert isinstance(found, tuple)
            assert [stamp(f) for f in found] == [
                stamp(f) for f in reference.lookup(columns, key)
            ]
            assert all(table._rows[table._primary_key(f.values)] is f for f in found)
        elif action == "pickle":
            table = pickle.loads(pickle.dumps(table))
            reference = pickle.loads(pickle.dumps(reference))
            assert table._indexes == {} and table.on_expire is None
            table.on_expire = expired_here.append
            reference.on_expire = expired_there.append
        else:
            table.clear()
            reference.clear()
        assert_same_state(table, reference)
    assert [[stamp(f) for f in batch] for batch in expired_here] == [
        [stamp(f) for f in batch] for batch in expired_there
    ]


def test_equal_facts_with_different_metadata_never_evict_each_other():
    # keys(1): the second insert replaces the first row; then a *stale* copy
    # of the replaced tuple is "removed".  Only the stored object may go.
    table = Table(RelationSchema(name="r", arity=2, keys=(0,)))
    table.ensure_index((1,))
    stored = Fact("r", ("a", "x"), asserted_by="first")
    table.insert(stored)
    impostor = Fact("r", ("a", "x"), asserted_by="second")
    assert impostor == stored and impostor is not stored
    table._remove_fact(("a",), impostor)
    # The row went (removal is keyed), the bucket entry did not: it is not
    # the impostor's to take.
    assert table.lookup((1,), ("x",)) == (stored,)
    assert table.lookup((1,), ("x",))[0].asserted_by == "first"


def test_replace_and_remove_touch_one_bucket_entry_however_long_the_bucket():
    # 500 facts share one bucket; replacing / removing the first-inserted one
    # (the far end of a list walked from the front or the back) compares
    # against no neighbour.
    compared = 0

    class Counted(Fact):
        def __eq__(self, other):
            nonlocal compared
            compared += 1
            return Fact.__eq__(self, other)

        __hash__ = Fact.__hash__

    table = Table(RelationSchema(name="r", arity=2, keys=(0,)))
    table.ensure_index((1,))
    for number in range(500):
        table.insert(Counted("r", (f"k{number}", "shared")))
    bucket = table._indexes[(1,)][("shared",)]
    assert type(bucket) is dict and len(bucket) == 500
    compared = 0
    refreshed = Counted("r", ("k0", "shared"), timestamp=1.0)
    assert table.insert(refreshed).refreshed
    assert table.lookup((1,), ("shared",))[0] is refreshed  # in place: still first
    assert table.delete(Fact("r", ("k0", "shared")))
    assert [f.values[0] for f in table.lookup((1,), ("shared",))][:2] == ["k1", "k2"]
    assert compared == 0
