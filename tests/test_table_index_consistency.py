"""Index and soft-state consistency of Table across expire/replace/refresh."""

from __future__ import annotations

from repro.datalog.catalog import RelationSchema
from repro.engine.table import Table
from repro.engine.tuples import Fact


def make_table(key_columns=(0,), max_size=None):
    return Table(
        RelationSchema(name="r", arity=2, keys=tuple(key_columns), max_size=max_size)
    )


def bucket_facts(table, column, value):
    return table.lookup([column], [value])


class TestIndexConsistency:
    def test_refresh_swaps_identity_in_buckets(self):
        table = make_table()
        first = Fact("r", ("a", "b"), timestamp=0.0, ttl=10.0)
        table.insert(first)
        table.ensure_index([1])
        refreshed = Fact("r", ("a", "b"), timestamp=5.0, ttl=10.0)
        table.insert(refreshed)

        (stored,) = bucket_facts(table, 1, "b")
        assert stored is refreshed  # not the stale first object
        assert stored.timestamp == 5.0

    def test_replace_moves_index_entries(self):
        table = make_table()
        old = Fact("r", ("a", "b"))
        table.insert(old)
        table.ensure_index([1])
        new = Fact("r", ("a", "c"))
        result = table.insert(new)

        assert result.inserted and result.replaced is old
        assert bucket_facts(table, 1, "b") == ()
        (stored,) = bucket_facts(table, 1, "c")
        assert stored is new

    def test_expire_clears_index_buckets(self):
        table = make_table()
        soft = Fact("r", ("a", "b"), timestamp=0.0, ttl=1.0)
        hard = Fact("r", ("x", "y"))
        table.insert(soft)
        table.insert(hard)
        table.ensure_index([1])

        expired = table.expire(5.0)
        assert expired == [soft]
        assert bucket_facts(table, 1, "b") == ()
        (remaining,) = bucket_facts(table, 1, "y")
        assert remaining is hard

    def test_max_size_eviction_keeps_indexes_consistent(self):
        table = make_table(max_size=2)
        facts = [Fact("r", (f"k{i}", "v")) for i in range(4)]
        table.ensure_index([1])
        for fact in facts:
            table.insert(fact)
        assert len(table) == 2
        assert set(bucket_facts(table, 1, "v")) == set(table.facts())

    def test_interleaved_cycles_keep_lookup_and_scan_agreeing(self):
        table = make_table(key_columns=(0, 1))
        table.ensure_index([0])
        now = 0.0
        for round_number in range(5):
            now += 1.0
            for i in range(6):
                ttl = 1.5 if i % 2 else None
                table.insert(
                    Fact("r", (f"a{i % 3}", f"b{round_number}_{i}"), timestamp=now, ttl=ttl),
                    now=now,
                )
            table.expire(now + 0.5)
            via_scan = set(table.facts())
            via_index = set()
            for value in {f.values[0] for f in via_scan}:
                via_index.update(bucket_facts(table, 0, value))
            assert via_index == via_scan


class TestSoftStateFlag:
    def test_hard_state_table_never_reports_soft_state(self):
        table = make_table()
        table.insert(Fact("r", ("a", "b")))
        assert not table.has_soft_state
        assert table.expire(1e9) == []

    def test_flag_follows_insert_refresh_and_expiry(self):
        table = make_table()
        soft = Fact("r", ("a", "b"), timestamp=0.0, ttl=1.0)
        table.insert(soft)
        assert table.has_soft_state

        # Refreshing the same tuple as hard state clears the flag...
        table.insert(Fact("r", ("a", "b"), timestamp=0.0))
        assert not table.has_soft_state

        # ...and refreshing it back to soft state restores it.
        table.insert(Fact("r", ("a", "b"), timestamp=0.0, ttl=1.0))
        assert table.has_soft_state

        assert len(table.expire(10.0)) == 1
        assert not table.has_soft_state
        assert len(table) == 0

    def test_replacement_and_delete_update_flag(self):
        table = make_table()
        table.insert(Fact("r", ("a", "b"), ttl=5.0))
        table.insert(Fact("r", ("a", "c")))  # replaces the soft fact
        assert not table.has_soft_state

        table.insert(Fact("r", ("z", "w"), ttl=5.0))
        assert table.has_soft_state
        assert table.delete(Fact("r", ("z", "w")))
        assert not table.has_soft_state

    def test_clear_resets_flag(self):
        table = make_table()
        table.insert(Fact("r", ("a", "b"), ttl=5.0))
        table.clear()
        assert not table.has_soft_state
        assert table.expire(1e9) == []


class TestExpiryWatermark:
    """``_next_expiry`` may only ever skip scans that would expire nothing."""

    def test_random_scripts_expire_exactly_what_a_full_scan_would(self):
        import random

        rng = random.Random(15)
        for _ in range(200):
            table = make_table()
            batches = []
            table.on_expire = batches.append
            model = {}  # key value -> fact, in insertion order (the scan order)
            now = 0.0
            for _ in range(rng.randrange(1, 40)):
                now += rng.choice((0.0, 0.25, 1.0, 3.0))
                action = rng.random()
                if action < 0.55:
                    ttl = rng.choice((None, 0.5, 2.0, 1e6))
                    fact = Fact(
                        "r",
                        (f"k{rng.randrange(5)}", f"v{rng.randrange(2)}"),
                        timestamp=now - rng.choice((0.0, 1.0)),
                        ttl=ttl,
                    )
                    expected = _expire(model, now)
                    seen = len(batches)
                    table.insert(fact, now=now)
                    assert batches[seen:] == ([expected] if expected else [])
                    # Refresh keeps the slot; replacement re-appends.
                    stored = model.get(fact.values[0])
                    if stored is not None and stored.values != fact.values:
                        del model[fact.values[0]]
                    model[fact.values[0]] = fact
                elif action < 0.8:
                    assert table.expire(now) == _expire(model, now)
                elif action < 0.95 and model:
                    victim = model.pop(rng.choice(sorted(model)))
                    assert table.delete(victim)
                else:
                    table.clear()
                    model.clear()
                assert list(table.facts()) == list(model.values())
                soft = [f.timestamp + f.ttl for f in model.values() if f.ttl is not None]
                assert table._next_expiry <= min(soft, default=float("inf"))

    def test_scan_makes_the_watermark_exact_and_clear_resets_it(self):
        table = make_table()
        table.insert(Fact("r", ("a", "b"), timestamp=0.0, ttl=1.0))
        table.insert(Fact("r", ("c", "d"), timestamp=0.0, ttl=4.0))
        assert table._next_expiry == 1.0
        assert table.expire(0.5) == [] and table._next_expiry == 1.0
        assert [f.values for f in table.expire(2.0)] == [("a", "b")]
        assert table._next_expiry == 4.0
        table.clear()
        assert table._next_expiry == float("inf")


def _expire(model, now):
    expired = [fact for fact in model.values() if fact.is_expired(now)]
    for fact in expired:
        del model[fact.values[0]]
    return expired
