"""Unit tests for NodeStats.merge / NetworkStats.merge.

The merge path is what reassembles per-shard statistics into one run record
(the sharded backend's ``finish``) and what aggregates repeated runs of one
sweep point; these tests pin the arithmetic: counters add, instants take the
maximum, histograms fold, and per-node entries combine by address.
"""

from __future__ import annotations

from dataclasses import fields
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.stats import (
    COORDINATION_KEYS,
    SUMMARY,
    NetworkStats,
    NodeStats,
    merge_rule,
)


def _node(address="n0", **overrides) -> NodeStats:
    stats = NodeStats(address=address)
    for name, value in overrides.items():
        setattr(stats, name, value)
    return stats


class TestNodeStatsMerge:
    def test_counters_add_and_busy_until_takes_max(self):
        first = _node(
            messages_sent=3,
            bytes_sent=300,
            tuples_sent=7,
            cpu_seconds=1.5,
            busy_until=4.0,
            facts_derived=11,
        )
        second = _node(
            messages_sent=2,
            bytes_sent=150,
            tuples_sent=4,
            cpu_seconds=0.5,
            busy_until=2.5,
            facts_derived=3,
        )
        first.merge(second)
        assert first.messages_sent == 5
        assert first.bytes_sent == 450
        assert first.tuples_sent == 11
        assert first.cpu_seconds == 2.0
        assert first.busy_until == 4.0  # an instant, not a quantity
        assert first.facts_derived == 14

    def test_batch_size_histograms_fold(self):
        first = _node(batch_sizes={1: 2, 3: 1})
        second = _node(batch_sizes={3: 4, 5: 1})
        first.merge(second)
        assert first.batch_sizes == {1: 2, 3: 5, 5: 1}

    def test_query_attribution_merges(self):
        first = _node(queries_issued=1, query_messages_sent=4, query_bytes_charged=900)
        second = _node(queries_issued=2, query_messages_sent=1, query_bytes_charged=100)
        first.merge(second)
        assert first.queries_issued == 3
        assert first.query_messages_sent == 5
        assert first.query_bytes_charged == 1000

    def test_refuses_to_merge_different_addresses(self):
        with pytest.raises(ValueError, match="n1"):
            _node("n0").merge(_node("n1"))


class TestNetworkStatsMerge:
    def test_disjoint_nodes_transfer(self):
        left = NetworkStats()
        left.node("n0").messages_sent = 2
        left.total_messages = 2
        right = NetworkStats()
        right.node("n1").messages_sent = 5
        right.total_messages = 5
        left.merge(right)
        assert set(left.nodes) == {"n0", "n1"}
        assert left.total_messages == 7
        assert left.total("bytes_sent") == 0

    def test_shared_nodes_fold_by_address(self):
        left = NetworkStats()
        left.node("n0").bytes_sent = 100
        right = NetworkStats()
        right.node("n0").bytes_sent = 50
        left.merge(right)
        assert left.node("n0").bytes_sent == 150
        assert left.total("bytes_sent") == 150

    def test_completion_time_takes_max_and_losses_add(self):
        left = NetworkStats(completion_time=3.0, messages_lost=1, messages_dropped=2)
        right = NetworkStats(completion_time=7.5, messages_lost=4, messages_dropped=0)
        left.merge(right)
        assert left.completion_time == 7.5
        assert left.messages_lost == 5
        assert left.messages_dropped == 2

    def test_merge_never_mutates_or_aliases_the_source(self):
        # Regression: merging must not adopt the other record's NodeStats
        # by reference — aggregating repeated runs of one topology (same
        # addresses) would otherwise corrupt the first run's statistics.
        run1, run2 = NetworkStats(), NetworkStats()
        run1.node("n0").messages_sent = 5
        run1.node("n0").batch_sizes[2] = 1
        run2.node("n0").messages_sent = 7
        combined = NetworkStats.merged([run1, run2])
        assert combined.node("n0").messages_sent == 12
        assert run1.node("n0").messages_sent == 5
        assert run2.node("n0").messages_sent == 7
        assert combined.node("n0") is not run1.node("n0")
        combined.node("n0").batch_sizes[2] = 99
        assert run1.node("n0").batch_sizes == {2: 1}

    def test_merged_classmethod_folds_many(self):
        parts = []
        for index in range(3):
            stats = NetworkStats()
            stats.node(f"n{index}").messages_sent = index + 1
            stats.total_messages = index + 1
            parts.append(stats)
        combined = NetworkStats.merged(parts)
        assert combined.total_messages == 6
        assert set(combined.nodes) == {"n0", "n1", "n2"}

    def test_summary_of_merged_equals_summary_of_whole(self):
        # Splitting one run's counters across two records and merging them
        # back must be invisible to every integer summary metric.
        whole = NetworkStats(total_messages=10)
        whole.node("a").messages_sent = 6
        whole.node("a").bytes_sent = 600
        whole.node("b").messages_sent = 4
        whole.node("b").bytes_sent = 400

        left = NetworkStats(total_messages=6)
        left.node("a").messages_sent = 6
        left.node("a").bytes_sent = 600
        right = NetworkStats(total_messages=4)
        right.node("b").messages_sent = 4
        right.node("b").bytes_sent = 400
        combined = NetworkStats.merged([left, right])
        assert combined.summary() == whole.summary()


# -- the fields are the registry ---------------------------------------------------
#
# These properties enumerate ``dataclasses.fields``: a counter added later is
# drawn, merged, split and summarised with no edit here.

#: Every NodeStats field that merges (all but the address).
COUNTERS = [spec for spec in fields(NodeStats) if merge_rule(spec) is not None]
#: Every run-level NetworkStats field (all but the per-node records).
RUN_COUNTERS = [spec for spec in fields(NetworkStats) if spec.name != "nodes"]


def _values(spec):
    """Values for one field, by what its declaration says it holds."""
    if spec.default_factory is dict:
        return st.dictionaries(st.integers(0, 40), st.integers(0, 1_000), max_size=5)
    if isinstance(spec.default, float):
        return st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
    assert isinstance(spec.default, int), spec.name
    return st.integers(0, 10**9)


def _records(address):
    return st.builds(
        NodeStats,
        address=st.just(address),
        **{spec.name: _values(spec) for spec in COUNTERS},
    )


def _expected(spec, values):
    """The merge of *values* under the rule *spec* declares, computed here."""
    if spec.metadata.get("merge") is max:  # an instant: the latest
        return reduce(max, values, spec.default)
    assert "merge" not in spec.metadata, spec.name
    if spec.default_factory is dict:  # a histogram: bucket by bucket
        folded = {}
        for histogram in values:
            for bucket, count in histogram.items():
                folded[bucket] = folded.get(bucket, 0) + count
        return folded
    return reduce(add, values, spec.default)  # a quantity: the sum


@settings(max_examples=60, deadline=None)
@given(st.lists(_records("n0"), min_size=2, max_size=3))
def test_merge_applies_each_declared_rule(records):
    merged = NodeStats(address="n0")
    for record in records:
        merged.merge(record)
    for spec in COUNTERS:
        values = [getattr(record, spec.name) for record in records]
        assert getattr(merged, spec.name) == _expected(spec, values), spec.name


def _split(data, spec, value, parts: int):
    """*value* of one run-level field spread over *parts* records so that
    merging them back gives *value*."""
    if spec.metadata.get("merge") is max:
        shares = [
            data.draw(st.floats(0.0, value, allow_nan=False)) for _ in range(parts)
        ]
        shares[data.draw(st.integers(0, parts - 1))] = value
        return shares
    cuts = sorted(data.draw(st.integers(0, value)) for _ in range(parts - 1))
    return [high - low for low, high in zip([0] + cuts, cuts + [value])]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_merged_split_of_a_run_summarises_like_the_run(data):
    addresses = [f"n{index}" for index in range(data.draw(st.integers(1, 6)))]
    whole = NetworkStats(
        nodes={address: data.draw(_records(address)) for address in addresses},
        **{spec.name: data.draw(_values(spec)) for spec in RUN_COUNTERS},
    )
    parts = [NetworkStats() for _ in range(data.draw(st.integers(1, 3)))]
    for address in addresses:
        owner = parts[data.draw(st.integers(0, len(parts) - 1))]
        owner.nodes[address] = whole.nodes[address]
    for spec in RUN_COUNTERS:
        shares = _split(data, spec, getattr(whole, spec.name), len(parts))
        for part, share in zip(parts, shares):
            setattr(part, spec.name, share)

    expected, summary = whole.summary(), NetworkStats.merged(parts).summary()
    assert list(summary) == [key for key, _ in SUMMARY]
    assert COORDINATION_KEYS <= set(summary)
    for key, value in expected.items():
        if key == "cpu_seconds":
            # The one cross-node float sum: merge order may re-associate it.
            assert summary[key] == pytest.approx(value, rel=1e-12)
        else:
            assert summary[key] == value, key
