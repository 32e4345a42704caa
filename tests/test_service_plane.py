"""Unit tests for the query service plane (repro.service).

The saturation/backend-equality behaviour is covered by
``benchmarks/test_query_service.py`` and ``tests/test_sharding.py``; the
no-stale-answer guarantee by ``tests/test_service_cache_property.py``.
These tests pin the building blocks: the token bucket's simulated-time
refill, the closure cache's epoch/TTL/LRU discipline, workload
determinism, the SLO bucket math, the options plumbing and the facade's
``serve`` entry point.
"""

from __future__ import annotations

import pytest

from repro.api import Network
from repro.api.options import NetOptions
from repro.net.stats import bucket_percentile, bucket_upper_ms, latency_bucket
from repro.service import (
    AdmissionControl,
    CacheConfig,
    ClosureCache,
    QueryWorkload,
    TokenBucket,
    next_arrival,
    percentiles_ms,
)


class TestTokenBucket:
    def test_starts_full_and_spends(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)

    def test_refills_on_simulated_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.1)
        # Half a second at 2/s accrues one token.
        assert bucket.try_acquire(0.6)

    def test_burst_caps_accrual(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        assert bucket.available(100.0) == 2.0

    def test_time_going_backwards_does_not_refill(self):
        # The scheduler never runs time backwards, but a same-instant burst
        # of arrivals must not mint tokens either.
        bucket = TokenBucket(rate=5.0, burst=1.0)
        assert bucket.try_acquire(1.0)
        assert not bucket.try_acquire(1.0)
        assert not bucket.try_acquire(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionControl:
    def test_bucket_defaults_burst_to_one_second_of_rate(self):
        assert AdmissionControl(rate=7.0).bucket().burst == 7.0
        assert AdmissionControl(rate=0.25).bucket().burst == 1.0
        assert AdmissionControl(rate=2.0, burst=9.0).bucket().burst == 9.0

    def test_validation_names_the_problem(self):
        with pytest.raises(ValueError, match="rate"):
            AdmissionControl(rate=-1.0)
        with pytest.raises(ValueError, match="burst"):
            AdmissionControl(rate=1.0, burst=-1.0)


class TestClosureCache:
    def test_hit_returns_value_and_age(self):
        cache = ClosureCache(capacity=4)
        cache.store("k", "v", epoch=1, now=10.0)
        hit, invalidated = cache.lookup("k", epoch=1, now=12.5)
        assert not invalidated
        assert hit == ("v", 2.5)

    def test_epoch_move_invalidates(self):
        cache = ClosureCache(capacity=4)
        cache.store("k", "v", epoch=1, now=0.0)
        hit, invalidated = cache.lookup("k", epoch=2, now=0.0)
        assert hit is None and invalidated
        # The stale entry is gone: the next probe is a plain miss.
        hit, invalidated = cache.lookup("k", epoch=2, now=0.0)
        assert hit is None and not invalidated

    def test_lru_eviction_counts(self):
        cache = ClosureCache(capacity=2)
        assert cache.store("a", 1, epoch=0, now=0.0) == 0
        assert cache.store("b", 2, epoch=0, now=0.0) == 0
        # Touch "a" so "b" is the least recently used.
        cache.lookup("a", epoch=0, now=0.0)
        assert cache.store("c", 3, epoch=0, now=0.0) == 1
        assert cache.lookup("b", epoch=0, now=0.0) == (None, False)
        assert cache.lookup("a", epoch=0, now=0.0)[0] is not None

    def test_clear_reports_count(self):
        cache = ClosureCache(capacity=8)
        cache.store("a", 1, epoch=0, now=0.0)
        cache.store("b", 2, epoch=0, now=0.0)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_config_validation_and_build(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity=0)
        assert CacheConfig(capacity=3).build().capacity == 3


class TestQueryWorkload:
    def test_schedule_is_deterministic(self):
        workload = QueryWorkload(rate=5.0, clients=2, duration=4.0, seed=9)
        nodes = ("n2", "n0", "n1")
        def shape(events):
            # QueryArrival is identity-compared (eq=False, like every
            # simulation event); compare the scheduled content instead.
            return [
                (e.time, e.address, e.draw, e.client, e.arrival_id)
                for e in events
            ]

        first = workload.events(nodes, start=1.0)
        second = workload.events(tuple(reversed(nodes)), start=1.0)
        assert shape(first) == shape(second)
        assert first  # non-empty at this rate/duration

    def test_open_loop_respects_window(self):
        workload = QueryWorkload(rate=20.0, duration=2.0, seed=0)
        events = workload.events(("a", "b"), start=5.0)
        assert all(5.0 < event.time < 7.0 for event in events)
        assert all(event.client == -1 for event in events)
        assert [event.arrival_id for event in events] == list(
            range(len(events))
        )

    def test_closed_loop_pins_clients(self):
        workload = QueryWorkload(clients=3, think_time=0.5, duration=4.0)
        events = workload.events(("b", "a"), start=0.0)
        assert [event.client for event in events] == [0, 1, 2]
        assert [event.address for event in events] == ["a", "b", "a"]
        assert all(0.0 <= event.time <= 0.5 for event in events)

    def test_next_arrival_is_pure_and_advances(self):
        workload = QueryWorkload(clients=1, think_time=0.5, duration=10.0)
        [first] = workload.events(("a",), start=0.0)
        follow = next_arrival(first, at=2.0)
        again = next_arrival(first, at=2.0)
        assert follow.draw == again.draw  # content-derived, not RNG state
        assert follow.arrival_id == 1 and follow.time == 2.0
        assert follow.client == first.client
        assert 0 <= follow.draw < first.pool

    def test_validation(self):
        with pytest.raises(ValueError, match="open loop"):
            QueryWorkload()
        with pytest.raises(ValueError, match="rate"):
            QueryWorkload(rate=-1.0)
        with pytest.raises(ValueError, match="duration"):
            QueryWorkload(rate=1.0, duration=0.0)
        with pytest.raises(ValueError, match="pool"):
            QueryWorkload(rate=1.0, pool=0)
        with pytest.raises(ValueError, match="mode"):
            QueryWorkload(rate=1.0, mode="psychic")
        with pytest.raises(ValueError, match="at least one node"):
            QueryWorkload(rate=1.0).events((), start=0.0)


class TestSloMath:
    def test_latency_bucket_edges(self):
        assert latency_bucket(0.0) == 0
        assert latency_bucket(0.0000009) == 0  # under a microsecond
        assert latency_bucket(0.000001) == 1
        assert latency_bucket(0.001) == 10  # 1000 us -> bucket 10
        assert bucket_upper_ms(10) == 1.024

    def test_percentiles_are_bucket_upper_edges(self):
        histogram = {5: 90, 10: 9, 15: 1}
        assert bucket_percentile(histogram, 0.50) == bucket_upper_ms(5)
        assert bucket_percentile(histogram, 0.95) == bucket_upper_ms(10)
        # Rank 99 of 100 still lands in the second bucket; only the full
        # tail reaches the outlier.
        assert bucket_percentile(histogram, 0.99) == bucket_upper_ms(10)
        assert bucket_percentile(histogram, 1.0) == bucket_upper_ms(15)
        assert bucket_percentile({}, 0.95) == 0.0

    def test_percentiles_ms_covers_the_slo_points(self):
        spread = percentiles_ms({3: 100})
        assert set(spread) == {0.50, 0.95, 0.99}
        assert all(value == bucket_upper_ms(3) for value in spread.values())


class TestNetOptionsService:
    def test_admission_fields_validated(self):
        with pytest.raises(ValueError, match="admission_rate"):
            NetOptions(admission_rate=-1.0)
        with pytest.raises(ValueError, match="query_cache_entries"):
            NetOptions(query_cache_entries=0)

    def test_service_factories(self):
        off = NetOptions()
        assert off.service_admission() is None
        assert off.service_cache() is None
        on = NetOptions(
            admission_rate=3.0,
            query_cache=True,
            query_cache_entries=16,
        )
        admission = on.service_admission()
        assert admission == AdmissionControl(rate=3.0)
        cache = on.service_cache()
        assert cache == CacheConfig(capacity=16)


class TestNetworkServe:
    def _network(self, **overrides):
        return Network.build(
            topology=8,
            program="best-path",
            provenance="condensed",
            options=NetOptions(key_bits=128, seed=2, **overrides),
        )

    def test_serve_reports_slo(self):
        network = self._network(query_cache=True)
        result = network.serve(QueryWorkload(rate=4.0, duration=6.0, seed=1))
        assert result.offered > 0
        assert result.queries_completed > 0
        assert result.cache_hit_ratio > 0.0
        report = result.service()
        assert report is not None
        assert report.completed == result.queries_completed
        assert report.goodput == pytest.approx(report.completed / 6.0)
        assert report.p95_ms >= report.p50_ms
        row = result.as_dict()
        assert row["service_offered"] == result.offered
        assert row["queries_completed"] == result.queries_completed
        # The cache served hits, so their staleness-age spread is visible
        # and ordered like any percentile family.
        assert report.staleness_p99_ms >= report.staleness_p95_ms
        assert report.staleness_p95_ms >= report.staleness_p50_ms
        assert report.staleness_p95_ms > 0.0
        assert report.as_dict()["staleness_p95_ms"] == report.staleness_p95_ms

    def test_cold_cache_reports_zero_staleness(self):
        network = self._network()  # no query_cache: nothing is ever a hit
        result = network.serve(QueryWorkload(rate=2.0, duration=4.0, seed=1))
        report = result.service()
        assert report is not None
        assert report.cache_hits == 0
        assert report.staleness_p50_ms == 0.0
        assert report.staleness_p99_ms == 0.0

    def test_admission_drop_sheds_over_rate(self):
        network = self._network(admission_rate=0.5, admission_burst=1.0)
        result = network.serve(QueryWorkload(rate=8.0, duration=4.0, seed=1))
        assert result.queries_rejected > 0
        # Drop policy: every denial permanently sheds the arrival.
        assert result.queries_shed == result.queries_rejected
        assert (
            result.queries_completed + result.queries_shed == result.offered
        )

    def test_unanswerable_config_sheds_everything(self):
        # The ndlog preset maintains no provenance: the service plane must
        # shed (not hang or crash) every arrival.
        network = Network.build(
            topology=6,
            program="best-path",
            provenance="ndlog",
            options=NetOptions(key_bits=128),
        )
        result = network.serve(QueryWorkload(rate=3.0, duration=4.0, seed=0))
        assert result.queries_completed == 0
        assert result.queries_shed == result.offered

    def test_plain_run_has_no_service_report(self):
        result = self._network().run()
        assert result.service() is None
        assert "service_offered" not in result.as_dict()


class TestScenarioServiceColumns:
    def test_link_failure_reports_service_columns(self):
        from repro.harness.scenarios import (
            SCENARIO_OPTIONS,
            link_failure_scenario,
            run_scenario,
        )

        scenario, network = link_failure_scenario(
            node_count=8,
            query_rate=3.0,
            clients=1,
            options=SCENARIO_OPTIONS.merged(admission_rate=2.0),
        )
        report = run_scenario(scenario, network)
        assert report.converged
        served = [row for row in report.rows if row.phase != "converge"]
        assert any(row.query_p95_ms > 0 for row in served)
        assert any(row.cache_hit_pct > 0 for row in served)
        assert sum(row.rejected for row in served) > 0
        rendered = report.render()
        assert "p95ms" in rendered and "hit%" in rendered and "rej" in rendered
