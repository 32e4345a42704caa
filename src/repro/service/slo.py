"""Latency SLO accounting: percentiles, goodput and saturation curves.

The service plane's contract with its operators is a service-level
objective over *simulated* time: p50/p95/p99 query latency, completed
queries per simulated second (goodput), and how both move as the offered
rate crosses the saturation point.  The recorded statistic is always the
integer latency-bucket histogram on :class:`~repro.net.stats.NodeStats`
(byte-identical across backends); everything here is *derived* — a pure
function of those integers — so serial and sharded runs report exactly
the same SLO numbers.

Open-loop saturation has a characteristic signature the benchmark axis
(``benchmarks/test_query_service.py``) asserts: past the admission /
capacity knee, p95 latency and the rejection rate rise monotonically with
the offered rate while goodput plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.net.stats import NetworkStats, bucket_percentile

PERCENTILES = (0.50, 0.95, 0.99)


@dataclass(frozen=True)
class ServiceLevelReport:
    """One serve window's SLO numbers, derived from integer counters."""

    #: Arrivals the workload generator offered, and per simulated second.
    offered: int
    offered_rate: float
    #: Queries that ran to completion, and per simulated second (goodput).
    completed: int
    goodput: float
    rejected: int
    shed: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    cache_hits: int
    cache_misses: int
    cache_invalidations: int
    duration: float
    #: Staleness-age spread of the answers served from the result cache:
    #: p50/p95/p99 of the age (milliseconds of simulated time since the
    #: entry was stored) at hit time.  Epoch guards make a hit
    #: structurally identical to a cold walk, so this measures how *old*
    #: correct answers are, not how wrong they could be; all zeros when
    #: the cache is cold or disarmed.
    staleness_p50_ms: float = 0.0
    staleness_p95_ms: float = 0.0
    staleness_p99_ms: float = 0.0

    @property
    def rejection_rate(self) -> float:
        """Denials per offered arrival (retries can push this above 1.0)."""
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "offered": float(self.offered),
            "offered_rate": self.offered_rate,
            "completed": float(self.completed),
            "goodput_qps": self.goodput,
            "rejected": float(self.rejected),
            "shed": float(self.shed),
            "rejection_rate": self.rejection_rate,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_invalidations": float(self.cache_invalidations),
            "cache_hit_ratio": self.cache_hit_ratio,
            "duration_s": self.duration,
            "staleness_p50_ms": self.staleness_p50_ms,
            "staleness_p95_ms": self.staleness_p95_ms,
            "staleness_p99_ms": self.staleness_p99_ms,
        }


def percentiles_ms(histogram: Mapping[int, int]) -> Dict[float, float]:
    """p50/p95/p99 (milliseconds) of one latency-bucket histogram."""
    return {
        fraction: bucket_percentile(dict(histogram), fraction)
        for fraction in PERCENTILES
    }


def service_report(
    stats: NetworkStats, duration: float, offered: int
) -> ServiceLevelReport:
    """Assemble the SLO report for one serve window.

    *duration* is the window's simulated length and *offered* the number
    of arrivals the workload generator scheduled into it; both come from
    the caller because :class:`NetworkStats` spans the whole run,
    convergence included.
    """
    spread = percentiles_ms(stats.total("query_latency_buckets"))
    staleness = percentiles_ms(stats.total("cache_staleness_buckets"))
    completed = stats.total("queries_completed")
    return ServiceLevelReport(
        offered=offered,
        offered_rate=offered / duration if duration > 0 else 0.0,
        completed=completed,
        goodput=completed / duration if duration > 0 else 0.0,
        rejected=stats.total("queries_rejected"),
        shed=stats.total("queries_shed"),
        p50_ms=spread[0.50],
        p95_ms=spread[0.95],
        p99_ms=spread[0.99],
        cache_hits=stats.total("cache_hits"),
        cache_misses=stats.total("cache_misses"),
        cache_invalidations=stats.total("cache_invalidations"),
        duration=duration,
        staleness_p50_ms=staleness[0.50],
        staleness_p95_ms=staleness[0.95],
        staleness_p99_ms=staleness[0.99],
    )
