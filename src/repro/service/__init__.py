"""The query service plane: an always-on network under provenance query load.

The maintenance plane (``repro.net``) keeps provenance current while the
network converges, churns and refreshes; this package adds the *serving*
side — sustained provenance query traffic treated as first-class
simulation load:

* :mod:`repro.service.workload` — open-loop (Poisson, precomputed
  schedule) and closed-loop (N clients with think time) query arrival
  generation, deterministic and backend-identical;
* :mod:`repro.service.ratelimit` — per-node token-bucket admission
  control on simulated time; a denied arrival is shed;
* :mod:`repro.service.cache` — per-node memoized closure cache,
  epoch-invalidated so cached answers are never stale;
* :mod:`repro.service.slo` — p50/p95/p99 latency, goodput and rejection
  reporting derived purely from integer counters.

Entry points: ``Network.serve(workload=...)`` at the API layer, or
``NetOptions(admission_rate=..., query_cache=True)`` to arm admission and
caching for any run.
"""

from repro.service.cache import CacheConfig, ClosureCache
from repro.service.ratelimit import AdmissionControl, TokenBucket
from repro.service.slo import (
    PERCENTILES,
    ServiceLevelReport,
    percentiles_ms,
    service_report,
)
from repro.service.workload import QueryWorkload, next_arrival

__all__ = [
    "AdmissionControl",
    "CacheConfig",
    "ClosureCache",
    "PERCENTILES",
    "QueryWorkload",
    "ServiceLevelReport",
    "TokenBucket",
    "next_arrival",
    "percentiles_ms",
    "service_report",
]
