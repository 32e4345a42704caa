"""Unified result objects shared by the facade, harness, scenarios and benchmarks.

A :class:`RunResult` is what every way of running a network returns — the
facade's ``network.run()``, the harness sweeps, the benchmark helpers.  It
carries the raw simulation outcome (stats, per-node engines, convergence)
plus the sweep coordinates (configuration, node count, seed) and exposes
every headline metric as a flat attribute, so tables and sweep aggregation
read ``row.completion_time_s`` regardless of which entry point produced the
row.  Scenario phases report :class:`~repro.harness.scenarios.PhaseRow`
objects, re-exported beside this class from :mod:`repro.api`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.engine.node_engine import NodeEngine, collect_facts, facts_by_node
from repro.engine.tuples import Fact
from repro.net.address import Address
from repro.net.stats import NetworkStats
from repro.service.slo import ServiceLevelReport, service_report


def _total(name: str) -> property:
    """A flat read-only attribute: the run's total of counter *name*."""
    return property(lambda self: self.stats.total(name))


def _summarised(key: str) -> property:
    """A flat read-only attribute: the summary entry *key*."""
    return property(lambda self: self.stats.summary()[key])


@dataclass
class RunResult:
    """Outcome of one network run, with its sweep coordinates."""

    stats: NetworkStats
    engines: Dict[Address, NodeEngine]
    converged: bool
    events_processed: int
    #: Provenance preset (or legacy configuration name) the run used.
    configuration: str = ""
    node_count: int = 0
    seed: int = 0
    #: Service-plane serve window (``Network.serve``): arrivals the
    #: workload generator scheduled and the window's simulated length.
    #: Zero for plain ``run()`` results.
    offered: int = 0
    serve_duration: float = 0.0

    # -- stored facts ----------------------------------------------------------

    def facts(self, relation: str) -> Dict[Address, Tuple[Fact, ...]]:
        """All stored facts of *relation*, per node."""
        return facts_by_node(self.engines, relation)

    def all_facts(self, relation: str) -> Tuple[Fact, ...]:
        return collect_facts(self.engines, relation)

    def count(self, relation: str) -> int:
        """Global stored-tuple count of *relation* across all nodes."""
        return sum(len(engine.facts(relation)) for engine in self.engines.values())

    # -- headline metrics (flat, for sweep tables) -----------------------------

    completion_time_s = _total("completion_time")
    total_messages = _total("total_messages")
    total_bytes = _total("bytes_sent")
    security_bytes = _total("security_bytes_sent")
    provenance_bytes = _total("provenance_bytes_sent")
    query_bytes = _total("query_bytes_sent")
    query_messages = _total("query_messages_sent")
    batches_sent = _total("batches_sent")
    tuples_sent = _total("tuples_sent")
    facts_derived = _total("facts_derived")
    bandwidth_mb = _summarised("bandwidth_mb")

    # -- service-plane metrics (Network.serve) ---------------------------------

    queries_completed = _total("queries_completed")
    queries_rejected = _total("queries_rejected")
    queries_shed = _total("queries_shed")

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of closure lookups the result cache answered (0.0 when idle)."""
        hits = self.stats.total("cache_hits")
        lookups = hits + self.stats.total("cache_misses")
        return hits / lookups if lookups else 0.0

    query_p50_ms = _summarised("query_p50_ms")
    query_p95_ms = _summarised("query_p95_ms")
    query_p99_ms = _summarised("query_p99_ms")

    def service(self) -> Optional[ServiceLevelReport]:
        """The SLO report for this result's serve window, or ``None`` for a
        result that did not come from :meth:`Network.serve`."""
        if not self.offered:
            return None
        return service_report(self.stats, self.serve_duration, self.offered)

    def summary(self) -> Dict[str, float]:
        """The stats summary dictionary (query traffic itemized)."""
        return self.stats.summary()

    def as_dict(self) -> Dict[str, object]:
        """One flat row: sweep coordinates plus every summary metric."""
        row: Dict[str, object] = {
            "configuration": self.configuration,
            "node_count": self.node_count,
            "seed": self.seed,
            "converged": self.converged,
            "events": self.events_processed,
        }
        row.update(self.stats.summary())
        report = self.service()
        if report is not None:
            for key, value in report.as_dict().items():
                row[f"service_{key}"] = value
        return row
