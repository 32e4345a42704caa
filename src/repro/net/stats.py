"""Simulation statistics: the metrics of the paper's evaluation.

Two headline metrics (Section 6):

* **query completion time** — the simulated time at which the distributed
  fixpoint is reached (no messages in flight, every node idle);
* **bandwidth usage** — "the total combined bandwidth usage across all
  nodes", i.e. the sum of the sizes of every message sent.

Per-node statistics additionally break down CPU time, message counts and the
bytes attributable to security envelopes and provenance annotations, which
the harness uses to explain *where* the SeNDlog / SeNDlogProv overheads come
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Union

from repro.net.address import Address
from repro.net.message import (
    AntiDelta,
    Message,
    MessageBatch,
    QueryRequest,
    QueryResponse,
)

WireMessage = Union[Message, MessageBatch, QueryRequest, QueryResponse, AntiDelta]


def latency_bucket(seconds: float) -> int:
    """Map a simulated duration onto an integer power-of-two microsecond bucket.

    Bucket ``b`` covers durations in ``[2**(b-1), 2**b)`` microseconds
    (bucket 0 is "under a microsecond").  The mapping goes through an
    integer microsecond count, so the histograms built from it are pure
    integer statistics — part of the serial-vs-sharded byte-identical
    equality contract — while percentile estimates derived from them
    (see :mod:`repro.service.slo`) stay within a factor of two of the
    true value at any scale from microseconds to hours.
    """
    return int(seconds * 1_000_000).bit_length()


def bucket_upper_ms(bucket: int) -> float:
    """The inclusive upper edge of *bucket*, in milliseconds."""
    if bucket <= 0:
        return 0.001
    return (1 << bucket) / 1000.0


def bucket_percentile(histogram: Dict[int, int], fraction: float) -> float:
    """The *fraction*-quantile latency (milliseconds) of a bucket histogram.

    Conservative: reports the upper edge of the bucket containing the
    quantile rank, so an SLO built on it can only over-estimate latency.
    Returns 0.0 for an empty histogram.
    """
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(fraction * total))
    seen = 0
    for bucket in sorted(histogram):
        seen += histogram[bucket]
        if seen >= rank:
            return bucket_upper_ms(bucket)
    return bucket_upper_ms(max(histogram))


@dataclass
class NodeStats:
    """Counters for one node.

    ``messages_sent`` counts wire messages (a batch is one message);
    ``tuples_sent`` counts the tuples they carried.  ``batch_sizes`` is the
    tuples-per-batch histogram for batched sends (size -> batch count).

    Provenance query traffic is real traffic — it is included in
    ``messages_sent`` / ``bytes_sent`` — and additionally itemized:
    ``query_messages_sent`` / ``query_bytes_sent`` attribute the wire
    messages this node shipped for the query plane (requests it issued,
    responses it answered), while ``query_bytes_charged`` attributes every
    byte of query traffic — requests *and* the responses they provoked — to
    the node that *issued* the query, the way the paper's Section 6 would
    bill a traceback to its asker.
    """

    address: Address
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    security_bytes_sent: int = 0
    provenance_bytes_sent: int = 0
    batches_sent: int = 0
    tuples_sent: int = 0
    tuples_received: int = 0
    queries_issued: int = 0
    query_messages_sent: int = 0
    query_bytes_sent: int = 0
    query_bytes_charged: int = 0
    #: Query service plane (repro.service): arrivals this node's admission
    #: control turned away (each denial, retries included), arrivals
    #: permanently dropped unserved (drop policy, retry exhaustion, a
    #: crashed node or an unresolvable root), and queries that ran to
    #: completion.  All integers, all part of the cross-backend equality
    #: contract.
    queries_rejected: int = 0
    queries_shed: int = 0
    queries_completed: int = 0
    #: Result-cache counters for closures this node served: hits, misses,
    #: and entries discarded (provenance epoch moved on, TTL elapsed, or
    #: LRU eviction).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    facts_derived: int = 0
    facts_stored: int = 0
    facts_retracted: int = 0
    #: Dynamics ledger (one-fixpoint deletions and the timer-wheel refresh
    #: plane): tuples this node revived because an alternative derivation
    #: survived a retraction cascade; DRed anti-delta wire messages/bytes it
    #: shipped (also included in ``messages_sent`` / ``bytes_sent``);
    #: first-hop wire messages/bytes its refresh waves originated (likewise
    #: included in the totals); and refresh-timer fire events it handled.
    #: All integers on simulated time — part of the cross-backend equality
    #: contract.
    rederivations: int = 0
    anti_delta_messages: int = 0
    anti_delta_bytes: int = 0
    refresh_messages: int = 0
    refresh_bytes: int = 0
    timer_events: int = 0
    #: Offline-archive storage tiers (gauges refreshed at snapshot points —
    #: kernel expiry sweeps and sharded stats requests): bytes of provenance
    #: resident in memory, cumulative bytes written to the spill log, and
    #: entries read back from it.  Zero spill under the in-memory archive.
    provenance_bytes_resident: int = 0
    provenance_bytes_spilled: int = 0
    spill_reads: int = 0
    cpu_seconds: float = 0.0
    busy_until: float = 0.0
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    #: Integer histograms (bucket -> count, buckets per :func:`latency_bucket`)
    #: of completed service-query latencies this node issued, and of the age
    #: of cache entries at the moment they were served.  Percentiles are
    #: *derived* from these (repro.service.slo), so the recorded statistic
    #: itself stays byte-identical across backends.
    query_latency_buckets: Dict[int, int] = field(default_factory=dict)
    cache_staleness_buckets: Dict[int, int] = field(default_factory=dict)

    def record_send(self, message: WireMessage) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes()
        self.security_bytes_sent += message.security_bytes
        self.provenance_bytes_sent += message.provenance_bytes
        count = message.tuple_count
        self.tuples_sent += count
        if isinstance(message, MessageBatch):
            self.batches_sent += 1
            self.batch_sizes[count] = self.batch_sizes.get(count, 0) + 1
        elif isinstance(message, (QueryRequest, QueryResponse)):
            self.query_messages_sent += 1
            self.query_bytes_sent += message.size_bytes()
        elif isinstance(message, AntiDelta):
            self.anti_delta_messages += 1
            self.anti_delta_bytes += message.size_bytes()

    def record_receive(self, message: WireMessage) -> None:
        self.messages_received += 1
        self.bytes_received += message.size_bytes()
        self.tuples_received += message.tuple_count

    def merge(self, other: "NodeStats") -> None:
        """Fold *other*'s counters into this record (same node, two sources).

        Used when reassembling per-shard statistics into one run record and
        when aggregating repeated runs of one sweep point.  Counters add;
        ``busy_until`` — an instant, not a quantity — takes the latest.
        """
        if other.address != self.address:
            raise ValueError(
                f"cannot merge stats of node {other.address!r} into node "
                f"{self.address!r}"
            )
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.security_bytes_sent += other.security_bytes_sent
        self.provenance_bytes_sent += other.provenance_bytes_sent
        self.batches_sent += other.batches_sent
        self.tuples_sent += other.tuples_sent
        self.tuples_received += other.tuples_received
        self.queries_issued += other.queries_issued
        self.query_messages_sent += other.query_messages_sent
        self.query_bytes_sent += other.query_bytes_sent
        self.query_bytes_charged += other.query_bytes_charged
        self.queries_rejected += other.queries_rejected
        self.queries_shed += other.queries_shed
        self.queries_completed += other.queries_completed
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_invalidations += other.cache_invalidations
        self.facts_derived += other.facts_derived
        self.facts_stored += other.facts_stored
        self.facts_retracted += other.facts_retracted
        self.rederivations += other.rederivations
        self.anti_delta_messages += other.anti_delta_messages
        self.anti_delta_bytes += other.anti_delta_bytes
        self.refresh_messages += other.refresh_messages
        self.refresh_bytes += other.refresh_bytes
        self.timer_events += other.timer_events
        # Each node's archive lives on exactly one kernel, so the tier
        # gauges are nonzero in at most one source and adding is exact.
        self.provenance_bytes_resident += other.provenance_bytes_resident
        self.provenance_bytes_spilled += other.provenance_bytes_spilled
        self.spill_reads += other.spill_reads
        self.cpu_seconds += other.cpu_seconds
        self.busy_until = max(self.busy_until, other.busy_until)
        for size, count in other.batch_sizes.items():
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + count
        for bucket, count in other.query_latency_buckets.items():
            self.query_latency_buckets[bucket] = (
                self.query_latency_buckets.get(bucket, 0) + count
            )
        for bucket, count in other.cache_staleness_buckets.items():
            self.cache_staleness_buckets[bucket] = (
                self.cache_staleness_buckets.get(bucket, 0) + count
            )


@dataclass
class NetworkStats:
    """Aggregated statistics for one simulation run."""

    nodes: Dict[Address, NodeStats] = field(default_factory=dict)
    completion_time: float = 0.0
    total_messages: int = 0
    total_events: int = 0
    #: Messages addressed to a node that does not exist; they are dropped
    #: without fabricating per-node statistics for the phantom address.
    messages_dropped: int = 0
    #: Messages lost to network dynamics: shipped on a failed link, or
    #: arriving at a crashed node.  The sender still paid for the bytes.
    messages_lost: int = 0
    #: Coordination ledger of the sharded backend (zero under serial, where
    #: there is nothing to coordinate).  All four counters are deterministic
    #: — identical between ``shard_mode="inline"`` and ``"processes"`` runs
    #: of the same workload — which is what makes the coordination floor
    #: measurable on a single-CPU box.  ``coordination_rounds`` counts
    #: coordinator↔worker request/reply round-trips on the hot path (drain
    #: flushes and window grants); ``coordination_bytes`` the frame bytes
    #: those round-trips carried; ``windows_executed`` the window commands
    #: issued.
    coordination_rounds: int = 0
    coordination_bytes: int = 0
    windows_executed: int = 0
    #: Always 0: the lockstep barrier never leases more than one window.
    #: Kept in ``summary()`` / ``COORDINATION_KEYS`` only because
    #: ``bench/run.py`` reads ``stats["windows_coalesced"]``; retire it with
    #: the next change to the benchmark.
    windows_coalesced: int = 0

    def node(self, address: Address) -> NodeStats:
        stats = self.nodes.get(address)
        if stats is None:
            stats = NodeStats(address=address)
            self.nodes[address] = stats
        return stats

    def merge(self, other: "NetworkStats") -> None:
        """Fold *other* into this record; *other* is left untouched.

        Per-node entries merge by address into records owned by this object
        (never adopted by reference — a later merge must not mutate the
        source run's statistics); run-level counters add;
        ``completion_time`` — the latest instant any node was busy — takes
        the maximum.  This is how the sharded backend reassembles its
        per-shard kernels' statistics into one run record, and how sweep
        aggregation folds repeated runs of one configuration together.
        """
        for address, node_stats in other.nodes.items():
            mine = self.nodes.get(address)
            if mine is None:
                mine = self.nodes[address] = NodeStats(address=address)
            mine.merge(node_stats)
        self.completion_time = max(self.completion_time, other.completion_time)
        self.total_messages += other.total_messages
        self.total_events += other.total_events
        self.messages_dropped += other.messages_dropped
        self.messages_lost += other.messages_lost
        self.coordination_rounds += other.coordination_rounds
        self.coordination_bytes += other.coordination_bytes
        self.windows_executed += other.windows_executed
        self.windows_coalesced += other.windows_coalesced

    @classmethod
    def merged(cls, parts: "Iterable[NetworkStats]") -> "NetworkStats":
        """One record folding every statistics object in *parts* together."""
        combined = cls()
        for part in parts:
            combined.merge(part)
        return combined

    # -- headline metrics -------------------------------------------------------

    def total_bytes(self) -> int:
        """Total combined bandwidth usage across all nodes, in bytes."""
        return sum(stats.bytes_sent for stats in self.nodes.values())

    def total_bandwidth_mb(self) -> float:
        """Figure 4's metric: total bandwidth in megabytes."""
        return self.total_bytes() / 1_000_000.0

    def total_cpu_seconds(self) -> float:
        return sum(stats.cpu_seconds for stats in self.nodes.values())

    def total_facts_derived(self) -> int:
        return sum(stats.facts_derived for stats in self.nodes.values())

    def total_facts_retracted(self) -> int:
        return sum(stats.facts_retracted for stats in self.nodes.values())

    def security_overhead_bytes(self) -> int:
        return sum(stats.security_bytes_sent for stats in self.nodes.values())

    # -- dynamics metrics -------------------------------------------------------

    def total_rederivations(self) -> int:
        """Tuples revived by the rederivation phase, all nodes."""
        return sum(stats.rederivations for stats in self.nodes.values())

    def total_anti_delta_messages(self) -> int:
        return sum(stats.anti_delta_messages for stats in self.nodes.values())

    def total_anti_delta_bytes(self) -> int:
        """Bytes shipped as DRed anti-deltas (included in total_bytes)."""
        return sum(stats.anti_delta_bytes for stats in self.nodes.values())

    def total_refresh_messages(self) -> int:
        return sum(stats.refresh_messages for stats in self.nodes.values())

    def total_refresh_bytes(self) -> int:
        """First-hop bytes originated by refresh waves (included in total_bytes)."""
        return sum(stats.refresh_bytes for stats in self.nodes.values())

    def total_timer_events(self) -> int:
        return sum(stats.timer_events for stats in self.nodes.values())

    # -- storage-tier metrics ---------------------------------------------------

    def total_provenance_resident_bytes(self) -> int:
        """Bytes of offline-archive provenance resident in memory, all nodes."""
        return sum(
            stats.provenance_bytes_resident for stats in self.nodes.values()
        )

    def total_provenance_spilled_bytes(self) -> int:
        """Cumulative bytes written to the spill logs, all nodes."""
        return sum(
            stats.provenance_bytes_spilled for stats in self.nodes.values()
        )

    def total_spill_reads(self) -> int:
        """Archived entries read back from the spill logs, all nodes."""
        return sum(stats.spill_reads for stats in self.nodes.values())

    def provenance_overhead_bytes(self) -> int:
        return sum(stats.provenance_bytes_sent for stats in self.nodes.values())

    # -- query metrics ----------------------------------------------------------

    def total_query_messages(self) -> int:
        """Wire messages shipped by the provenance query plane."""
        return sum(stats.query_messages_sent for stats in self.nodes.values())

    def total_query_bytes(self) -> int:
        """Bytes shipped by the provenance query plane (included in total_bytes)."""
        return sum(stats.query_bytes_sent for stats in self.nodes.values())

    def total_queries_issued(self) -> int:
        return sum(stats.queries_issued for stats in self.nodes.values())

    # -- query service-plane metrics --------------------------------------------

    def total_queries_rejected(self) -> int:
        return sum(stats.queries_rejected for stats in self.nodes.values())

    def total_queries_shed(self) -> int:
        return sum(stats.queries_shed for stats in self.nodes.values())

    def total_queries_completed(self) -> int:
        return sum(stats.queries_completed for stats in self.nodes.values())

    def total_cache_hits(self) -> int:
        return sum(stats.cache_hits for stats in self.nodes.values())

    def total_cache_misses(self) -> int:
        return sum(stats.cache_misses for stats in self.nodes.values())

    def total_cache_invalidations(self) -> int:
        return sum(stats.cache_invalidations for stats in self.nodes.values())

    def cache_hit_ratio(self) -> float:
        """Fraction of closure lookups the result cache answered (0.0 when idle)."""
        hits = self.total_cache_hits()
        lookups = hits + self.total_cache_misses()
        return hits / lookups if lookups else 0.0

    def query_latency_histogram(self) -> Dict[int, int]:
        """Aggregated service-query latency buckets (bucket -> completions)."""
        histogram: Dict[int, int] = {}
        for stats in self.nodes.values():
            for bucket, count in stats.query_latency_buckets.items():
                histogram[bucket] = histogram.get(bucket, 0) + count
        return dict(sorted(histogram.items()))

    def cache_staleness_histogram(self) -> Dict[int, int]:
        """Aggregated served-entry age buckets (bucket -> cache hits)."""
        histogram: Dict[int, int] = {}
        for stats in self.nodes.values():
            for bucket, count in stats.cache_staleness_buckets.items():
                histogram[bucket] = histogram.get(bucket, 0) + count
        return dict(sorted(histogram.items()))

    def query_latency_ms(self, fraction: float) -> float:
        """The *fraction*-quantile completed-query latency in milliseconds."""
        return bucket_percentile(self.query_latency_histogram(), fraction)

    def maintenance_bytes(self) -> int:
        """Bytes of data-plane traffic: everything that is not query traffic.

        This is the split the paper's Section 6 motivates: provenance
        *maintenance* pays its cost up front on every shipped tuple, while
        distributed pointers defer the cost to *query* time — both sides are
        now measured in the same byte currency.
        """
        return self.total_bytes() - self.total_query_bytes()

    # -- batching metrics -------------------------------------------------------

    def total_batches(self) -> int:
        return sum(stats.batches_sent for stats in self.nodes.values())

    def total_tuples_sent(self) -> int:
        return sum(stats.tuples_sent for stats in self.nodes.values())

    def tuples_per_batch_histogram(self) -> Dict[int, int]:
        """Aggregated tuples-per-batch histogram (batch size -> batch count)."""
        histogram: Dict[int, int] = {}
        for stats in self.nodes.values():
            for size, count in stats.batch_sizes.items():
                histogram[size] = histogram.get(size, 0) + count
        return dict(sorted(histogram.items()))

    def mean_tuples_per_batch(self) -> float:
        batches = self.total_batches()
        if batches == 0:
            return 0.0
        batched_tuples = sum(
            size * count for size, count in self.tuples_per_batch_histogram().items()
        )
        return batched_tuples / batches

    def summary(self) -> Dict[str, float]:
        """A flat summary dictionary, convenient for tables and benchmarks."""
        return {
            "completion_time_s": self.completion_time,
            "bandwidth_mb": self.total_bandwidth_mb(),
            "total_messages": float(self.total_messages),
            "total_bytes": float(self.total_bytes()),
            "security_bytes": float(self.security_overhead_bytes()),
            "provenance_bytes": float(self.provenance_overhead_bytes()),
            "batches_sent": float(self.total_batches()),
            "tuples_sent": float(self.total_tuples_sent()),
            "mean_tuples_per_batch": self.mean_tuples_per_batch(),
            "query_messages": float(self.total_query_messages()),
            "query_bytes": float(self.total_query_bytes()),
            "queries_issued": float(self.total_queries_issued()),
            "queries_rejected": float(self.total_queries_rejected()),
            "queries_shed": float(self.total_queries_shed()),
            "queries_completed": float(self.total_queries_completed()),
            "cache_hits": float(self.total_cache_hits()),
            "cache_misses": float(self.total_cache_misses()),
            "cache_invalidations": float(self.total_cache_invalidations()),
            # Derived from the integer latency histogram — a pure function
            # of byte-identical inputs, so still exactly equal across
            # backends.
            "query_p50_ms": self.query_latency_ms(0.50),
            "query_p95_ms": self.query_latency_ms(0.95),
            "query_p99_ms": self.query_latency_ms(0.99),
            "messages_dropped": float(self.messages_dropped),
            "messages_lost": float(self.messages_lost),
            "facts_derived": float(self.total_facts_derived()),
            "facts_retracted": float(self.total_facts_retracted()),
            "rederivations": float(self.total_rederivations()),
            "anti_delta_messages": float(self.total_anti_delta_messages()),
            "anti_delta_bytes": float(self.total_anti_delta_bytes()),
            "refresh_messages": float(self.total_refresh_messages()),
            "refresh_bytes": float(self.total_refresh_bytes()),
            "timer_events": float(self.total_timer_events()),
            "provenance_bytes_resident": float(
                self.total_provenance_resident_bytes()
            ),
            "provenance_bytes_spilled": float(
                self.total_provenance_spilled_bytes()
            ),
            "spill_reads": float(self.total_spill_reads()),
            "cpu_seconds": self.total_cpu_seconds(),
            "coordination_rounds": float(self.coordination_rounds),
            "coordination_bytes": float(self.coordination_bytes),
            "windows_executed": float(self.windows_executed),
            "windows_coalesced": float(self.windows_coalesced),
        }


#: The backend-mechanical summary keys: they describe how a run was
#: *coordinated*, not what the simulated network did, so serial-vs-sharded
#: equivalence checks exclude exactly this set.
COORDINATION_KEYS = frozenset(
    {
        "coordination_rounds",
        "coordination_bytes",
        "windows_executed",
        "windows_coalesced",
    }
)
