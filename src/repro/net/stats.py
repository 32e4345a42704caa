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

Every counter is declared once, as a field of :class:`NodeStats` (per node)
or :class:`NetworkStats` (per run).  How two records of it merge follows
from the declaration (see :func:`merge_rule`); :meth:`NetworkStats.total`
reads any of them for the whole run, and :data:`SUMMARY` names the ones
:meth:`NetworkStats.summary` reports.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, Field, dataclass, field, fields
from functools import reduce
from operator import add
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

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


# -- merge rules ----------------------------------------------------------------


def _fold(mine: Dict[int, int], theirs: Dict[int, int]) -> Dict[int, int]:
    """Histogram merge: bucket by bucket, into a new dict in bucket order."""
    folded = dict(mine)
    for bucket, count in theirs.items():
        folded[bucket] = folded.get(bucket, 0) + count
    return dict(sorted(folded.items()))


def merge_rule(spec: Field) -> Optional[Callable]:
    """How two records' values of the field *spec* combine.

    The rule its metadata declares (``max`` for an instant; ``None`` for an
    identity such as ``NodeStats.address``), else one that follows from its
    default: a number adds, a ``dict`` histogram folds bucket by bucket.
    """
    if "merge" in spec.metadata:
        return spec.metadata["merge"]
    return _fold if spec.default_factory is dict else add


def _merge_fields(mine, theirs) -> None:
    """Fold every field of *theirs* into *mine* by its declared rule."""
    for spec in fields(mine):
        rule = merge_rule(spec)
        if rule is not None:
            name = spec.name
            setattr(mine, name, rule(getattr(mine, name), getattr(theirs, name)))


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

    address: Address = field(metadata={"merge": None})
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
    #: Security ledger (signed ``says``): signatures this node made, one per
    #: signed wire message and one per anti-delta; signatures it checked,
    #: one per signed message or anti-delta received; received tuples and
    #: anti-deltas whose envelope verified *and* was fresh (a genuine
    #: envelope refused as stale is a failure, not a verification); those
    #: it refused — bad signature, sealed for another node, stale sequence,
    #: missing attribution — each tuple of a message whose root failed
    #: counting once; and received tuples or anti-deltas it rejected for any
    #: reason, a failed envelope or a tuple shaped unlike its relation.
    signatures_created: int = 0
    signatures_verified: int = 0
    facts_verified: int = 0
    verification_failures: int = 0
    facts_rejected: int = 0
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
    #: entries read back from it (an in-memory log's bytes are resident
    #: too).  Each node's archive lives on exactly one kernel, so the gauges
    #: are nonzero in at most one merged source and adding them is exact.
    provenance_bytes_resident: int = 0
    provenance_bytes_spilled: int = 0
    spill_reads: int = 0
    cpu_seconds: float = 0.0
    #: An instant, not a quantity: merged records keep the latest.
    busy_until: float = field(default=0.0, metadata={"merge": max})
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
        when aggregating repeated runs of one sweep point.  Every field
        merges by its declared rule (:func:`merge_rule`).
        """
        if other.address != self.address:
            raise ValueError(
                f"cannot merge stats of node {other.address!r} into node "
                f"{self.address!r}"
            )
        _merge_fields(self, other)


def _merge_nodes(
    mine: Dict[Address, NodeStats], theirs: Dict[Address, NodeStats]
) -> Dict[Address, NodeStats]:
    """Per-node entries merge by address into records *mine* owns — never
    adopted by reference, so a later merge cannot mutate the source run's
    statistics."""
    for address, node_stats in theirs.items():
        record = mine.get(address)
        if record is None:
            record = mine[address] = NodeStats(address=address)
        record.merge(node_stats)
    return mine


@dataclass
class NetworkStats:
    """Aggregated statistics for one simulation run."""

    nodes: Dict[Address, NodeStats] = field(
        default_factory=dict, metadata={"merge": _merge_nodes}
    )
    #: The latest instant any node was busy: merged runs keep the latest.
    completion_time: float = field(default=0.0, metadata={"merge": max})
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
    coordination_rounds: int = field(default=0, metadata={"coordination": True})
    coordination_bytes: int = field(default=0, metadata={"coordination": True})
    windows_executed: int = field(default=0, metadata={"coordination": True})
    #: Always 0: the lockstep barrier never leases more than one window.
    #: Kept in ``summary()`` / ``COORDINATION_KEYS`` only because
    #: ``bench/run.py`` reads ``stats["windows_coalesced"]``; retire it with
    #: the next change to the benchmark.
    windows_coalesced: int = field(default=0, metadata={"coordination": True})

    def node(self, address: Address) -> NodeStats:
        stats = self.nodes.get(address)
        if stats is None:
            stats = NodeStats(address=address)
            self.nodes[address] = stats
        return stats

    def merge(self, other: "NetworkStats") -> None:
        """Fold *other* into this record; *other* is left untouched.

        Every field merges by its declared rule (:func:`merge_rule`): per-node
        entries by address, run-level counters add, ``completion_time`` takes
        the maximum.  This is how the sharded backend reassembles its
        per-shard kernels' statistics into one run record, and how sweep
        aggregation folds repeated runs of one configuration together.
        """
        _merge_fields(self, other)

    @classmethod
    def merged(cls, parts: Iterable[NetworkStats]) -> NetworkStats:
        """One record folding every statistics object in *parts* together."""
        combined = cls()
        for part in parts:
            combined.merge(part)
        return combined

    def total(self, name: str):
        """The whole run's value of the counter *name*.

        A :class:`NetworkStats` field as recorded; a :class:`NodeStats` field
        folded over every node by its merge rule — counters summed (Fig. 4's
        bandwidth is ``total("bytes_sent")``), histograms bucket by bucket in
        bucket order, an instant its latest.
        """
        if name in NetworkStats.__dataclass_fields__:
            return getattr(self, name)
        spec = NodeStats.__dataclass_fields__[name]
        values = [getattr(stats, name) for stats in self.nodes.values()]
        rule = merge_rule(spec)
        if rule is add:
            # sum(), not a fold of +: since Python 3.12 its float sum is
            # compensated, and cpu_seconds totals must read as they always did.
            return sum(values)
        start = spec.default_factory() if spec.default is MISSING else spec.default
        return reduce(rule, values, start)

    def summary(self) -> Dict[str, float]:
        """A flat summary dictionary, convenient for tables and benchmarks:
        one float per :data:`SUMMARY` entry, in its order."""
        return {
            key: float(self.total(source) if isinstance(source, str) else source(self))
            for key, source in SUMMARY
        }


def _mean_tuples_per_batch(stats: NetworkStats) -> float:
    batches = stats.total("batches_sent")
    if batches == 0:
        return 0.0
    histogram = stats.total("batch_sizes")
    return sum(size * count for size, count in histogram.items()) / batches


def _latency_ms(fraction: float) -> Callable[[NetworkStats], float]:
    """The *fraction*-quantile completed-query latency, from the integer
    histogram — a pure function of byte-identical inputs, so still exactly
    equal across backends."""
    return lambda stats: bucket_percentile(
        stats.total("query_latency_buckets"), fraction
    )


#: What :meth:`NetworkStats.summary` reports, one entry per key, in order: a
#: string names the counter (:meth:`NetworkStats.total`), a function derives
#: the value from the run's statistics.
SUMMARY: Tuple[Tuple[str, Union[str, Callable[[NetworkStats], float]]], ...] = (
    ("completion_time_s", "completion_time"),
    ("bandwidth_mb", lambda stats: stats.total("bytes_sent") / 1_000_000.0),
    ("total_messages", "total_messages"),
    ("total_bytes", "bytes_sent"),
    ("security_bytes", "security_bytes_sent"),
    ("provenance_bytes", "provenance_bytes_sent"),
    ("batches_sent", "batches_sent"),
    ("tuples_sent", "tuples_sent"),
    ("mean_tuples_per_batch", _mean_tuples_per_batch),
    ("query_messages", "query_messages_sent"),
    ("query_bytes", "query_bytes_sent"),
    ("queries_issued", "queries_issued"),
    ("queries_rejected", "queries_rejected"),
    ("queries_shed", "queries_shed"),
    ("queries_completed", "queries_completed"),
    ("cache_hits", "cache_hits"),
    ("cache_misses", "cache_misses"),
    ("cache_invalidations", "cache_invalidations"),
    ("query_p50_ms", _latency_ms(0.50)),
    ("query_p95_ms", _latency_ms(0.95)),
    ("query_p99_ms", _latency_ms(0.99)),
    ("messages_dropped", "messages_dropped"),
    ("messages_lost", "messages_lost"),
    ("facts_derived", "facts_derived"),
    ("facts_retracted", "facts_retracted"),
    ("signatures_created", "signatures_created"),
    ("signatures_verified", "signatures_verified"),
    ("facts_verified", "facts_verified"),
    ("verification_failures", "verification_failures"),
    ("facts_rejected", "facts_rejected"),
    ("rederivations", "rederivations"),
    ("anti_delta_messages", "anti_delta_messages"),
    ("anti_delta_bytes", "anti_delta_bytes"),
    ("refresh_messages", "refresh_messages"),
    ("refresh_bytes", "refresh_bytes"),
    ("timer_events", "timer_events"),
    ("provenance_bytes_resident", "provenance_bytes_resident"),
    ("provenance_bytes_spilled", "provenance_bytes_spilled"),
    ("spill_reads", "spill_reads"),
    ("cpu_seconds", "cpu_seconds"),
    ("coordination_rounds", "coordination_rounds"),
    ("coordination_bytes", "coordination_bytes"),
    ("windows_executed", "windows_executed"),
    ("windows_coalesced", "windows_coalesced"),
)


#: The backend-mechanical summary keys: they describe how a run was
#: *coordinated*, not what the simulated network did, so serial-vs-sharded
#: equivalence checks exclude exactly this set.
COORDINATION_KEYS = frozenset(
    spec.name for spec in fields(NetworkStats) if spec.metadata.get("coordination")
)
