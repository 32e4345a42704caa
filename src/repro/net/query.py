"""In-network provenance queries: traceback as real network traffic.

The paper's core claim is that provenance is *network state*: maintained
declaratively, and — crucially — **queried over the network**.  The legacy
:func:`repro.provenance.distributed.traceback` answers a traceback by
resolving per-node stores through a Python callable, costing zero simulated
messages; it remains the *zero-cost oracle*.  This module is the paid path:
a :class:`ProvenanceQuery` compiles into :class:`QueryRequest` /
:class:`QueryResponse` wire messages dispatched through the simulator's
:class:`~repro.net.events.EventScheduler`, so pointer chasing across the
nodes' :class:`~repro.provenance.log.DerivationLog`\\ s pays
serialized bytes, link-serialized transmission and propagation latency, and
per-node CPU — and is attributed to a distinct ``query_bytes`` /
``query_messages`` category in :class:`~repro.net.stats.NetworkStats`.

Resolution is querier-driven (iterative, DNS style): the asking node expands
its own store for free, then issues one request per remote pointer
dereference.  The responding node returns the *local closure* of the
requested key — every expansion reachable without leaving the node — and the
querier keeps dereferencing the remote pointer inputs those entries name.
On a static topology the reconstructed derivation graph is structurally
identical to the oracle's (asserted in tests via
:meth:`~repro.provenance.graph.DerivationGraph.same_structure`).

Failure semantics make the queries *partial* instead of hanging: every
request schedules a :class:`~repro.net.events.QueryTimeout`; when the
request or its response is lost — downed link, crashed destination — the
timeout fires, the key is reported in ``missing`` and the query completes
with ``complete=False``.  Queries can run ``mode="offline"`` against the
persistent provenance archives, which survive node crashes; the node must
still be up to answer.

The querier keeps no graph while a query runs: it logs the closure entries
it merges and walks only their remote frontier; the graph is replayed from
that log when someone reads it (:attr:`PendingQuery.graph`), so a service
plane that only times its queries never builds one.

Caches and what invalidates them (all instance state, none module-level;
no memo travels in pickles or codec frames):

==================  ==========================  ================================
cache               lives on                    invalidated by
==================  ==========================  ================================
size memo           request, response, entry    never: the owner is immutable
remote frontier     each closure entry          never: the owner is immutable
replay memo         each closure entry          never; filled on graph read
route table         each ``SimulationKernel``   LinkDown/Up, NodeCrash/Recover
closure memo        per-node ``ClosureCache``   the node's ``provenance_epoch``
expiry watermark    each ``Table``              soft store / refresh / any scan
==================  ==========================  ================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.engine.tuples import FactKey
from repro.net.address import Address
from repro.net.events import QueryTimeout
from repro.net.message import (
    QueryClosureEntry,
    QueryRequest,
    QueryResponse,
)
from repro.net.stats import latency_bucket
from repro.provenance.graph import DerivationGraph, DerivationNode
from repro.security.rsa import sign, verify

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.kernel import SimulationKernel

#: Default seconds a query waits for one outstanding request before
#: declaring its key missing.  Generous against normal RTTs (link latencies
#: are milliseconds) so only genuine losses — downed links, crashed nodes —
#: time out.
DEFAULT_QUERY_TIMEOUT = 30.0

QUERY_MODES = ("online", "offline")


@dataclass(frozen=True)
class ProvenanceQuery:
    """One traceback question asked *inside* the network.

    ``root`` is the tuple key under investigation, ``at`` the node asking.
    ``mode`` selects the store walked: ``"online"`` uses the live
    derivation logs, ``"offline"`` the persistent provenance
    archives (forensics over state the live network may have forgotten).
    ``condensed`` additionally fetches condensed annotations (paying their
    serialized bytes per response); ``authenticated`` makes every responder
    sign its response and the querier verify it (Section 4.3 applied to the
    query plane).
    """

    root: FactKey
    at: Address
    mode: str = "online"
    condensed: bool = False
    authenticated: bool = False
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in QUERY_MODES:
            raise ValueError(
                f"unknown query mode {self.mode!r}; expected one of {QUERY_MODES}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("query timeout must be positive")


@dataclass
class QueryResult:
    """The answer to one in-network provenance query, with its price tag."""

    query: ProvenanceQuery
    graph: DerivationGraph
    missing: Tuple[FactKey, ...]
    nodes_visited: Tuple[Address, ...]
    #: Remote pointer dereferences attempted (one request each).  The legacy
    #: oracle bills every remote pointer edge; here a response carries the
    #: responding node's whole local closure, so edges into an
    #: already-expanded (key, node) pair are amortized away — this count is
    #: at most the oracle's ``remote_lookups``.
    remote_lookups: int
    messages: int
    bytes: int
    issued_at: float
    completed_at: float
    timeouts: int = 0
    responses_verified: int = 0
    verification_failures: int = 0
    #: Condensed annotation of the root — the querier's own recorded
    #: annotation when it holds one, otherwise the annotation a responder
    #: shipped for the root.  ``None`` when nobody vouches for the key.
    condensed: Optional[object] = None
    #: Per-key condensed annotations fetched over the wire
    #: (``condensed=True`` queries); these are the annotations whose
    #: serialized bytes the responses were billed for.
    annotations: Dict[FactKey, object] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def root(self) -> FactKey:
        return self.query.root

    @property
    def latency(self) -> float:
        """Simulated seconds from issue to the last response (or timeout)."""
        return self.completed_at - self.issued_at

    def as_dict(self) -> Dict[str, object]:
        return {
            "root": self.query.root,
            "at": self.query.at,
            "mode": self.query.mode,
            "complete": self.complete,
            "missing": self.missing,
            "nodes_visited": self.nodes_visited,
            "remote_lookups": self.remote_lookups,
            "messages": self.messages,
            "bytes": self.bytes,
            "latency": self.latency,
            "timeouts": self.timeouts,
        }


@dataclass
class PendingQuery:
    """Querier-side state of one in-flight :class:`ProvenanceQuery`.

    The querier records what arrived rather than a graph: ``merged`` logs,
    in merge order, every closure entry that passed the ``seen`` filter and
    every ``(key, node)`` pair reported missing.  :attr:`graph` replays
    that log into a fresh :class:`DerivationGraph` on each read, in the
    order an eagerly grown graph would have received its nodes — first
    writer wins for tuple nodes, operators in arrival order.
    """

    query_id: int
    query: ProvenanceQuery
    issued_at: float
    #: The merge log.  An item is a whole :class:`QueryClosureEntry`, a
    #: missing ``(key, node)`` pair, or an ``(entry, start, stop)`` slice of
    #: one entry's operators (its tuple node with the ``start == 0`` slice):
    #: an entry is split where a pointer leading home expanded the asker's
    #: own store in the middle of it, so its later operators replay after
    #: the entries that expansion merged.
    merged: List[object] = field(default_factory=list)
    #: (key, node) expansions already merged into the log.
    seen: Set[Tuple[FactKey, Address]] = field(default_factory=set)
    #: (key, node) dereferences already requested — kept separate from
    #: ``seen`` so the response's own root entry still merges, while
    #: duplicate pointers to the same pair never re-request it.
    requested: Set[Tuple[FactKey, Address]] = field(default_factory=set)
    missing: List[FactKey] = field(default_factory=list)
    nodes_visited: List[Address] = field(default_factory=list)
    #: request_id -> (key, node, its scheduled QueryTimeout).
    outstanding: Dict[int, Tuple[FactKey, Address, QueryTimeout]] = field(
        default_factory=dict
    )
    remote_lookups: int = 0
    messages: int = 0
    bytes: int = 0
    timeouts: int = 0
    responses_verified: int = 0
    verification_failures: int = 0
    condensed: Optional[object] = None
    annotations: Dict[FactKey, object] = field(default_factory=dict)
    completed_at: float = 0.0
    done: bool = False
    #: The service-plane :class:`~repro.net.events.QueryArrival` this query
    #: answers, when the query was issued by the workload handler rather
    #: than directly through the API.  ``_finish`` reports completion back
    #: to the kernel so SLO latency is recorded and closed-loop clients
    #: schedule their next arrival.
    service: Optional[object] = None

    @property
    def graph(self) -> DerivationGraph:
        """The derivation graph merged so far, built from the merge log.

        Every read builds a new graph, so a graph taken mid-query stays the
        partial answer it was; the frozen nodes inside are shared.
        """
        graph = DerivationGraph()
        for item in self.merged:
            if type(item) is QueryClosureEntry:
                tuple_node, operators = item.replay()
                graph.add_tuple(tuple_node)
            elif len(item) == 2:
                key, node = item
                graph.add_tuple(DerivationNode(key=key, location=node))
                continue
            else:
                entry, start, stop = item
                tuple_node, operators = entry.replay()
                if start == 0:
                    graph.add_tuple(tuple_node)
                operators = operators[start:stop]
            for operator in operators:
                graph.add_operator(operator)
        return graph

    def result(self) -> QueryResult:
        """Snapshot the query's answer (partial until ``done``): counters,
        ``missing`` and the graph as of this call."""
        return QueryResult(
            query=self.query,
            graph=self.graph,
            missing=tuple(self.missing),
            nodes_visited=tuple(self.nodes_visited),
            remote_lookups=self.remote_lookups,
            messages=self.messages,
            bytes=self.bytes,
            issued_at=self.issued_at,
            completed_at=self.completed_at,
            timeouts=self.timeouts,
            responses_verified=self.responses_verified,
            verification_failures=self.verification_failures,
            condensed=self.condensed,
            annotations=dict(self.annotations),
        )


def _local_closure(store, node: Address, root: FactKey):
    """Expand *root* at *node* as far as *store*'s local pointers reach.

    *store* is the node's live log or its offline archive: anything that
    answers ``is_base(key)`` and ``pointers(key)``.

    Mirrors the oracle's visit order (preorder, derivation recorded before
    its inputs are expanded) so the querier can replay the entries into a
    structurally identical graph.  Returns ``(entries, missing)``: the
    (key, node) expansions resolvable here, and the keys this node cannot
    vouch for.  Pointer inputs held on *other* nodes are left inside the
    entries for the querier to dereference.
    """
    entries: List[QueryClosureEntry] = []
    missing: List[FactKey] = []
    seen: Set[FactKey] = set()
    stack: List[FactKey] = [root]
    # Explicit stack with reversed pushes keeps preorder without recursion
    # depth limits on long derivation chains.
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        if store.is_base(key):
            entries.append(QueryClosureEntry(key=key, node=node, is_base=True))
            continue
        pointers = store.pointers(key)
        if not pointers:
            missing.append(key)
            continue
        entries.append(
            QueryClosureEntry(key=key, node=node, is_base=False, pointers=pointers)
        )
        local_inputs: List[FactKey] = []
        for pointer in pointers:
            for input_key, origin in pointer.inputs:
                if (origin or node) == node:
                    local_inputs.append(input_key)
        for input_key in reversed(local_inputs):
            stack.append(input_key)
    return tuple(entries), tuple(missing)


class QueryEngine:
    """Executes provenance queries as events on the simulator's scheduler."""

    def __init__(self, simulator: "SimulationKernel") -> None:
        self.simulator = simulator
        self._queries: Dict[int, PendingQuery] = {}
        self._next_query_id = 0
        self._next_request_id = 0
        #: Sharded backend hook: resolve a pending query living on another
        #: kernel, addressed by the asking node (a response's destination)
        #: and the query id that kernel assigned.  The responder's kernel
        #: uses it to bill the response to the asker at *send* time —
        #: exactly the serial backend's accounting, lost responses included.
        self.resolve_remote = None

    # -- issuing ---------------------------------------------------------------

    def issue(
        self, query: ProvenanceQuery, now: float = 0.0, service=None
    ) -> PendingQuery:
        """Start *query* at simulated instant *now*.

        The querying node expands its own store for free (paying only CPU),
        then one :class:`QueryRequest` ships per remote pointer dereference.
        Drain the scheduler (``run_until_idle``) to let responses, follow-up
        requests and timeouts play out, then read ``pending.result()``.

        *service* is the originating :class:`~repro.net.events.QueryArrival`
        when the query comes from the service plane's workload handler; its
        completion is then reported back through
        ``simulator.service_query_finished``.
        """
        simulator = self.simulator
        engine = simulator.engines.get(query.at)
        if engine is None:
            raise ValueError(f"cannot issue a query at unknown node {query.at!r}")
        if not simulator.node_is_up(query.at):
            raise RuntimeError(f"cannot issue a query at crashed node {query.at!r}")
        if not simulator.config.provenance_mode.maintains_provenance:
            # Without a maintaining mode nothing records pointers — not even
            # into the offline archives — so both query modes would only
            # ever report the root missing.  Fail loudly instead.
            raise ValueError(
                "provenance queries need a provenance-maintaining "
                "configuration (provenance_mode is NONE: the engines record "
                "no pointers to chase, online or archived)"
            )
        if query.mode == "offline" and not simulator.config.keep_offline_provenance:
            raise ValueError(
                "offline queries need keep_offline_provenance=True so nodes "
                "archive their derivations"
            )
        if query.authenticated:
            # Responders sign their answers; configurations that never signed
            # data traffic get keys on demand (deterministically seeded).
            for address in simulator.topology.nodes:
                if not simulator.keystore.has_private_key(address):
                    simulator.keystore.create_keypair(address)

        self._next_query_id += 1
        pending = PendingQuery(
            query_id=self._next_query_id, query=query, issued_at=now
        )
        # Attached before _expand_local: a query resolved entirely from the
        # asker's own store finishes synchronously inside this call, and the
        # service plane must still hear about it.
        pending.service = service
        self._queries[pending.query_id] = pending
        if query.mode == "offline":
            # Retention aging must not pull the evidence out from under an
            # in-flight forensic query: the root stays pinned in the asker's
            # archive until the query completes (_finish releases it).
            engine.offline_provenance.pin_key(query.root)
        simulator.stats.node(query.at).queries_issued += 1
        if query.condensed:
            pending.condensed = self._annotation_for(engine, query.root, query.mode)
        self._expand_local(pending, query.root, now)
        if not pending.outstanding:
            self._finish(pending, simulator.stats.node(query.at).busy_until)
        return pending

    # -- delivery dispatch ------------------------------------------------------

    def deliver(self, message, deliver_at: float) -> None:
        """Entry point for query-plane messages arriving at a live node."""
        if isinstance(message, QueryRequest):
            self._handle_request(message, deliver_at)
        else:
            self._handle_response(message, deliver_at)

    def handle_timeout(self, event: QueryTimeout, at: float) -> None:
        """An outstanding request was never answered: its key goes missing."""
        pending = self._queries.get(event.query_id)
        if pending is None or pending.done:
            return
        entry = pending.outstanding.pop(event.request_id, None)
        if entry is None:
            return  # the response arrived first; the timeout is a no-op
        key, _node, _timeout = entry
        pending.timeouts += 1
        if key not in pending.missing:
            pending.missing.append(key)
        if not pending.outstanding:
            self._finish(pending, at)

    # -- responder side ----------------------------------------------------------

    def _handle_request(self, request: QueryRequest, at: float) -> None:
        simulator = self.simulator
        engine = simulator.engines.get(request.destination)
        if engine is None:
            return
        entries, missing, annotation, lookups = self._closure(
            engine,
            request.destination,
            request.key,
            request.mode,
            request.condensed,
            at,
        )
        annotation_bytes = (
            annotation.serialized_size() if annotation is not None else 0
        )
        response = QueryResponse(
            source=request.destination,
            destination=request.source,
            query_id=request.query_id,
            request_id=request.request_id,
            key=request.key,
            entries=entries,
            missing=missing,
            annotation=annotation,
            annotation_bytes=annotation_bytes,
            key_bytes=request.payload_bytes(),
        )
        signing_cost = 0.0
        if request.authenticated:
            if not simulator.keystore.has_private_key(request.destination):
                # Configurations that never sign data traffic create keys on
                # demand.  All of them, in topology order: key material draws
                # from one seeded RNG, so every kernel of a sharded run (and
                # the serial backend, which does the same at issue time)
                # derives bit-identical keys.
                simulator.keystore.create_all(simulator.topology.nodes)
            signature = sign(
                response.signed_payload(),
                simulator.keystore.private_key(request.destination),
            )
            # replace() re-runs __post_init__, folding the signature bytes
            # into the wire size and the security attribution.
            response = replace(response, signature=signature)
            signing_cost = simulator.options.cost_model.seconds_per_signature
        cpu = (
            simulator.options.cost_model.query_cpu_seconds(lookups, response.size_bytes())
            + signing_cost
        )
        send_time = self._charge(request.destination, at, cpu)
        self._ship(response.query_id, request.destination, response, send_time)

    # -- querier side -------------------------------------------------------------

    def _handle_response(self, response: QueryResponse, at: float) -> None:
        simulator = self.simulator
        pending = self._queries.get(response.query_id)
        if pending is None or pending.done:
            return
        if response.request_id not in pending.outstanding:
            return  # already timed out; the answer arrived too late
        _key, _node, timeout = pending.outstanding.pop(response.request_id)
        # The answer is here: its timeout must neither fire nor burn an
        # event-budget slot when the scheduler reaches it.
        timeout.cancelled = True
        verification_cost = 0.0
        if pending.query.authenticated:
            verification_cost = simulator.options.cost_model.seconds_per_verification
            ok = response.signature is not None and verify(
                response.signed_payload(),
                response.signature,
                simulator.keystore.public_key(response.source),
            )
            if ok:
                pending.responses_verified += 1
            else:
                # A spoofed or corrupted answer is discarded: the key stays
                # unresolved rather than poisoning the graph.
                pending.verification_failures += 1
                if response.key not in pending.missing:
                    pending.missing.append(response.key)
                self._charge(pending.query.at, at, verification_cost)
                if not pending.outstanding:
                    self._finish(
                        pending,
                        simulator.stats.node(pending.query.at).busy_until,
                    )
                return
        cpu = (
            simulator.options.cost_model.query_cpu_seconds(0, response.size_bytes())
            + verification_cost
        )
        now = self._charge(pending.query.at, at, cpu)
        if response.source not in pending.nodes_visited:
            pending.nodes_visited.append(response.source)
        if response.annotation is not None:
            # The annotation the responder computed, shipped and billed for.
            pending.annotations[response.key] = response.annotation
            if pending.condensed is None and response.key == pending.query.root:
                pending.condensed = response.annotation
        self._merge_closure(
            pending, response.source, response.entries, response.missing, now
        )
        if not pending.outstanding:
            self._finish(
                pending, simulator.stats.node(pending.query.at).busy_until
            )

    def _expand_local(self, pending: PendingQuery, key: FactKey, now: float) -> None:
        """Resolve *key* at the querying node itself: CPU, but no messages."""
        simulator = self.simulator
        at_node = pending.query.at
        engine = simulator.engines[at_node]
        entries, missing, _annotation, lookups = self._closure(
            engine,
            at_node,
            key,
            pending.query.mode,
            pending.query.condensed,
            now,
        )
        cpu = simulator.options.cost_model.query_cpu_seconds(lookups, 0)
        now = self._charge(at_node, now, cpu)
        if at_node not in pending.nodes_visited:
            pending.nodes_visited.append(at_node)
        self._merge_closure(pending, at_node, entries, missing, now)

    def _merge_closure(
        self,
        pending: PendingQuery,
        node: Address,
        entries,
        missing,
        now: float,
    ) -> None:
        """Log closure *entries* for the graph; dereference remote inputs.

        Only each entry's remote frontier is walked; the graph is built
        from the log when someone reads it (:attr:`PendingQuery.graph`).
        A pointer leading home expands the asker's store right here, and
        that expansion logs its own entries: when it happens before the
        entry's last pointer, the entry's log item is cut there, so its
        later operators replay after what the expansion merged.
        """
        seen = pending.seen
        merged = pending.merged
        for entry in entries:
            pair = (entry.key, entry.node)
            if pair in seen:
                continue
            seen.add(pair)
            merged.append(entry)
            frontier = entry.frontier()
            if not frontier:
                continue
            piece = len(merged) - 1  # the log item holding the entry's tail
            start = 0
            last = len(entry.pointers) - 1
            for index, remote in frontier:
                for input_key, origin, key_bytes in remote:
                    self._dereference(pending, input_key, origin, now, key_bytes)
                if len(merged) - 1 != piece and index != last:
                    merged[piece] = (entry, start, index + 1)
                    start = index + 1
                    piece = len(merged)
                    merged.append((entry, start, None))
        for key in missing:
            pair = (key, node)
            if pair in seen:
                continue
            seen.add(pair)
            merged.append(pair)
            if key not in pending.missing:
                pending.missing.append(key)

    def _dereference(
        self,
        pending: PendingQuery,
        key: FactKey,
        node: Address,
        now: float,
        key_bytes: Optional[int] = None,
    ) -> None:
        """Follow one remote pointer edge: locally when it points home,
        otherwise as a paid request (*key_bytes*: the key's rendered size,
        when the caller already knows it)."""
        pair = (key, node)
        if pair in pending.seen or pair in pending.requested:
            return
        if node == pending.query.at:
            # The pointer leads back to the asker: resolved in memory.
            self._expand_local(pending, key, now)
            return
        pending.requested.add(pair)
        pending.remote_lookups += 1
        simulator = self.simulator
        self._next_request_id += 1
        request = QueryRequest(
            source=pending.query.at,
            destination=node,
            key=key,
            query_id=pending.query_id,
            request_id=self._next_request_id,
            mode=pending.query.mode,
            condensed=pending.query.condensed,
            authenticated=pending.query.authenticated,
            key_bytes=key_bytes,
        )
        send_time = self._charge(
            pending.query.at,
            now,
            simulator.options.cost_model.query_cpu_seconds(0, request.size_bytes()),
        )
        self._ship(pending.query_id, pending.query.at, request, send_time)
        timeout_after = pending.query.timeout or simulator.options.query_timeout
        timeout = QueryTimeout(
            time=send_time + timeout_after,
            query_id=pending.query_id,
            request_id=request.request_id,
        )
        pending.outstanding[request.request_id] = (key, node, timeout)
        simulator.scheduler.schedule(timeout)

    def _finish(self, pending: PendingQuery, at_time: float) -> None:
        pending.done = True
        pending.completed_at = max(at_time, pending.issued_at)
        if pending.query.mode == "offline":
            engine = self.simulator.engines.get(pending.query.at)
            if engine is not None:
                engine.offline_provenance.release_key(pending.query.root)
        # The engine's own bookkeeping for the query is over; dropping the
        # entry keeps memory flat over many queries and makes any late
        # response a true no-op instead of mutating a snapshot result.
        self._queries.pop(pending.query_id, None)
        if pending.service is not None:
            # A pending query always finishes on the kernel hosting its
            # asker, so the service plane's latency accounting and
            # closed-loop follow-up land on the right shard.
            self.simulator.service_query_finished(pending)

    # -- shared helpers -----------------------------------------------------------

    def _closure(
        self,
        engine,
        node: Address,
        key: FactKey,
        mode: str,
        condensed: bool,
        now: float,
    ):
        """Resolve the local closure of *key* at *node*, through the node's
        result cache when the service plane armed one.

        Returns ``(entries, missing, annotation, lookups)`` where *lookups*
        is the store-lookup count to bill CPU for: the full walk on a miss,
        a single memo probe on a hit — caching measurably cheapens the
        query path.  The memo key is ``(key, mode, condensed)`` and the
        entry is guarded by the engine's ``provenance_epoch``, which bumps
        on every provenance-store mutation, so a hit is always structurally
        identical to a cold walk at the same instant.
        """
        cache = self.simulator.query_cache_for(node)
        if cache is None:
            entries, missing = _local_closure(self._store(engine, mode), node, key)
            annotation = (
                self._annotation_for(engine, key, mode) if condensed else None
            )
            return entries, missing, annotation, len(entries) + len(missing)
        stats = self.simulator.stats.node(node)
        cache_key = (key, mode, condensed)
        epoch = engine.provenance_epoch
        hit, invalidated = cache.lookup(cache_key, epoch, now)
        if invalidated:
            stats.cache_invalidations += 1
        if hit is not None:
            (entries, missing, annotation), age = hit
            stats.cache_hits += 1
            bucket = latency_bucket(age)
            stats.cache_staleness_buckets[bucket] = (
                stats.cache_staleness_buckets.get(bucket, 0) + 1
            )
            return entries, missing, annotation, 1
        entries, missing = _local_closure(self._store(engine, mode), node, key)
        annotation = (
            self._annotation_for(engine, key, mode) if condensed else None
        )
        stats.cache_misses += 1
        stats.cache_invalidations += cache.store(
            cache_key, (entries, missing, annotation), epoch, now
        )
        return entries, missing, annotation, len(entries) + len(missing)

    @staticmethod
    def _store(engine, mode: str):
        return engine.offline_provenance if mode == "offline" else engine.provenance

    def _annotation_for(self, engine, key, mode: str):
        """The *recorded* condensed annotation of *key* in this query's store.

        Offline queries read the archived annotation — the one that survives
        a crash, matching the store the pointer walk itself uses — while
        online queries read the live log.  ``None`` when nothing was
        recorded: the identity fallback for unknown keys must not masquerade
        as provenance.
        """
        if mode == "offline":
            for entry in engine.offline_provenance.entries(key):
                if entry.annotation is not None:
                    return entry.annotation
            return None
        if engine.provenance.knows(key):
            return engine.provenance.annotation(key)
        return None

    def _charge(self, address: Address, start_floor: float, cpu: float) -> float:
        """Advance *address*'s CPU clock by *cpu* seconds; return its new busy time."""
        stats = self.simulator.stats.node(address)
        start = max(start_floor, stats.busy_until)
        stats.cpu_seconds += cpu
        stats.busy_until = start + cpu
        return stats.busy_until

    def _ship(self, query_id: int, source: Address, message, send_time: float) -> None:
        """Put one query-plane message on the wire, charging the usual costs
        plus the per-query attribution to the asking node.

        Query traffic travels between arbitrary node pairs, so it is routed
        hop-by-hop over the currently-live topology (a partition loses it).
        """
        simulator = self.simulator
        node_stats = simulator.stats.node(source)
        simulator.ship_routed(
            source, message.destination, message, send_time, node_stats
        )
        size = message.size_bytes()
        if isinstance(message, QueryResponse):
            asker = message.destination
            if self.resolve_remote is not None:
                # Query ids are only unique per kernel, and a response's
                # rightful pending query lives at the kernel hosting the
                # *asker* (its destination) — never this one's same-id
                # entry, which may belong to an unrelated concurrent query.
                # The coordinator resolves by asker, which routes back to
                # this kernel when the asker is local, so the response's
                # price lands on the same books the serial backend keeps.
                pending = self.resolve_remote(asker, query_id)
                known = pending is not None
            else:
                # No resolver (serial backend, or a process-mode worker that
                # cannot reach other kernels' state): a same-id local pending
                # only counts when it really belongs to this asker.  For a
                # foreign asker the charge is recorded sight unseen — the
                # serial backend would only skip it when the query had
                # already finished, which takes a >timeout link backlog
                # before the response even ships.
                candidate = self._queries.get(query_id)
                pending = (
                    candidate
                    if candidate is not None and candidate.query.at == asker
                    else None
                )
                known = pending is not None or not simulator.hosts(asker)
        else:
            asker = message.source
            pending = self._queries.get(query_id)
            known = pending is not None
        if pending is not None:
            pending.messages += 1
            pending.bytes += size
        if known:
            if simulator.hosts(asker):
                simulator.stats.node(asker).query_bytes_charged += size
            else:
                # A query message passing through a kernel that does not host
                # the asker must not fabricate a phantom NodeStats entry on
                # this shard's books; the charge is recorded as a receipt the
                # sharded coordinator settles into the asker's merged stats
                # at barrier time.
                receipts = simulator.query_receipts
                receipts[asker] = receipts.get(asker, 0) + size
