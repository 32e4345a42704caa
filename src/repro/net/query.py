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
A response names its request, not its key, and its closure travels as the
responder's walk with no key in it, each derived record's pointers coded
against the record's key: the querier takes the requested key from its
own books, rebuilds every other key by replaying the walk and decodes each
record against the key it rebuilt for it
(:meth:`~repro.net.message.QueryClosure.walk`).  Records that do not fit
the walk, or whose code does not decode, are refused like an answer whose
signature fails.
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
no memo travels in pickles, the coordination frames included):

==================  ==========================  ================================
cache               lives on                    invalidated by
==================  ==========================  ================================
size memo           request, response, closure  never: the owner is immutable
coded closure       each ``LocalClosure``       never: the owner is immutable
local expansion     each ``LocalClosure``       never: the owner is immutable
rebuild memo        each ``QueryClosure``       a walk from another root or node
record codes        each ``PointerCodebook``    other pointer objects; when full
decoded records     each ``PointerCodebook``    never (same code, key, node);
                                                when full
remote frontier     each closure entry          never: the owner is immutable
replay memo         each closure entry          never; filled on graph read
route table         each ``SimulationKernel``   LinkDown/Up, NodeCrash/Recover
route-cost memo     each ``SimulationKernel``   LinkDown/Up, NodeCrash/Recover
root-draw memo      each ``SimulationKernel``   the node's rows comparing unequal
closure memo        per-node ``ClosureCache``   the node's ``provenance_epoch``
expiry watermark    each ``Table``              soft store / refresh / any scan
==================  ==========================  ================================

A node's result cache keeps each :class:`LocalClosure` it walked: the asker
merges its entries in place (the local-expansion memo), and the first
response served from it codes it (the coded-closure memo), so every later
response ships that same :class:`~repro.net.message.QueryClosure`.  The
rebuild memo on it holds the entries and missing keys the querier's last
walk rebuilt, with its root and node; a shipped closure is only ever walked
from the key it was recorded for, at the node that recorded it, so the
querier rebuilds each cached closure once and its entries keep their
frontier and replay memos across responses.  Closures at one node share
records, so the kernel's codebook keeps the code of each record it coded,
checked against the very pointer objects it coded, and the entry of each
``(code, key, node)`` it decoded: a shared record is coded and decoded
once.  Both memos start over past
:attr:`~repro.net.message.PointerCodebook.MEMO_RECORDS` records.  A
closure's size is its flag and code bytes, no rendering.  The remote
frontier holds positions into its entry's own pointers and the remote
inputs' rendered sizes, never a key.  The route-cost memo
holds each pair's first link and summed latency beside its route; the
root-draw memo holds a ``(node, relation)``'s rows sorted for a service
arrival's draw, reused while the node's rows compare equal to the ones it
sorted (a refreshed row compares equal and keeps its place).

The querier resolves its node's statistics record once, at issue
(:attr:`PendingQuery.stats`); a responder's record comes with the request's
delivery.  An answered request's :class:`~repro.net.events.QueryTimeout` is
cancelled through :meth:`~repro.net.events.EventScheduler.cancel`, which
drops it from the event heap once cancelled entries outnumber live ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.engine.tuples import FactKey
from repro.net.address import Address
from repro.net.events import QueryTimeout
from repro.net.message import (
    RECORD_BASE,
    RECORD_DERIVED,
    RECORD_MISSING,
    LocalClosure,
    PointerCodebook,
    QueryClosureEntry,
    QueryRequest,
    QueryResponse,
    walk_closure,
)
from repro.net.stats import NodeStats, latency_bucket
from repro.provenance.graph import DerivationGraph, DerivationNode
from repro.provenance.polynomial import ProvenanceExpression
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
    query plane).  ``timeout`` is the seconds one outstanding request waits
    before its key is reported missing; ``None`` means
    :data:`DEFAULT_QUERY_TIMEOUT`.
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
    condensed: Optional[ProvenanceExpression] = None
    #: Per-key condensed annotations fetched over the wire
    #: (``condensed=True`` queries); these are the annotations whose
    #: serialized bytes the responses were billed for.
    annotations: Dict[FactKey, ProvenanceExpression] = field(default_factory=dict)

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
    #: The asker's statistics record, resolved once at issue: the query's
    #: CPU, its requests and its bill are charged to it.
    stats: NodeStats
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
    condensed: Optional[ProvenanceExpression] = None
    annotations: Dict[FactKey, ProvenanceExpression] = field(default_factory=dict)
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


def _local_closure(store, node: Address, root: FactKey) -> LocalClosure:
    """Expand *root* at *node* as far as *store*'s local pointers reach.

    *store* is the node's live log or its offline archive: anything that
    answers ``is_base(key)`` and ``pointers(key)``.  The walk mirrors the
    oracle's visit order (preorder, derivation recorded before its inputs
    are expanded), so the querier replays a response's records into a
    structurally identical graph.  A key this node cannot vouch for is
    recorded as missing; pointer inputs held on *other* nodes stay inside
    the pointers for the querier to dereference.
    """
    flags = bytearray()
    keys: List[FactKey] = []
    pointer_lists: List[tuple] = []

    def visit(key: FactKey):
        keys.append(key)
        if store.is_base(key):
            flags.append(RECORD_BASE)
            pointers = ()
        else:
            pointers = store.pointers(key)
            flags.append(RECORD_DERIVED if pointers else RECORD_MISSING)
        pointer_lists.append(pointers)
        return pointers

    walk_closure(root, node, visit)
    return LocalClosure(node, bytes(flags), tuple(keys), tuple(pointer_lists))


class QueryEngine:
    """Executes provenance queries as events on the simulator's scheduler."""

    def __init__(self, simulator: "SimulationKernel") -> None:
        self.simulator = simulator
        self._queries: Dict[int, PendingQuery] = {}
        self._next_query_id = 0
        self._next_request_id = 0
        #: What this kernel's closures code their pointers against; every
        #: kernel of a run builds the same one from the same program.
        self.codebook = PointerCodebook.of(simulator.compiled)
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
            query_id=self._next_query_id,
            query=query,
            issued_at=now,
            stats=simulator.stats.node(query.at),
        )
        # Attached before _expand_local: a query resolved entirely from the
        # asker's own store finishes synchronously inside this call, and the
        # service plane must still hear about it.
        pending.service = service
        self._queries[pending.query_id] = pending
        pending.stats.queries_issued += 1
        if query.condensed:
            pending.condensed = self._annotation_for(engine, query.root, query.mode)
        self._expand_local(pending, query.root, now)
        if not pending.outstanding:
            self._finish(pending, pending.stats.busy_until)
        return pending

    # -- delivery ----------------------------------------------------------------
    #
    # The kernel hands each query-plane message that reaches a live node to
    # handle_request or handle_response, by its type.

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

    def handle_request(
        self, request: QueryRequest, at: float, responder: NodeStats
    ) -> None:
        """Answer *request* at its destination, whose record is *responder*."""
        simulator = self.simulator
        local, annotation, lookups = self._closure(
            simulator.engines[request.destination],
            responder,
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
            closure=local.coded(self.codebook),
            annotation=annotation,
            annotation_bytes=annotation_bytes,
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
                response.signed_payload(request.key),
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
        send_time = self._charge(responder, at, cpu)
        self._ship(response.query_id, responder, response, send_time)

    # -- querier side -------------------------------------------------------------

    def handle_response(self, response: QueryResponse, at: float) -> None:
        """Merge *response* into the pending query that asked for it.

        The response names its request; the requested key comes from the
        querier's own books, and every other key from replaying the walk
        over the response's records, each record's code decoded against
        the key rebuilt for it.  Records that do not fit the walk, a code
        that does not decode, or an authenticated answer whose signature
        does not verify over the records, are refused: the key stays
        unresolved rather than poisoning the graph.
        """
        simulator = self.simulator
        pending = self._queries.get(response.query_id)
        if pending is None:
            return  # finished: a late answer is a no-op
        outstanding = pending.outstanding.pop(response.request_id, None)
        if outstanding is None:
            return  # already timed out; the answer arrived too late
        key, _node, timeout = outstanding
        # The answer is here: its timeout must neither fire nor burn an
        # event-budget slot.
        simulator.scheduler.cancel(timeout)
        rebuilt = response.closure.walk(key, response.source, self.codebook)
        verification_cost = 0.0
        if pending.query.authenticated:
            verification_cost = simulator.options.cost_model.seconds_per_verification
            if rebuilt is not None:
                if response.signature is not None and verify(
                    response.signed_payload(key),
                    response.signature,
                    simulator.keystore.public_key(response.source),
                ):
                    pending.responses_verified += 1
                else:
                    rebuilt = None
        if rebuilt is None:
            pending.verification_failures += 1
            if key not in pending.missing:
                pending.missing.append(key)
            self._charge(pending.stats, at, verification_cost)
            if not pending.outstanding:
                self._finish(pending, pending.stats.busy_until)
            return
        cpu = (
            simulator.options.cost_model.query_cpu_seconds(0, response.size_bytes())
            + verification_cost
        )
        now = self._charge(pending.stats, at, cpu)
        if response.source not in pending.nodes_visited:
            pending.nodes_visited.append(response.source)
        if response.annotation is not None:
            # The annotation the responder computed, shipped and billed for.
            pending.annotations[key] = response.annotation
            if pending.condensed is None and key == pending.query.root:
                pending.condensed = response.annotation
        entries, missing = rebuilt
        self._merge_closure(pending, response.source, entries, missing, now)
        if not pending.outstanding:
            self._finish(pending, pending.stats.busy_until)

    def _expand_local(self, pending: PendingQuery, key: FactKey, now: float) -> None:
        """Resolve *key* at the querying node itself: CPU, but no messages."""
        simulator = self.simulator
        at_node = pending.query.at
        local, _annotation, lookups = self._closure(
            simulator.engines[at_node],
            pending.stats,
            key,
            pending.query.mode,
            pending.query.condensed,
            now,
        )
        cpu = simulator.options.cost_model.query_cpu_seconds(lookups, 0)
        now = self._charge(pending.stats, now, cpu)
        if at_node not in pending.nodes_visited:
            pending.nodes_visited.append(at_node)
        entries, missing = local.expansion()
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
            pointers = entry.pointers
            last = len(pointers) - 1
            end = len(frontier)
            for at in range(0, end, 3):
                index = frontier[at]
                input_key, origin = pointers[index].inputs[frontier[at + 1]]
                self._dereference(pending, input_key, origin, now, frontier[at + 2])
                if (
                    len(merged) - 1 != piece
                    and index != last
                    and (at + 3 == end or frontier[at + 3] != index)
                ):  # the pointer's last remote input expanded something
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
        at = pending.query.at
        if node == at:
            # The pointer leads back to the asker: resolved in memory.
            self._expand_local(pending, key, now)
            return
        pending.requested.add(pair)
        pending.remote_lookups += 1
        simulator = self.simulator
        self._next_request_id += 1
        request = QueryRequest(
            source=at,
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
            pending.stats,
            now,
            simulator.options.cost_model.query_cpu_seconds(0, request.size_bytes()),
        )
        self._ship(pending.query_id, pending.stats, request, send_time)
        timeout_after = pending.query.timeout or DEFAULT_QUERY_TIMEOUT
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
        stats: NodeStats,
        key: FactKey,
        mode: str,
        condensed: bool,
        now: float,
    ):
        """Resolve the local closure of *key* at the node *stats* records,
        through the node's result cache when the service plane armed one.

        Returns ``(local, annotation, lookups)`` where *local* is the
        :class:`LocalClosure` and *lookups* is the
        store-lookup count to bill CPU for: the full walk (one lookup per
        record) on a miss, a single memo probe on a hit — caching measurably
        cheapens the query path.  The memo key is ``(key, mode,
        condensed)`` and the entry is guarded by the engine's
        ``provenance_epoch``, which bumps on every provenance-store
        mutation, so a hit is always structurally identical to a cold walk
        at the same instant.
        """
        node = stats.address
        cache = self.simulator.query_cache_for(node)
        if cache is not None:
            cache_key = (key, mode, condensed)
            epoch = engine.provenance_epoch
            hit, invalidated = cache.lookup(cache_key, epoch, now)
            if invalidated:
                stats.cache_invalidations += 1
            if hit is not None:
                (local, annotation), age = hit
                stats.cache_hits += 1
                bucket = latency_bucket(age)
                stats.cache_staleness_buckets[bucket] = (
                    stats.cache_staleness_buckets.get(bucket, 0) + 1
                )
                return local, annotation, 1
        local = _local_closure(self._store(engine, mode), node, key)
        annotation = self._annotation_for(engine, key, mode) if condensed else None
        if cache is not None:
            stats.cache_misses += 1
            stats.cache_invalidations += cache.store(
                cache_key, (local, annotation), epoch, now
            )
        return local, annotation, len(local.flags)

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

    @staticmethod
    def _charge(stats: NodeStats, start_floor: float, cpu: float) -> float:
        """Advance the CPU clock of the node *stats* records by *cpu* seconds;
        return its new busy time."""
        start = max(start_floor, stats.busy_until)
        stats.cpu_seconds += cpu
        stats.busy_until = start + cpu
        return stats.busy_until

    def _ship(self, query_id: int, sender: NodeStats, message, send_time: float) -> None:
        """Put one query-plane message on the wire, charging the usual costs
        to the node *sender* records, and bill it to the query *query_id*
        and its asker.

        Query traffic travels between arbitrary node pairs, so it is routed
        hop-by-hop over the currently-live topology (a partition loses it).
        """
        simulator = self.simulator
        size = simulator.ship_routed(
            sender.address, message.destination, message, send_time, sender
        )
        asker = (
            message.destination if type(message) is QueryResponse else sender.address
        )
        if simulator.hosts(asker):
            # Query ids are only unique per kernel, and a message's rightful
            # pending query lives at the kernel hosting the asker — this
            # one — so a same-id entry counts only when it really belongs
            # to this asker.  The serial backend misses a response's query
            # only when it had already finished, which takes a >timeout
            # link backlog before the response even ships.
            pending = self._queries.get(query_id)
            if pending is not None and pending.query.at == asker:
                pending.messages += 1
                pending.bytes += size
                pending.stats.query_bytes_charged += size
            return
        # A response passing through a kernel that does not host its asker
        # must not fabricate a phantom NodeStats entry on this shard's
        # books; the charge is recorded as a receipt the sharded coordinator
        # settles into the asker's merged stats at barrier time.
        if self.resolve_remote is not None:
            # In-process shards: the coordinator resolves the pending by
            # asker, and the charge stands only while that query is live.
            pending = self.resolve_remote(asker, query_id)
            if pending is None:
                return
            pending.messages += 1
            pending.bytes += size
        # Without a resolver (a process-mode worker cannot reach other
        # kernels' state) the charge is recorded sight unseen.
        receipts = simulator.query_receipts
        receipts[asker] = receipts.get(asker, 0) + size
