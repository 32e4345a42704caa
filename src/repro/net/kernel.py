"""The backend-agnostic simulation kernel.

A :class:`SimulationKernel` is the discrete-event core every execution
backend shares: the typed event loop, message routing, per-link transmission
serialization, delivery bookkeeping, dynamic-network state (failed links,
crashed nodes, remembered base facts) and the per-node CPU cost accounting.
Under signed ``says`` with batching, a data message that reaches a busy node
waits in the node's inbox, and the inbox runs as one receive round when the
node frees (:class:`~repro.net.events.InboxDrain`).

The kernel hosts the :class:`~repro.engine.node_engine.NodeEngine` of a *subset* of
the topology's nodes:

* the **serial backend** (the facade's default) is one kernel hosting every
  node;
* the **sharded backend** (:mod:`repro.net.sharding`) runs one kernel per
  shard — deliveries whose destination lives on another shard are not
  scheduled locally but handed to an export sink, exchanged at conservative
  lookahead barriers, and merged into the destination kernel's queue.

Two properties make the shards' independent queues replay the exact serial
schedule:

* event tie-breaking is *content-based* (see :mod:`repro.net.events`), so a
  delivery's position among same-instant events does not depend on which
  kernel scheduled it or when;
* message sequence numbers are **per sending node** (not per kernel), so the
  numbering a node's messages carry is identical no matter how the nodes are
  partitioned.

Cross-kernel determinism of the shared dynamic state works by broadcasting
control events (link failures/recoveries, crashes/recoveries, refresh
rounds) to every kernel: each kernel updates the cheap global-state sets,
while only the kernel hosting the affected node performs the stateful part
(retraction cascades, engine resets, re-injection) and counts the event —
so merged event totals match the serial backend's exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.datalog.planner import CompiledProgram
from repro.engine.node_engine import (
    EngineConfig,
    NodeEngine,
    OutgoingFact,
    ProcessingReport,
    collect_facts,
    facts_by_node,
    group_outgoing,
)
from repro.engine.tuples import Fact, FactKey, as_fact_key
from repro.net.address import Address
from repro.net.events import (
    EventScheduler,
    FactInjection,
    FactRetraction,
    InboxDrain,
    LinkDown,
    LinkUp,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
    QueryArrival,
    QueryTimeout,
    RefreshHorizon,
    RefreshTimerFire,
    SimulationEvent,
    SoftStateRefresh,
)
from repro.net.link import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, Link
from repro.net.message import AntiDelta, MessageBatch, QueryRequest, QueryResponse
from repro.net.query import (
    PendingQuery,
    ProvenanceQuery,
    QueryEngine,
    QueryResult,
)
from repro.net.stats import NetworkStats, NodeStats, WireMessage, latency_bucket
from repro.net.timers import TimerWheel
from repro.net.topology import Topology
from repro.security.keystore import KeyStore
from repro.security.principal import PrincipalRegistry
from repro.service.cache import CacheConfig, ClosureCache
from repro.service.ratelimit import AdmissionControl, TokenBucket
from repro.service.workload import QueryWorkload, next_arrival


@dataclass(frozen=True)
class CostModel:
    """Converts a node's operation counters into simulated CPU seconds.

    The constants model a 2008-era interpreted dataflow engine (P2) running
    many processes on one machine.  Absolute values are not meant to match
    the paper's testbed; what matters for the reproduction is the *structure*:
    per-tuple relational work scales with tuple size, signing adds a fixed
    cost per signature made (one per signed wire message), verification —
    charged per signature checked — is much cheaper than signing (small
    public exponent), and provenance adds per-annotation plus per-byte costs.

    Every term is linear in one report counter with no constant per-call
    overhead, so accounting one merged batch-level report charges exactly the
    same CPU time as accounting its per-tuple parts separately.
    """

    seconds_per_fact_received: float = 0.8e-3
    seconds_per_rule_firing: float = 1.2e-3
    seconds_per_fact_derived: float = 0.8e-3
    seconds_per_fact_inserted: float = 0.4e-3
    seconds_per_fact_retracted: float = 0.4e-3
    #: Support-polynomial prune that left a survivor: cheaper than a
    #: retraction (no table delete, no provenance invalidation).
    seconds_per_rederivation: float = 0.2e-3
    seconds_per_payload_byte: float = 3.0e-5
    seconds_per_signature: float = 4.0e-3
    seconds_per_verification: float = 0.6e-3
    seconds_per_provenance_annotation: float = 1.0e-3
    #: Charged per byte of the form an annotation travels in — a position
    #: mask or the explicit polynomial — since that is what is encoded and
    #: parsed.
    seconds_per_provenance_byte: float = 2.5e-5
    #: Query-plane work: one pointer-table lookup while answering (or
    #: locally expanding) a provenance query, and one serialized query
    #: payload byte built or parsed.
    seconds_per_query_lookup: float = 0.5e-3
    seconds_per_query_byte: float = 3.0e-5

    def query_cpu_seconds(self, lookups: int, payload_bytes: int) -> float:
        """Simulated CPU time for query-plane work (lookups + serialization)."""
        return (
            lookups * self.seconds_per_query_lookup
            + payload_bytes * self.seconds_per_query_byte
        )

    def cpu_seconds(self, report: ProcessingReport) -> float:
        """Simulated CPU time for the work summarised in *report*."""
        return (
            report.facts_received * self.seconds_per_fact_received
            + report.rule_firings * self.seconds_per_rule_firing
            + report.facts_derived * self.seconds_per_fact_derived
            + report.facts_inserted * self.seconds_per_fact_inserted
            + report.facts_retracted * self.seconds_per_fact_retracted
            + report.rederivations * self.seconds_per_rederivation
            + report.payload_bytes_processed * self.seconds_per_payload_byte
            + report.signatures_created * self.seconds_per_signature
            + report.signatures_verified * self.seconds_per_verification
            + report.provenance_annotations * self.seconds_per_provenance_annotation
            + report.provenance_bytes_computed * self.seconds_per_provenance_byte
        )


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    stats: NetworkStats
    engines: Dict[Address, NodeEngine]
    converged: bool
    events_processed: int

    def facts(self, relation: str) -> Dict[Address, Tuple[Fact, ...]]:
        """All stored facts of *relation*, per node."""
        return facts_by_node(self.engines, relation)

    def all_facts(self, relation: str) -> Tuple[Fact, ...]:
        return collect_facts(self.engines, relation)


@dataclass(frozen=True)
class KernelOptions:
    """The run-wide kernel settings, declared once.

    One record travels from :meth:`repro.api.options.NetOptions.kernel_options`
    through :class:`SimulationKernel`, the sharded coordinator and each
    :class:`~repro.net.sharding.ShardSpec`, so every serial and shard kernel
    of a run is configured identically and a new setting is added here (and
    to ``NetOptions``) only.
    """

    #: ``None`` resolves to the default :class:`CostModel`.
    cost_model: Optional[CostModel] = None
    key_bits: int = 256
    #: Cumulative event budget; drains report ``False`` once it is spent.
    max_events: int = 5_000_000
    #: Latency / bandwidth of sends between nodes without a topology link.
    default_latency: float = DEFAULT_LATENCY
    default_bandwidth: float = DEFAULT_BANDWIDTH
    #: How :meth:`SimulationKernel._dispatch_outgoing` groups a delta round
    #: into wire messages.  True (the default, matching real P2): one
    #: MessageBatch per destination, all its tuples under one header — and,
    #: under signed ``says``, a busy node's queued messages run as one round
    #: (:class:`~repro.net.events.InboxDrain`).  False: the paper's
    #: per-tuple format (its Figure 4 accounting), a MessageBatch of one per
    #: tuple, each paying its own header and signature, one round each.
    batching: bool = True
    #: Name of the base relation whose tuples mirror the topology's links;
    #: LinkDown retraction and recovery re-injection key off it.
    link_relation: str = "link"
    #: Service-plane configuration (repro.service): per-node token-bucket
    #: admission control and the per-node query-result cache.  ``None``
    #: disables the feature.
    admission: Optional[AdmissionControl] = None
    query_cache: Optional[CacheConfig] = None
    #: Soft-state refresh plane: ``"rounds"`` relies on scheduled
    #: :class:`SoftStateRefresh` events; ``"wheel"`` arms a per-tuple timer
    #: at each owner, re-asserting it every ``refresh_interval`` seconds,
    #: throttled per node to ``refresh_rate`` tuples per second (0 = no
    #: limit) with ``refresh_burst`` tokens of burst.
    refresh_mode: str = "rounds"
    refresh_interval: float = 10.0
    refresh_rate: float = 0.0
    refresh_burst: float = 1.0

    def __post_init__(self) -> None:
        if self.refresh_mode not in ("rounds", "wheel"):
            raise ValueError(
                f"unknown refresh_mode {self.refresh_mode!r}; expected 'rounds' or 'wheel'"
            )
        if self.cost_model is None:
            object.__setattr__(self, "cost_model", CostModel())


def shape_link_facts(
    topology: Topology, relation: str, arity: int
) -> Dict[Address, List[Fact]]:
    """The link base tuples implied by *topology*, shaped to *arity*.

    Programs differ in their link arity — reachability uses ``link(@S, D)``,
    Best-Path ``link(@S, D, C)`` — so the caller resolves the arity from its
    compiled catalog; anything but 2 carries the cost column.  Shared by the
    serial kernel and the sharded coordinator so the default workload cannot
    drift between backends.
    """
    per_node: Dict[Address, List[Fact]] = {address: [] for address in topology.nodes}
    for link in topology.links:
        values = (
            (link.source, link.destination)
            if arity == 2
            else (link.source, link.destination, link.cost)
        )
        per_node[link.source].append(Fact(relation=relation, values=values))
    return per_node


#: What :meth:`SimulationKernel.ship_routed` pays on a pair's live route: the
#: first link's ``(source, hop)`` wire key (``None`` from a node to itself),
#: its bandwidth and the summed latency of every hop; ``None`` when
#: partitioned.
RouteCost = Optional[Tuple[Optional[Tuple[Address, Address]], float, float]]


class SimulationKernel:
    """Runs one program over (a shard of) one topology under one configuration.

    Run-wide settings arrive as one :class:`KernelOptions` record; extra
    keyword arguments name individual fields of it and are folded over
    *options* (``SimulationKernel(topology, compiled, config, key_bits=128)``),
    so an unknown name raises ``TypeError``.
    """

    def __init__(
        self,
        topology: Topology,
        compiled: CompiledProgram,
        config: EngineConfig,
        options: Optional[KernelOptions] = None,
        *,
        keystore: Optional[KeyStore] = None,
        registry: Optional[PrincipalRegistry] = None,
        hosted: Optional[Iterable[Address]] = None,
        primary: bool = True,
        **overrides: object,
    ) -> None:
        options = dataclass_replace(options or KernelOptions(), **overrides)
        if options.refresh_mode == "wheel" and config.refresh_propagation == 0.0:
            # The wheel plane re-stamps continuously; waves propagate past
            # the owner once the downstream copy is half an interval old, so
            # derived state is repaired well before a full TTL elapses.
            config = dataclass_replace(
                config, refresh_propagation=options.refresh_interval / 2.0
            )
        self.topology = topology
        self.compiled = compiled
        self.config = config
        self.options = options
        #: Service-plane state: buckets and caches are created lazily per
        #: hosted node, on simulated time only.
        self._admission_buckets: Dict[Address, TokenBucket] = {}
        self._query_caches: Dict[Address, ClosureCache] = {}
        #: Timer-wheel refresh plane (``refresh_mode="wheel"``): per-tuple
        #: refresh timers at each hosted owner live in hierarchical timer
        #: wheels (never in the event heap — an idle network stays idle) and
        #: are materialized lazily up to ``_wheel_horizon``, the furthest
        #: horizon a :class:`RefreshHorizon` broadcast has announced.
        #: ``_refresh_horizon`` is the emission guard on the *driving* side:
        #: :meth:`schedule` broadcasts a new horizon only when an external
        #: event lands strictly beyond the last one.
        self._refresh_horizon = 0.0
        self._wheel_horizon = 0.0
        self._wheels: Dict[Address, TimerWheel] = {}
        #: Coalesced due timers: ``(address, fire time) -> ordered keys``.
        #: One :class:`RefreshTimerFire` event exists per bucket, so its
        #: content rank ``(address)`` is unique at any instant.
        self._due_refresh: Dict[Tuple[Address, float], Dict[FactKey, None]] = {}
        #: Per-node refresh-wave token buckets (``refresh_rate`` > 0 only):
        #: repair traffic is a bounded trickle, not synchronized spikes.
        self._refresh_buckets: Dict[Address, TokenBucket] = {}
        #: The nodes whose engines this kernel hosts (all of them for the
        #: serial backend, one shard's worth for the sharded backend).
        self.hosted: Tuple[Address, ...] = (
            tuple(topology.nodes) if hosted is None else tuple(hosted)
        )
        self._hosted_set: Set[Address] = set(self.hosted)
        #: Exactly one kernel per run is primary: it owns (counts) the
        #: broadcast events that belong to no particular node, so merged
        #: event totals equal the serial backend's.
        self.primary = primary

        self.registry = registry or PrincipalRegistry()
        #: Deterministic keys for *every* node regardless of hosting: key
        #: creation draws from one seeded RNG in topology order, so each
        #: shard kernel derives the identical key material the serial
        #: backend would, and cross-shard signatures verify bit-for-bit.
        self.keystore = keystore or KeyStore(key_bits=options.key_bits, seed=7)
        #: Signed ``says``: every wire message this kernel forms is sealed.
        self._seals = config.says_mode.requires_signature
        if self._seals:
            self.keystore.create_all(topology.nodes)
        #: Where a seal is the per-message price (signed ``says``, batching
        #: on), a data message reaching a busy node waits in its inbox, and
        #: the inbox runs as one receive round when the node frees: one seal
        #: per destination per busy period.  Unsigned messages cost nothing
        #: per message, so there the drain would only delay outputs.
        self._drains_inbox = self._seals and options.batching
        #: Per hosted node: its queued data messages in arrival order, and
        #: the one :class:`InboxDrain` pending for them (present together).
        self._inboxes: Dict[Address, List[MessageBatch]] = {}
        self._drains: Dict[Address, InboxDrain] = {}

        self.engines: Dict[Address, NodeEngine] = {}
        for address in topology.nodes:
            self.registry.register(address)
            if address in self._hosted_set:
                self.engines[address] = NodeEngine(
                    address=address,
                    compiled=compiled,
                    config=config,
                    keystore=self.keystore,
                    registry=self.registry,
                )

        self.stats = NetworkStats()
        self.scheduler = EventScheduler()
        self._events_processed = 0
        #: Schedule count for broadcast copies this kernel does not own;
        #: subtracted when per-kernel ``events_scheduled`` totals merge.
        #: ``_uncounted_ids`` marks the not-yet-dispatched copies themselves
        #: (by identity — the scheduler holds them until they fire).
        self._uncounted_scheduled = 0
        self._uncounted_ids: Set[int] = set()
        #: Per sending node message sequence counters.  Identical runs number
        #: identically, and — because the counter follows the *node*, not the
        #: kernel — so do runs partitioned across any number of shards.
        self._sequences: Dict[Address, int] = {}
        #: Stamp counter ordering externally scheduled control events; the
        #: sharded coordinator assigns these globally instead.
        self._control_stamp = 0
        #: Per directed link: the time its wire is busy until.  Transmissions
        #: on one link serialize; a message starts only after the previous
        #: one has left the sender's interface.
        self._link_busy_until: Dict[Tuple[Address, Address], float] = {}
        #: Dynamic network state: directed links currently failed and nodes
        #: currently crashed.  Consulted at ship / delivery / injection time.
        #: Replicated in every kernel via control-event broadcast.
        self._down_links: set = set()
        self._down_nodes: set = set()
        #: :meth:`route_between` answers over the current down sets (``None``:
        #: partitioned), and :meth:`ship_routed`'s first link and summed
        #: latency of each; :meth:`_invalidate_routes` clears both when the
        #: down sets mutate.
        self._routes: Dict[Tuple[Address, Address], Optional[Tuple[Link, ...]]] = {}
        self._route_costs: Dict[Tuple[Address, Address], RouteCost] = {}
        #: :meth:`_service_root`'s draw order: per ``(node, relation)``, the
        #: rows it last sorted and their sorted list, reused while the
        #: node's rows compare equal.
        self._root_draws: Dict[
            Tuple[Address, str], Tuple[Tuple[Fact, ...], List[Fact]]
        ] = {}
        #: Base facts each node has asserted (for recovery re-injection and
        #: soft-state refresh rounds); retraction removes entries.
        self._base_facts: Dict[Address, Dict[FactKey, Fact]] = {}
        #: Link tuples retracted by LinkDown, re-injected by a bare LinkUp.
        self._failed_link_facts: Dict[Tuple[Address, Address], Tuple[Fact, ...]] = {}
        #: Export sink for deliveries destined to a node another kernel
        #: hosts: ``(deliver_at, message)`` pairs the sharded coordinator
        #: collects at window barriers (and when priming a drain — queries
        #: issued *between* drains ship their first cross-shard requests
        #: outside any window).  ``None`` under the serial backend, where
        #: every destination is hosted locally; the sharded backend enables
        #: it permanently via :meth:`enable_exports`.
        self._export_sink: Optional[List[Tuple[float, WireMessage]]] = None
        #: Bytes of query-plane traffic charged on behalf of askers this
        #: kernel does not host (their responses passed through here on the
        #: way back).  Each kernel's stats book stays strictly local —
        #: ``stats.nodes`` only ever holds hosted nodes — and the sharded
        #: coordinator settles these receipts into the asker's merged
        #: :class:`NodeStats` at barrier time.  Always empty under the
        #: serial backend (every asker is hosted).
        self.query_receipts: Dict[Address, int] = {}

        #: The in-network provenance query plane (repro.net.query): queries
        #: ride the same scheduler and pay the same wire costs as data.
        self.queries = QueryEngine(self)

        self._handlers = self._build_handlers()

    def _build_handlers(self) -> Dict[type, Callable]:
        return {
            MessageDelivery: self._handle_delivery,
            LinkDown: self._handle_link_down,
            LinkUp: self._handle_link_up,
            NodeCrash: self._handle_node_crash,
            NodeRecover: self._handle_node_recover,
            FactInjection: self._handle_injection,
            FactRetraction: self._handle_retraction,
            SoftStateRefresh: self._handle_refresh,
            RefreshHorizon: self._handle_refresh_horizon,
            RefreshTimerFire: self._handle_refresh_fire,
            QueryTimeout: self._handle_query_timeout,
            QueryArrival: self._handle_query_arrival,
            InboxDrain: self._handle_inbox_drain,
        }

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship a kernel across a process boundary (sharded worker results).

        The compiled program carries unpicklable generated functions and is
        dropped — the receiver reattaches its own identical compilation via
        :meth:`attach_program` — as is the handler dispatch table (bound
        methods, rebuilt on restore).  Kernels travel at barriers or at
        completion, when their event queues are drained or hold only plain
        typed events, so everything else is data.
        """
        state = self.__dict__.copy()
        state["compiled"] = None
        state["_handlers"] = None
        state["_export_sink"] = None
        # The route and root-draw memos refill on demand.
        for memo in ("_routes", "_route_costs", "_root_draws"):
            state[memo] = {}
        # Identity-based bookkeeping cannot cross processes; kernels only
        # travel when no unowned broadcast copy is pending.
        state["_uncounted_ids"] = set()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._handlers = self._build_handlers()

    def attach_program(self, compiled: CompiledProgram) -> None:
        """Reattach the compiled program to this kernel and its engines."""
        self.compiled = compiled
        for engine in self.engines.values():
            engine.attach_program(compiled)

    # -- base facts -------------------------------------------------------------

    def link_facts(self) -> Dict[Address, List[Fact]]:
        """The link base tuples implied by the topology, shaped for the program.

        The compiled catalog decides whether the default workload carries
        the cost column (see :func:`shape_link_facts`); programs that never
        mention the link relation get the full ``link(@S, D, C)`` shape.
        """
        relation = self.options.link_relation
        # Every engine compiles the same program; any one catalog will do.
        engine = next(iter(self.engines.values()), None)
        arity = 3
        if engine is not None and relation in engine.database.catalog:
            arity = engine.database.catalog.schema(relation).arity
        return shape_link_facts(self.topology, relation, arity)

    def live_base_facts(self, address: Address) -> Tuple[Fact, ...]:
        """The node's remembered base tuples, minus links currently down."""
        remembered = self._base_facts.get(address)
        if not remembered:
            return ()
        return tuple(
            fact
            for fact in remembered.values()
            if not (
                fact.relation == self.options.link_relation
                and len(fact.values) >= 2
                and (fact.values[0], fact.values[1]) in self._down_links
            )
        )

    # -- dynamic state ----------------------------------------------------------

    def link_is_up(self, source: Address, destination: Address) -> bool:
        return (source, destination) not in self._down_links

    def node_is_up(self, address: Address) -> bool:
        return address not in self._down_nodes

    def _invalidate_routes(self) -> None:
        """Forget every cached route: a down set just changed."""
        self._routes.clear()
        self._route_costs.clear()

    def hosts(self, address: Address) -> bool:
        """True when this kernel hosts *address*'s engine."""
        return address in self._hosted_set

    # -- running ----------------------------------------------------------------

    def schedule(self, event: SimulationEvent) -> None:
        """Queue a typed event for the next :meth:`run_until_idle` drain.

        Control events receive their ordering stamp here, in call order —
        the order the driving code (scenario scripts, tests, ``run``)
        scheduled them, which is identical under every backend.

        Under ``refresh_mode="wheel"`` an external event landing strictly
        beyond the previous refresh horizon first broadcasts a
        :class:`RefreshHorizon` (at the *old* horizon, so due timers
        materialize at their natural deadlines, not bunched at the new
        event's instant) — the lazy-materialization trigger that lets
        per-tuple timers stay out of the event heap.
        """
        if (
            self.options.refresh_mode == "wheel"
            and event.time > self._refresh_horizon
            and not isinstance(event, RefreshHorizon)
        ):
            previous = self._refresh_horizon
            self._refresh_horizon = event.time
            self._control_stamp += 1
            self.scheduler.schedule(
                RefreshHorizon(time=previous, horizon=event.time),
                stamp=self._control_stamp,
            )
        self._control_stamp += 1
        self.scheduler.schedule(event, stamp=self._control_stamp)

    def schedule_stamped(self, event: SimulationEvent, stamp: int, owned: bool) -> None:
        """Queue a control event stamped by the sharded coordinator.

        *owned* marks the one kernel that counts the event (the shard
        hosting the affected node, or the primary kernel for node-less
        broadcasts); the other kernels process their copy for its
        global-state side effects without it appearing in event totals.
        """
        if not owned:
            self._uncounted_ids.add(id(event))
            self._uncounted_scheduled += 1
        self.scheduler.schedule(event, stamp=stamp)

    def run_until_idle(self) -> bool:
        """Dispatch scheduled events until none remain (a distributed fixpoint).

        Returns False when the cumulative ``max_events`` budget ran out first.
        """
        max_events = self.options.max_events
        while self.scheduler:
            if self._events_processed >= max_events:
                return False
            self._dispatch(self.scheduler.pop())
        self.settle_retractions()
        return True

    def settle_retractions(self) -> None:
        """Quiescence bookkeeping: drop every engine's dead-base marks.

        Runs when a drain reaches the distributed fixpoint (never on budget
        exhaustion — events may still be in flight then).  The sharded
        coordinator triggers the same call in every shard kernel when *its*
        drain converges, keeping the two backends in lockstep.
        """
        for engine in self.engines.values():
            engine.settle_retractions()

    def enable_exports(self) -> None:
        """Mark this kernel as one shard of many: deliveries to non-hosted
        destinations accumulate for the coordinator instead of being
        scheduled (and dropped) locally.  Permanent — covers sends made
        between windows too, e.g. a query issued after a drain."""
        if self._export_sink is None:
            self._export_sink = []

    def take_exports(self) -> List[Tuple[float, WireMessage]]:
        """Drain the accumulated cross-shard deliveries."""
        if not self._export_sink:
            return []
        exported, self._export_sink = self._export_sink, []
        return exported

    def run_window(
        self,
        horizon: float,
        imports: Iterable[Tuple[float, WireMessage]] = (),
    ) -> Tuple[List[Tuple[float, WireMessage]], Optional[float], bool]:
        """Process every local event strictly before *horizon*.

        *imports* are cross-shard deliveries the coordinator collected from
        the other kernels at the previous barrier; they merge into the local
        queue in content-rank order before the window runs.

        Returns the deliveries this window exported for other kernels, the
        timestamp of the next local event (``None`` when idle), and False
        when the event budget ran out mid-window.
        """
        self.enable_exports()
        for deliver_at, message in imports:
            self.scheduler.schedule(MessageDelivery(time=deliver_at, message=message))
        within_budget = True
        max_events = self.options.max_events
        while True:
            next_time = self.scheduler.peek_time()
            if next_time is None or next_time >= horizon:
                break
            if self._events_processed >= max_events:
                within_budget = False
                break
            self._dispatch(self.scheduler.pop())
        return self.take_exports(), self.scheduler.peek_time(), within_budget

    def _dispatch(self, event: SimulationEvent) -> None:
        if self._uncounted_ids:
            if id(event) in self._uncounted_ids:
                self._uncounted_ids.discard(id(event))
            else:
                self._events_processed += 1
        else:
            self._events_processed += 1
        try:
            handler = self._handlers[type(event)]
        except KeyError:
            raise TypeError(
                f"no handler for scheduled event {type(event).__name__}; "
                f"known events: {sorted(t.__name__ for t in self._handlers)}"
            ) from None
        handler(event, event.time)

    def current_time(self) -> float:
        """The latest instant any hosted node has been busy until."""
        return max(
            [stats.busy_until for stats in self.stats.nodes.values()] or [0.0]
        )

    def expire_all(self, now: float) -> None:
        """Sweep residual soft state out of every node's database at *now*.

        Expiry is otherwise lazy (tables expire when touched), so snapshots
        taken between phases would include tuples whose TTL already elapsed.
        Storage-tier gauges refresh here too: expiry sweeps are exactly the
        phase boundaries at which statistics snapshots are taken.
        """
        for engine in self.engines.values():
            engine.database.expire(now)
        self.refresh_provenance_stats()

    def refresh_provenance_stats(self) -> None:
        """Copy each archive's storage-tier gauges into the node statistics.

        ``provenance_bytes_resident`` is a gauge (current residency) and the
        other two are archive-owned cumulative counters, so they are
        *assigned*, not added — calling this any number of times is
        idempotent.  Both backends refresh at the same deterministic points
        (expiry sweeps, sharded stats snapshots), which keeps the three
        counters identical between serial and sharded runs.
        """
        for address, engine in self.engines.items():
            archive = engine.offline_provenance
            node_stats = self.stats.node(address)
            node_stats.provenance_bytes_resident = archive.resident_bytes()
            node_stats.provenance_bytes_spilled = archive.spilled_bytes()
            node_stats.spill_reads = archive.spill_read_count()

    def count_facts(self, relation: str) -> int:
        """Stored-tuple count of *relation* across this kernel's nodes."""
        return sum(len(engine.facts(relation)) for engine in self.engines.values())

    def run(
        self,
        base_facts: Optional[Dict[Address, Iterable[Fact]]] = None,
        start_time: float = 0.0,
    ) -> SimulationResult:
        """Inject base facts at *start_time* and run to the distributed fixpoint."""
        injected = base_facts if base_facts is not None else self.link_facts()
        for address, facts in injected.items():
            self.schedule(
                FactInjection(time=start_time, address=address, facts=tuple(facts))
            )
        converged = self.run_until_idle()
        return self.finish(converged)

    def issue_query(
        self, query: ProvenanceQuery, now: Optional[float] = None
    ) -> PendingQuery:
        """Start an in-network provenance query at simulated instant *now*.

        Requests, responses and timeouts are dispatched through the normal
        event loop: drain it (:meth:`run_until_idle`) and read
        ``pending.result()``.  Defaults to issuing at the current simulated
        time, i.e. after whatever the network has already been through.
        """
        at = self.current_time() if now is None else now
        return self.queries.issue(query, now=at)

    def query(
        self,
        root,
        at: Address,
        mode: str = "online",
        condensed: bool = False,
        authenticated: bool = False,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Issue a provenance query, run it to completion, return its result.

        ``root`` may be a :class:`~repro.engine.tuples.Fact` or a fact key.
        """
        key = as_fact_key(root)
        pending = self.issue_query(
            ProvenanceQuery(
                root=key,
                at=at,
                mode=mode,
                condensed=condensed,
                authenticated=authenticated,
                timeout=timeout,
            )
        )
        self.run_until_idle()
        return pending.result()

    def finish(self, converged: bool = True) -> SimulationResult:
        """Close the books on a run: final stats plus residual soft-state expiry.

        Residual soft state is expired once at the run's completion time, so
        post-run ``facts()`` snapshots never include tuples whose TTL elapsed
        before the last event (expiry is otherwise lazy — a tuple nothing
        touched after its deadline would linger in the snapshot).
        """
        self.stats.total_events = self._events_processed
        self.stats.completion_time = self.current_time()
        self.expire_all(self.stats.completion_time)
        return SimulationResult(
            stats=self.stats,
            engines=self.engines,
            converged=converged,
            events_processed=self._events_processed,
        )

    # -- event handlers ----------------------------------------------------------

    def _handle_delivery(self, event: MessageDelivery, at: float) -> None:
        self._deliver(event.message, at)

    def _handle_query_timeout(self, event: QueryTimeout, at: float) -> None:
        self.queries.handle_timeout(event, at)

    def _handle_link_down(self, event: LinkDown, at: float) -> None:
        key = (event.source, event.destination)
        self._down_links.add(key)
        self._invalidate_routes()
        if not event.retract:
            return
        engine = self.engines.get(event.source)
        if engine is None:
            return
        stored = tuple(
            fact
            for fact in engine.facts(self.options.link_relation)
            if len(fact.values) >= 2
            and fact.values[0] == event.source
            and fact.values[1] == event.destination
        )
        if stored:
            # A repeated LinkDown for an already-retracted link finds no
            # tuples; keep the earlier remembered ones so a bare LinkUp can
            # still restore the link.
            self._failed_link_facts[key] = stored
            self._retract(event.source, stored, at)

    def _handle_link_up(self, event: LinkUp, at: float) -> None:
        key = (event.source, event.destination)
        self._down_links.discard(key)
        self._invalidate_routes()
        # A dead link's wire forgets its queue: transmissions serialized
        # behind the failure never happened, so the recovered link must not
        # inherit the busy window they had reserved.
        self._link_busy_until.pop(key, None)
        if not self.hosts(event.source):
            return
        facts = event.facts or self._failed_link_facts.get(key, ())
        if facts:
            # Remember before injecting: if the source is crashed right now
            # the injection is dropped, but NodeRecover re-injects from the
            # remembered set — the restored link must not be lost with it.
            remembered = self._base_facts.setdefault(event.source, {})
            for fact in facts:
                remembered[fact.key()] = fact
            self._inject(event.source, facts, at, remember=False)

    def _handle_node_crash(self, event: NodeCrash, at: float) -> None:
        self._down_nodes.add(event.address)
        self._invalidate_routes()
        # A crashed node's refresh timers die with it; recovery re-injection
        # arms fresh ones.  Already-materialized fire buckets are filtered
        # by the down-node check at fire time.
        self._wheels.pop(event.address, None)
        # What the node had queued but not yet run dies with it.
        inbox = self._take_inbox(event.address)
        if inbox:
            self.stats.messages_lost += len(inbox)
        engine = self.engines.get(event.address)
        if engine is not None and event.clear_state:
            engine.reset_state()
            # The reset bumps the engine's provenance epoch, so stale memo
            # entries could never be served anyway — wiping eagerly frees
            # the memory and counts the loss where it happened.
            cache = self._query_caches.get(event.address)
            if cache is not None:
                self.stats.node(event.address).cache_invalidations += cache.clear()

    def _handle_node_recover(self, event: NodeRecover, at: float) -> None:
        self._down_nodes.discard(event.address)
        self._invalidate_routes()
        if event.reinject:
            facts = self.live_base_facts(event.address)
            if facts:
                self._inject(event.address, facts, at, remember=False)

    def _handle_injection(self, event: FactInjection, at: float) -> None:
        self._inject(event.address, event.facts, at, remember=event.remember)

    def _handle_retraction(self, event: FactRetraction, at: float) -> None:
        self._retract(event.address, event.facts, at)

    # -- service plane -----------------------------------------------------------

    def serve(self, workload: QueryWorkload, start: Optional[float] = None) -> int:
        """Schedule *workload*'s arrivals, opening at *start* (default: now).

        Returns the number of initial arrivals offered; drain the scheduler
        (:meth:`run_until_idle`) to play the serve window out.  Closed-loop
        follow-ups are scheduled kernel-side as each query completes.
        """
        opening = self.current_time() if start is None else start
        arrivals = workload.events(self.topology.nodes, opening)
        for event in arrivals:
            self.schedule(event)
        return len(arrivals)

    def query_cache_for(self, address: Address) -> Optional[ClosureCache]:
        """The node's armed result cache (lazily built); ``None`` when off."""
        if self.options.query_cache is None:
            return None
        cache = self._query_caches.get(address)
        if cache is None:
            cache = self.options.query_cache.build()
            self._query_caches[address] = cache
        return cache

    def _handle_query_arrival(self, event: QueryArrival, at: float) -> None:
        """One service-plane arrival: admission, root resolution, issue."""
        address = event.address
        engine = self.engines.get(address)
        if engine is None:
            # The sharded coordinator routes arrivals to the hosting kernel;
            # an unknown address is a workload aimed at a node that does not
            # exist, dropped the same way stray deliveries are.
            return
        node_stats = self.stats.node(address)
        if address in self._down_nodes:
            # An always-on service keeps taking arrivals; a crashed node
            # simply fails to serve them.
            node_stats.queries_shed += 1
            self._service_continue(event, at)
            return
        admission = self.options.admission
        if admission is not None:
            bucket = self._admission_buckets.get(address)
            if bucket is None:
                bucket = admission.bucket()
                self._admission_buckets[address] = bucket
            if not bucket.try_acquire(at):
                node_stats.queries_rejected += 1
                node_stats.queries_shed += 1
                self._service_continue(event, at)
                return
        unanswerable = not self.config.provenance_mode.maintains_provenance or (
            event.mode == "offline" and not self.config.keep_offline_provenance
        )
        self._flush_inbox(address, at)
        root = None if unanswerable else self._service_root(engine, event)
        if root is None:
            # Nothing to trace (empty table, or a configuration recording no
            # pointers): the arrival is shed, not an error — the service
            # stays up and the workload's loop keeps going.
            node_stats.queries_shed += 1
            self._service_continue(event, at)
            return
        self.queries.issue(
            ProvenanceQuery(
                root=root,
                at=address,
                mode=event.mode,
                condensed=event.condensed,
            ),
            now=at,
            service=event,
        )

    def _service_root(self, engine: NodeEngine, event: QueryArrival):
        """Resolve the arrival's root selector against the asker's live store.

        The draw indexes the node's sorted tuple list for the selected
        relation — a pure function of per-node state, which is identical at
        any instant under every backend, so both backends trace the same
        roots.  ``None`` when the node holds no such tuples.
        """
        rows = engine.facts(event.relation)
        if not rows:
            return None
        selector = (engine.address, event.relation)
        drawn = self._root_draws.get(selector)
        # Equal rows sort alike; the comparison skips identical facts, and
        # a refreshed row compares equal to the one it replaced.
        if drawn is None or drawn[0] != rows:
            drawn = self._root_draws[selector] = (
                rows,
                sorted(rows, key=lambda fact: fact.values),
            )
        facts = drawn[1]
        return facts[event.draw % len(facts)].key()

    def service_query_finished(self, pending: PendingQuery) -> None:
        """Record one service query's completion; keep its closed loop going."""
        node_stats = pending.stats
        node_stats.queries_completed += 1
        bucket = latency_bucket(pending.completed_at - pending.issued_at)
        node_stats.query_latency_buckets[bucket] = (
            node_stats.query_latency_buckets.get(bucket, 0) + 1
        )
        self._service_continue(pending.service, pending.completed_at)

    def _service_continue(self, event: QueryArrival, at: float) -> None:
        """Schedule a closed-loop client's next arrival, think time after *at*.

        Open-loop arrivals (``client < 0``) have their whole schedule
        precomputed by the workload generator; nothing to do here.
        """
        if event.client < 0:
            return
        next_at = at + event.think
        if next_at >= event.deadline:
            return
        # Content-ranked (client, arrival id): no stamp needed, and
        # the follow-up sorts identically no matter which kernel computed it.
        self.scheduler.schedule(next_arrival(event, next_at))

    def _handle_refresh(self, event: SoftStateRefresh, at: float) -> None:
        if self.options.refresh_mode == "wheel":
            # The wheel plane refreshes continuously; a round event's only
            # remaining effect — advancing the refresh horizon — already
            # happened when scheduling it emitted the horizon broadcast.
            # Keeping the event a no-op lets scenario scripts stay uniform
            # across refresh modes.
            return
        # Expanded at fire time so control events that share the timestamp
        # (and were scheduled earlier) are already reflected: a link that
        # just failed is excluded, a node that just crashed stays silent.
        # Each kernel refreshes the nodes it hosts; the others' remembered
        # base-fact maps are empty here.
        for address in self.topology.nodes:
            if address in self._down_nodes:
                continue
            facts = self.live_base_facts(address)
            if facts:
                self._inject(address, facts, at, remember=False)

    # -- timer-wheel refresh plane ------------------------------------------------

    def _handle_refresh_horizon(self, event: RefreshHorizon, at: float) -> None:
        """Materialize every hosted refresh timer due up to the new horizon.

        Due timers coalesce into one :class:`RefreshTimerFire` per (node,
        instant) — content-ranked, so every backend fires them in the same
        order.  ``max(deadline, at)`` guards the catch-up edge (a deadline
        at the quantization boundary never schedules into the past, which
        the sharded backend's conservative lookahead relies on).
        """
        if event.horizon > self._wheel_horizon:
            self._wheel_horizon = event.horizon
        for address in self.hosted:
            wheel = self._wheels.get(address)
            if not wheel:
                continue
            for deadline, key in wheel.advance(event.horizon):
                self._queue_refresh(address, key, max(deadline, at))

    def _handle_refresh_fire(self, event: RefreshTimerFire, at: float) -> None:
        """One node's due refresh timers fire: re-assert, rate-limited."""
        address = event.address
        keys = self._due_refresh.pop((address, at), None)
        if not keys:
            return
        node_stats = self.stats.node(address)
        node_stats.timer_events += 1
        if address in self._down_nodes:
            # A crashed node's timers lapse silently; recovery re-injects
            # its base facts, which re-arms them.
            return
        engine = self.engines.get(address)
        if engine is None:
            return
        remembered = self._base_facts.get(address, {})
        bucket: Optional[TokenBucket] = None
        if self.options.refresh_rate > 0:
            bucket = self._refresh_buckets.get(address)
            if bucket is None:
                bucket = self._refresh_buckets[address] = TokenBucket(
                    rate=self.options.refresh_rate, burst=self.options.refresh_burst
                )
        due_facts: List[Fact] = []
        for key in keys:
            fact = remembered.get(key)
            if fact is None:
                continue  # retracted since the timer was armed
            if (
                fact.relation == self.options.link_relation
                and len(fact.values) >= 2
                and (fact.values[0], fact.values[1]) in self._down_links
            ):
                # A dead link's tuple is neither refreshed nor re-armed:
                # it decays, and LinkUp re-injects (and re-arms) it.
                continue
            if bucket is not None and not bucket.try_acquire(at):
                # Over the refresh budget: defer to the deterministic next
                # token instead of refreshing in a burst.
                retry_at = at + (1.0 - bucket.tokens) / bucket.rate
                self._arm_refresh(address, key, retry_at)
                continue
            due_facts.append(fact)
            self._arm_refresh(address, key, at + self.options.refresh_interval)
        if not due_facts:
            return
        self._flush_inbox(address, at)
        start = max(at, node_stats.busy_until)
        sent_before = node_stats.messages_sent
        bytes_before = node_stats.bytes_sent
        result = engine.refresh_batch(due_facts, start)
        self._count_seals(result.report, result.outgoing)
        self._account_processing(address, start, result.report, node_stats)
        self._dispatch_outgoing(address, result.outgoing, node_stats)
        node_stats.refresh_messages += node_stats.messages_sent - sent_before
        node_stats.refresh_bytes += node_stats.bytes_sent - bytes_before

    def _arm_refresh(self, address: Address, key: FactKey, deadline: float) -> None:
        """Arm (or re-arm) one base tuple's refresh timer at its owner.

        Deadlines beyond the announced wheel horizon park in the node's
        wheel; deadlines at or inside it (re-arms during a drained window)
        materialize directly — quantized to the same tick grid the wheel
        uses, so a timer fires at the same instant either way.
        """
        wheel = self._wheels.get(address)
        if wheel is None:
            wheel = self._wheels[address] = TimerWheel()
        if deadline > self._wheel_horizon:
            wheel.schedule(key, deadline)
            return
        wheel.cancel(key)
        tick = math.ceil((deadline - wheel.epoch) / wheel.resolution)
        self._queue_refresh(address, key, wheel.epoch + tick * wheel.resolution)

    def _queue_refresh(self, address: Address, key: FactKey, when: float) -> None:
        """Coalesce one due timer into its (node, instant) fire bucket."""
        bucket = self._due_refresh.get((address, when))
        if bucket is None:
            self._due_refresh[(address, when)] = {key: None}
            # Content-ranked (address), scheduled inside kernel processing —
            # like query timeouts, never stamped.
            self.scheduler.schedule(RefreshTimerFire(time=when, address=address))
        else:
            bucket[key] = None

    # -- internals ----------------------------------------------------------------

    def _inject(
        self,
        address: Address,
        facts: Iterable[Fact],
        at: float,
        remember: bool = True,
    ) -> None:
        """Insert base *facts* at *address* and ship what they cause.

        Injections addressed to a crashed or unknown node are ignored — a
        down node's application is down with it.
        """
        if address in self._down_nodes:
            return
        engine = self.engines.get(address)
        if engine is None:
            return
        self._flush_inbox(address, at)
        node_stats = self.stats.node(address)
        remembered = self._base_facts.setdefault(address, {}) if remember else None
        wheel_mode = self.options.refresh_mode == "wheel"
        known = self._base_facts.get(address, {})
        pending: List[OutgoingFact] = []
        sealed: Set[Address] = set()
        for fact in facts:
            start = max(at, node_stats.busy_until)
            result = engine.insert_base(fact, now=start)
            self._count_seals(result.report, result.outgoing, sealed)
            self._account_processing(address, start, result.report, node_stats)
            pending.extend(result.outgoing)
            if remembered is not None:
                remembered[fact.key()] = fact
            if wheel_mode and fact.key() in known:
                # Every remembered base tuple owns a refresh timer; injection
                # (initial, LinkUp restore, crash-recovery re-inject) arms or
                # re-arms it one interval out.
                self._arm_refresh(address, fact.key(), at + self.options.refresh_interval)
        # One delta round per injection: everything the injected facts caused
        # ships together (one batch per destination when batching).
        self._dispatch_outgoing(address, pending, node_stats)

    def _retract(self, address: Address, facts: Iterable[Fact], at: float) -> None:
        """Withdraw base *facts* at *address*, cascading local invalidation."""
        if address in self._down_nodes:
            return
        engine = self.engines.get(address)
        if engine is None:
            return
        self._flush_inbox(address, at)
        node_stats = self.stats.node(address)
        remembered = self._base_facts.get(address)
        wheel = self._wheels.get(address)
        for fact in facts:
            start = max(at, node_stats.busy_until)
            result = engine.retract_base(fact, now=start)
            self._count_seals(result.report, result.outgoing)
            self._account_processing(address, start, result.report, node_stats)
            # One-fixpoint deletions: chase remote copies with anti-deltas
            # (routed around failed links — repair traffic, like queries,
            # is not restricted to program-visible links), and re-ship what
            # the surviving alternatives re-derived so downstream copies
            # holding a stale fire-time polynomial are repaired in the same
            # fixpoint.
            self._ship_anti_deltas(address, result.anti_deltas, node_stats)
            self._dispatch_outgoing(address, result.outgoing, node_stats)
            if remembered is not None:
                remembered.pop(fact.key(), None)
            if wheel is not None:
                wheel.cancel(fact.key())

    def _deliver(self, message: WireMessage, deliver_at: float) -> None:
        destination = message.destination
        if destination in self._down_nodes:
            # The wire was paid for, but nobody is listening.
            self.stats.messages_lost += 1
            return
        engine = self.engines.get(destination)
        if engine is None:
            # A message to a nonexistent address must not fabricate a phantom
            # NodeStats entry (which would inflate receive counters and join
            # the completion-time max); it is dropped and counted globally.
            # Destinations hosted by another kernel never reach here: the
            # coordinator routes deliveries by shard assignment.
            self.stats.messages_dropped += 1
            return
        node_stats = self.stats.node(destination)
        kind = type(message)
        if kind is MessageBatch:
            if self._drains_inbox and (
                deliver_at < node_stats.busy_until or destination in self._inboxes
            ):
                # The node is busy: queue the message in arrival order; the
                # first one queued arms the drain at the instant it frees.
                inbox = self._inboxes.setdefault(destination, [])
                if not inbox:
                    self._arm_drain(destination, node_stats.busy_until)
                inbox.append(message)
            else:
                self._receive_round(destination, [message], deliver_at, node_stats)
            return
        if destination in self._inboxes:
            self._flush_inbox(destination, deliver_at)
        node_stats.record_receive(message)
        # Query-plane traffic is handled by the query engine, not the
        # datalog engine; it shares the loss semantics above (a crashed
        # node answers nothing, the querier's timeout reports the miss).
        if kind is QueryRequest:
            self.queries.handle_request(message, deliver_at, node_stats)
        elif kind is QueryResponse:
            self.queries.handle_response(message, deliver_at)
        else:
            # Keys retracted upstream: prune local support polynomials and
            # keep the deletion fixpoint moving across the export graph.
            start = max(deliver_at, node_stats.busy_until)
            result = engine.retract_remote(
                message.keys, start, message.source, message.sequence, message.signature
            )
            self._count_seals(result.report, result.outgoing)
            self._account_processing(destination, start, result.report, node_stats)
            self._ship_anti_deltas(destination, result.anti_deltas, node_stats)
            self._dispatch_outgoing(destination, result.outgoing, node_stats)

    # -- the inbox ------------------------------------------------------------------

    def _arm_drain(self, address: Address, at: float) -> None:
        drain = self._drains[address] = InboxDrain(time=at, address=address)
        # Content-ranked (address), scheduled inside kernel processing.
        self.scheduler.schedule(drain)

    def _take_inbox(self, address: Address) -> Optional[List[MessageBatch]]:
        """Empty *address*'s inbox and cancel its pending drain, so a drain
        that fires always finds the inbox it was armed for."""
        inbox = self._inboxes.pop(address, None)
        if inbox is not None:
            self.scheduler.cancel(self._drains.pop(address))
        return inbox

    def _flush_inbox(self, address: Address, at: float) -> None:
        """Run *address*'s queued data messages now, as one round.

        Called first by every handler that touches the node's engine or
        store, so the node processes its traffic in the order it arrived.
        """
        inbox = self._take_inbox(address)
        if inbox:
            self._receive_round(address, inbox, at, self.stats.node(address))

    def _handle_inbox_drain(self, event: InboxDrain, at: float) -> None:
        address = event.address
        node_stats = self.stats.node(address)
        if node_stats.busy_until > at:
            # Busy again meanwhile (query work): drain when it frees.
            self._arm_drain(address, node_stats.busy_until)
            return
        # The firing drain has left the heap already: forget it, never cancel.
        del self._drains[address]
        self._receive_round(address, self._inboxes.pop(address), at, node_stats)

    def _receive_round(
        self,
        address: Address,
        messages: List[MessageBatch],
        at: float,
        node_stats: NodeStats,
    ) -> None:
        """One ``receive_batch`` call, one report and one delta round for
        *messages*: the round's whole output ships together, one message
        (and under signed ``says`` one seal) per destination."""
        for message in messages:
            node_stats.record_receive(message)
        node_stats.receive_rounds += 1
        start = max(at, node_stats.busy_until)
        result = self.engines[address].receive_batch(
            [(message.facts(), message.signature) for message in messages], start
        )
        self._count_seals(result.report, result.outgoing)
        self._account_processing(address, start, result.report, node_stats)
        self._dispatch_outgoing(address, result.outgoing, node_stats)

    def _account_processing(
        self,
        address: Address,
        start: float,
        report: ProcessingReport,
        node_stats: NodeStats,
    ) -> None:
        cpu = self.options.cost_model.cpu_seconds(report)
        node_stats.cpu_seconds += cpu
        node_stats.busy_until = start + cpu
        node_stats.facts_derived += report.facts_derived
        node_stats.facts_stored += report.facts_inserted
        node_stats.facts_retracted += report.facts_retracted
        node_stats.rederivations += report.rederivations
        node_stats.signatures_created += report.signatures_created
        node_stats.signatures_verified += report.signatures_verified
        node_stats.facts_verified += report.facts_verified
        node_stats.verification_failures += report.verification_failures
        node_stats.facts_rejected += report.facts_rejected

    def _ship_anti_deltas(
        self,
        source: Address,
        anti_deltas: Dict[str, List[FactKey]],
        node_stats: NodeStats,
    ) -> None:
        """Ship one retraction pass's anti-delta fanout (routed delivery).

        Under signed ``says`` the sender seals each anti-delta — over its
        keys, both endpoints and its message sequence — and pays for the
        signatures before the first one leaves.
        """
        if not anti_deltas:
            return
        signer = None
        if self._seals:
            signer = self.engines[source].authenticator
            report = ProcessingReport(signatures_created=len(anti_deltas))
            self._account_processing(source, node_stats.busy_until, report, node_stats)
        send_time = node_stats.busy_until
        for destination, keys in anti_deltas.items():
            keys = tuple(keys)
            sequence = self._next_sequence(source)
            signature, security_bytes = None, 0
            if signer is not None:
                signature = signer.seal_anti_delta(keys, destination, sequence)
                security_bytes = signer.wire_overhead() + len(signature)
            message = AntiDelta(
                source=source,
                destination=destination,
                keys=keys,
                sent_at=send_time,
                sequence=sequence,
                security_bytes=security_bytes,
                signature=signature,
            )
            self.ship_routed(source, destination, message, send_time, node_stats)

    def _next_sequence(self, source: Address) -> int:
        """Per-sending-node message sequence counter.

        Identical runs number identically, and the numbering is independent
        of how nodes are partitioned across kernels — which is what lets the
        scheduler's content-based tie-break replay the serial order from any
        shard's queue.
        """
        value = self._sequences.get(source, 0) + 1
        self._sequences[source] = value
        return value

    def _schedule_delivery(self, deliver_at: float, message: WireMessage) -> None:
        """Queue a delivery locally, or export it to the destination's kernel."""
        if self._export_sink is not None and message.destination not in self._hosted_set:
            self._export_sink.append((deliver_at, message))
            return
        self.scheduler.schedule(MessageDelivery(time=deliver_at, message=message))

    def _count_seals(
        self,
        report: ProcessingReport,
        outgoing: List[OutgoingFact],
        sealed: Optional[Set[Address]] = None,
    ) -> None:
        """Charge *report* for the signatures :meth:`_dispatch_outgoing` will
        make for *outgoing* under signed ``says``: one per wire message — a
        batch per destination, or a batch of one per tuple without batching.

        Called before the round is accounted, so the signing cost lands in
        the same cost-model sum as the round's other work.  Rounds that ship
        together pass one *sealed* set: only a destination no earlier round
        of the set reached forms a new message.
        """
        if not outgoing or not self._seals:
            return
        if not self.options.batching:
            report.signatures_created = len(outgoing)
            return
        destinations = {item.destination for item in outgoing}
        if sealed is not None:
            destinations -= sealed
            sealed |= destinations
        report.signatures_created = len(destinations)

    def _dispatch_outgoing(
        self, source: Address, outgoing: List[OutgoingFact], node_stats: NodeStats
    ) -> None:
        """Form one delta round's wire messages and ship them.

        This is the one place wire messages are formed, so it is where they
        are sealed: under signed ``says`` each carries one signature over
        the Merkle root of its tuples (paid for by :meth:`_count_seals`).
        """
        if not outgoing:
            return
        send_time = node_stats.busy_until
        signer = self.engines[source].authenticator if self._seals else None
        if self.options.batching:
            groups = group_outgoing(outgoing).items()
        else:
            groups = ((item.destination, (item,)) for item in outgoing)
        for destination, items in groups:
            signature = None
            if signer is not None:
                signature = signer.seal_batch([item.fact for item in items], destination)
            message = MessageBatch(
                source=source,
                destination=destination,
                items=tuple(items),
                sent_at=send_time,
                sequence=self._next_sequence(source),
                signature=signature,
            )
            self._ship(source, destination, message, send_time, node_stats)

    def route_between(
        self, source: Address, destination: Address
    ) -> Optional[Tuple[Link, ...]]:
        """Shortest live directed path from *source* to *destination*, or None.

        BFS over the topology minus currently-down links; crashed nodes do
        not forward (they may still be the destination — delivery-time loss
        handles that).  Deterministic: neighbours are explored in topology
        declaration order.  Used by the query plane, whose request/response
        traffic travels between arbitrary node pairs, unlike data traffic
        which only ever crosses single program-visible links.

        Searched once per pair and served from ``_routes`` (partitions
        included) until a link or node changes state.
        """
        pair = (source, destination)
        try:
            return self._routes[pair]
        except KeyError:
            path = self._routes[pair] = self._search_route(source, destination)
            return path

    def _search_route(
        self, source: Address, destination: Address
    ) -> Optional[Tuple[Link, ...]]:
        if source == destination:
            return ()
        parents: Dict[Address, Tuple[Address, Link]] = {source: None}  # type: ignore[dict-item]
        frontier: List[Address] = [source]
        while frontier:
            next_frontier: List[Address] = []
            for node in frontier:
                for link in self.topology.outgoing(node):
                    hop = link.destination
                    if hop in parents or (node, hop) in self._down_links:
                        continue
                    if hop != destination and hop in self._down_nodes:
                        continue
                    parents[hop] = (node, link)
                    if hop == destination:
                        path: List[Link] = []
                        current = hop
                        while parents[current] is not None:
                            previous, via = parents[current]
                            path.append(via)
                            current = previous
                        path.reverse()
                        return tuple(path)
                    next_frontier.append(hop)
            frontier = next_frontier
        return None

    def _route_cost(self, source: Address, destination: Address) -> RouteCost:
        """The :data:`RouteCost` of shipping from *source* to *destination*."""
        path = self.route_between(source, destination)
        if path is None:
            return None
        if not path:
            return None, 0.0, self.options.default_latency
        first = path[0]
        return (
            (source, first.destination),
            first.bandwidth,
            sum(link.latency for link in path),
        )

    def ship_routed(
        self,
        source: Address,
        destination: Address,
        message: WireMessage,
        send_time: float,
        node_stats: NodeStats,
    ) -> int:
        """Ship a message along the live multi-hop route to *destination*;
        returns its wire size.

        The sender pays for the bytes either way.  With no live route —
        partition, downed links — the message is lost; otherwise it
        serializes on the first hop's wire (the sender's interface) and pays
        the summed propagation latency of every hop on the path, memoised
        per pair in ``_route_costs`` beside the route table.
        """
        if message.sequence == 0:
            message.sequence = self._next_sequence(source)
        size = message.size_bytes()
        node_stats.record_send(message, size)
        self.stats.total_messages += 1
        pair = (source, destination)
        try:
            cost = self._route_costs[pair]
        except KeyError:
            cost = self._route_costs[pair] = self._route_cost(source, destination)
        if cost is None:
            self.stats.messages_lost += 1
            return size
        wire, bandwidth, latency = cost
        if wire is None:
            wire_seconds = 0.0
            transmit_at = send_time
        else:
            wire_seconds = size / bandwidth if bandwidth > 0 else 0.0
            transmit_at = max(send_time, self._link_busy_until.get(wire, 0.0))
            self._link_busy_until[wire] = transmit_at + wire_seconds
        self._schedule_delivery(transmit_at + wire_seconds + latency, message)
        return size

    def _ship(
        self,
        source: Address,
        destination: Address,
        message: MessageBatch,
        send_time: float,
        node_stats: NodeStats,
    ) -> None:
        """Charge a data message's send and enqueue its delivery with
        link-serialized timing."""
        size = message.size_bytes()
        node_stats.record_send(message, size)
        self.stats.total_messages += 1
        link = self.topology.link_between(source, destination)
        if link is not None:
            latency, bandwidth = link.latency, link.bandwidth
        else:
            latency = self.options.default_latency
            bandwidth = self.options.default_bandwidth
        wire_seconds = size / bandwidth if bandwidth > 0 else 0.0
        key = (source, destination)
        transmit_at = max(send_time, self._link_busy_until.get(key, 0.0))
        self._link_busy_until[key] = transmit_at + wire_seconds
        if key in self._down_links:
            # The sender cannot tell the link is dead: it pays the send and
            # the message is lost on the wire.
            self.stats.messages_lost += 1
            return
        deliver_at = transmit_at + wire_seconds + latency
        self._schedule_delivery(deliver_at, message)
