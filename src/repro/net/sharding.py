"""The sharded execution backend: parallel per-shard kernels.

The serial backend replays a distributed system one event at a time; this
module partitions the topology into K shards and runs one
:class:`~repro.net.kernel.SimulationKernel` per shard — in worker processes
(``multiprocessing``, spawn-safe) or in-process for debugging — while
keeping the simulation *exactly* equivalent to the serial schedule:

* **Partitioning** (:func:`partition_topology`) is a deterministic, seeded
  edge-cut heuristic: K spread-out seed nodes grow balanced regions
  greedily, always absorbing the unassigned neighbour with the most links
  into the region, so most traffic stays shard-local.

* **Synchronization** is conservative (null-message-free Chandy–Misra in
  spirit): all cross-shard traffic pays at least the minimum cross-shard
  link propagation latency ``W``, so the coordinator steps every shard
  through lockstep windows ``[T, T + W)`` — ``T`` the earliest pending
  event anywhere — exchanging exported ``MessageDelivery`` events at each
  barrier.  Nothing a shard does inside a window can reach another shard
  before the window ends.

* **Transport**: coordinator↔worker traffic travels as compact binary
  frames (:mod:`repro.net.transport`) over the persistent pipes — interned
  addresses/relations, struct-packed headers, ``repr``-literal payloads.
  The coordination ledger — ``coordination_rounds``,
  ``coordination_bytes``, ``windows_executed`` — is deterministic (inline
  and process runs agree exactly) and flows through
  :meth:`NetworkStats.summary`.

* **Determinism / serial equivalence**: event tie-breaking is content-based
  (see :mod:`repro.net.events`) and message sequence numbers are per
  sending *node*, so each shard replays exactly the serial schedule
  restricted to its nodes.  Derived facts, delivery sequence numbers and
  every integer/byte statistic are identical to ``backend="serial"``;
  floating-point aggregates agree up to summation order (per-node floats
  are bit-identical; only cross-node sums may associate differently).

* **Dynamics**: control events (link failure/recovery, node crash/recovery,
  soft-state refresh) broadcast to every kernel — each updates its replica
  of the down-link/down-node sets, while only the shard hosting the
  affected node performs retraction cascades, engine resets and
  re-injection, and counts the event, keeping merged event totals equal to
  the serial backend's.

The public entry point is ``repro.api``::

    network = Network.build(topology=200, program="best-path",
                            provenance="ndlog", backend="sharded", shards=4)
    result = network.run()   # same facts and integer stats as serial
    result.stats.summary()["coordination_rounds"]
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import random
import struct
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.datalog.ast import Program
from repro.datalog.catalog import Catalog
from repro.datalog.planner import CompiledProgram, compile_program
from repro.engine.node_engine import EngineConfig, NodeEngine
from repro.engine.tuples import Fact, as_fact_key
from repro.net.address import Address
from repro.net.events import (
    FactInjection,
    FactRetraction,
    LinkDown,
    LinkUp,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
    QueryArrival,
    RefreshHorizon,
    SimulationEvent,
)
from repro.net.kernel import (
    KernelOptions,
    SimulationKernel,
    SimulationResult,
    shape_link_facts,
)
from repro.net.query import PendingQuery, ProvenanceQuery, QueryResult
from repro.net.stats import NetworkStats, WireMessage
from repro.net.topology import Topology
from repro.net.transport import BinaryCodec
from repro.service.workload import QueryWorkload

#: Execution modes for the shard workers.
SHARD_MODES = ("processes", "inline")


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of one topology into K shards."""

    shards: Tuple[Tuple[Address, ...], ...]
    assignment: Dict[Address, int] = field(hash=False, compare=False)
    #: Directed links whose endpoints live on different shards.
    cut_links: Tuple[Tuple[Address, Address], ...] = ()
    #: Conservative lookahead window: the minimum propagation latency of any
    #: cut link (infinite when nothing crosses — one shard, or a degenerate
    #: partition).
    window: float = math.inf

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, address: Address, default: int = 0) -> int:
        return self.assignment.get(address, default)


def partition_topology(
    topology: Topology, shards: int, seed: int = 0
) -> ShardPlan:
    """Split *topology* into *shards* balanced node groups with few cut edges.

    Deterministic in *seed*: K seed nodes are chosen by a farthest-point
    sweep from a seeded random start, then regions grow breadth-first one
    node at a time — always the smallest region first, absorbing the next
    unassigned node on its BFS frontier (discovery order; topology order
    within one hop) and falling back to the first unassigned node when a
    frontier empties (disconnected leftovers).  Multi-seed BFS growth keeps
    regions contiguous and balanced — the classic cheap edge-cut heuristic —
    with no external graph library and reproducible results everywhere.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    nodes = list(topology.nodes)
    shards = min(shards, len(nodes))
    order = {node: position for position, node in enumerate(nodes)}
    neighbours: Dict[Address, Set[Address]] = {node: set() for node in nodes}
    for link in topology.links:
        neighbours[link.source].add(link.destination)
        neighbours[link.destination].add(link.source)

    def hops_from(start: Address) -> Dict[Address, int]:
        distance = {start: 0}
        frontier = [start]
        while frontier:
            next_frontier: List[Address] = []
            for node in frontier:
                for peer in neighbours[node]:
                    if peer not in distance:
                        distance[peer] = distance[node] + 1
                        next_frontier.append(peer)
            frontier = next_frontier
        return distance

    rng = random.Random(seed)
    seeds = [nodes[rng.randrange(len(nodes))]]
    while len(seeds) < shards:
        # Farthest-point spread: the node maximising its distance to the
        # nearest existing seed (unreachable nodes count as infinitely far).
        best: Optional[Address] = None
        best_rank: Tuple[float, int] = (-1.0, 0)
        distances = [hops_from(existing) for existing in seeds]
        for node in nodes:
            if node in seeds:
                continue
            nearest = min(d.get(node, math.inf) for d in distances)
            rank = (nearest, -order[node])
            if rank > best_rank:
                best, best_rank = node, rank
        assert best is not None
        seeds.append(best)

    assignment: Dict[Address, int] = {}
    members: List[List[Address]] = [[] for _ in range(shards)]
    frontiers: List[List[Address]] = [[] for _ in range(shards)]

    def sorted_neighbours(node: Address) -> List[Address]:
        return sorted(neighbours[node], key=lambda peer: order[peer])

    def assign(node: Address, shard: int) -> None:
        assignment[node] = shard
        members[shard].append(node)
        frontiers[shard].extend(sorted_neighbours(node))

    for shard, node in enumerate(seeds):
        assign(node, shard)
    remaining = len(nodes) - len(seeds)
    cursor = 0  # topology-order fallback for disconnected leftovers
    while remaining:
        shard = min(range(shards), key=lambda s: (len(members[s]), s))
        frontier = frontiers[shard]
        chosen: Optional[Address] = None
        while frontier:
            candidate = frontier.pop(0)
            if candidate not in assignment:
                chosen = candidate
                break
        if chosen is None:
            while nodes[cursor] in assignment:
                cursor += 1
            chosen = nodes[cursor]
        assign(chosen, shard)
        remaining -= 1

    cut = tuple(
        (link.source, link.destination)
        for link in topology.links
        if assignment[link.source] != assignment[link.destination]
    )
    window = math.inf
    for source, destination in cut:
        link = topology.link_between(source, destination)
        if link is not None:
            window = min(window, link.latency)
    if cut and window <= 0:
        raise ValueError(
            "the sharded backend needs positive propagation latency on "
            "every cross-shard link: the conservative lookahead window is "
            "their minimum latency, and a zero window cannot make progress"
        )
    return ShardPlan(
        shards=tuple(tuple(group) for group in members),
        assignment=assignment,
        cut_links=cut,
        window=window,
    )


# ---------------------------------------------------------------------------
# Worker protocol: framed ops over pipes
# ---------------------------------------------------------------------------

_OP_FLUSH = 1
_OP_WINDOW = 2
_OP_STATS = 3
_OP_COUNT = 4
_OP_EXPIRE = 5
_OP_FINALIZE = 6
_OP_SETTLE = 7

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

#: The one coordination encoding (stateless): hot-path payloads travel as
#: deterministic binary frames in both shard modes.
_CODEC = BinaryCodec()


def _pack_optional_f64(value: Optional[float]) -> bytes:
    return b"\x00" if value is None else b"\x01" + _F64.pack(value)


def _unpack_optional_f64(data: bytes, offset: int) -> Tuple[Optional[float], int]:
    if data[offset]:
        return _F64.unpack_from(data, offset + 1)[0], offset + 9
    return None, offset + 1


def _pack_flush(batch) -> bytes:
    """A drain-prime command: stamped control events (often none).

    An empty flush is a fixed-size frame — one op byte plus the codec's
    empty-batch encoding — and its reply is fixed-size too when the worker
    has nothing pending, so the per-drain prime round stays cheap.
    """
    return bytes((_OP_FLUSH,)) + _CODEC.encode_events(batch)


def _pack_window(horizon: float, imports) -> bytes:
    """A window grant: run to *horizon* (f64) with *imports*."""
    return bytes((_OP_WINDOW,)) + _F64.pack(horizon) + _CODEC.encode_exports(imports)


def _unpack_flush_reply(raw: bytes):
    next_time, offset = _unpack_optional_f64(raw, 1)
    processed = _U64.unpack_from(raw, offset)[0]
    return next_time, processed, _CODEC.decode_exports(raw[offset + 8 :])


def _unpack_window_reply(raw: bytes):
    next_time, offset = _unpack_optional_f64(raw, 1)
    within_budget = bool(raw[offset])
    processed = _U64.unpack_from(raw, offset + 1)[0]
    exports = _CODEC.decode_exports(raw[offset + 9 :])
    return next_time, within_budget, processed, exports


class ShardWorkerError(RuntimeError):
    """A shard worker reported a failure, or its process died."""


def _check_reply(frame: bytes) -> bytes:
    if frame[:1] == b"\x01":
        raise ShardWorkerError(
            f"shard worker failed: {frame[1:].decode('utf-8', 'replace')}"
        )
    return frame


def _serve_op(kernel: SimulationKernel, frame: bytes) -> bytes:
    """Execute one coordination command against *kernel*; return the reply.

    Shared verbatim by the process worker loop and the inline wrapper, so
    both modes produce byte-identical frames — which is what makes the
    coordination ledger identical across ``shard_mode`` values.
    """
    op = frame[0]
    if op == _OP_FLUSH:
        for event, stamp, owned in _CODEC.decode_events(frame[1:]):
            kernel.schedule_stamped(event, stamp, owned)
        return (
            b"\x00"
            + _pack_optional_f64(kernel.scheduler.peek_time())
            + _U64.pack(kernel._events_processed)
            + _CODEC.encode_exports(kernel.take_exports())
        )
    if op == _OP_WINDOW:
        horizon = _F64.unpack_from(frame, 1)[0]
        exports, next_time, within_budget = kernel.run_window(
            horizon, _CODEC.decode_exports(frame[9:])
        )
        return (
            b"\x00"
            + _pack_optional_f64(next_time)
            + (b"\x01" if within_budget else b"\x00")
            + _U64.pack(kernel._events_processed)
            + _CODEC.encode_exports(exports)
        )
    if op == _OP_STATS:
        # Storage-tier gauges live in the engines, which never leave the
        # worker mid-run: fold them into the stats snapshot before it
        # crosses the process boundary.  Snapshots are off the hot path, so
        # they stay pickled.
        kernel.refresh_provenance_stats()
        snapshot = (
            kernel.stats,
            kernel.scheduler.events_scheduled,
            kernel._uncounted_scheduled,
            kernel._events_processed,
            kernel.current_time(),
            dict(kernel.query_receipts),
        )
        return b"\x00" + pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    if op == _OP_COUNT:
        count = kernel.count_facts(pickle.loads(frame[1:]))
        return b"\x00" + pickle.dumps(count, protocol=pickle.HIGHEST_PROTOCOL)
    if op == _OP_EXPIRE:
        kernel.expire_all(_F64.unpack_from(frame, 1)[0])
        return b"\x00"
    if op == _OP_SETTLE:
        kernel.settle_retractions()
        return b"\x00"
    raise ValueError(f"unknown shard worker op {op!r}")


# ---------------------------------------------------------------------------
# Shard specs and workers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardSpec:
    """Everything a spawn-safe worker needs to rebuild its shard kernel.

    Carries the *localized program AST* rather than the compiled program:
    compiled plans hold generated functions that cannot cross a spawn
    boundary, and compilation is deterministic, so every worker (and the coordinator)
    compiles identical plans from the same AST.
    """

    topology: Topology
    program: Program
    config: EngineConfig
    hosted: Tuple[Address, ...]
    primary: bool
    options: KernelOptions

    def build_kernel(self, compiled: Optional[CompiledProgram] = None) -> SimulationKernel:
        return SimulationKernel(
            self.topology,
            compiled if compiled is not None else compile_program(self.program),
            self.config,
            self.options,
            hosted=self.hosted,
            primary=self.primary,
        )


def _shard_worker_main(conn, spec: ShardSpec) -> None:
    """Worker entry point: serve framed kernel operations until closed.

    Module-level (importable) and argument-picklable, so it is safe under
    the ``spawn`` start method — the only one available everywhere.
    """
    try:
        kernel = spec.build_kernel()
        kernel.enable_exports()
    except BaseException as error:  # pragma: no cover - construction bugs
        conn.send_bytes(b"\x01" + f"{type(error).__name__}: {error}".encode())
        return
    while True:
        try:
            frame = conn.recv_bytes()
        except EOFError:
            return  # the coordinator is gone; nothing left to serve
        if frame[0] == _OP_FINALIZE:
            conn.send_bytes(
                b"\x00" + pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL)
            )
            conn.close()
            return
        try:
            reply = _serve_op(kernel, frame)
        except BaseException as error:
            try:
                conn.send_bytes(b"\x01" + f"{type(error).__name__}: {error}".encode())
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            return
        conn.send_bytes(reply)


class _WorkerHandle:
    """One spawned shard worker and the pipe carrying its request/reply frames.

    A worker that died (killed, crashed interpreter) shows up as ``EOFError``
    or ``OSError`` on the pipe; *abort* — the coordinator's ``close`` — then
    stops every remaining worker and the failure surfaces as one
    :class:`ShardWorkerError` naming the shard, its pid and its exit code.
    """

    def __init__(self, context, spec: ShardSpec, shard: int, abort) -> None:
        self.shard = shard
        # Held weakly: the coordinator owns this handle, and a reference
        # cycle would defer its __del__ (which stops the workers) to the GC.
        self._abort = weakref.WeakMethod(abort)
        self.connection, child = context.Pipe()
        self.process = context.Process(
            target=_shard_worker_main, args=(child, spec), daemon=True
        )
        self.process.start()
        child.close()

    def send_command(self, frame: bytes) -> None:
        try:
            self.connection.send_bytes(frame)
        except OSError as error:
            raise self._died(error) from error

    def recv_reply(self) -> bytes:
        try:
            frame = self.connection.recv_bytes()
        except (EOFError, OSError) as error:
            raise self._died(error) from error
        return _check_reply(frame)

    def _died(self, error: Exception) -> ShardWorkerError:
        self.process.join(timeout=5)  # reap, so the exit code is known
        pid, exitcode = self.process.pid, self.process.exitcode
        abort = self._abort()
        if abort is not None:
            abort()
        return ShardWorkerError(
            f"shard {self.shard} worker (pid {pid}) died with exit code "
            f"{exitcode} ({type(error).__name__} on its pipe)"
        )

    def close(self) -> None:
        try:
            self.connection.close()
        except OSError:  # pragma: no cover
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)


class _InlineWorker:
    """An in-process kernel behind the exact worker frame surface.

    Commands are encoded, decoded and served through the same codec and
    :func:`_serve_op` as a process worker — execution just happens at send
    time, with the reply buffered for the matching ``recv_reply`` — so
    inline runs produce byte-identical frames, and therefore an identical
    coordination ledger, to process runs of the same workload.
    """

    def __init__(self, kernel: SimulationKernel) -> None:
        self.kernel = kernel
        self._replies: deque = deque()

    def send_command(self, frame: bytes) -> None:
        try:
            reply = _serve_op(self.kernel, frame)
        except BaseException as error:
            reply = b"\x01" + f"{type(error).__name__}: {error}".encode()
        self._replies.append(reply)

    def recv_reply(self) -> bytes:
        return _check_reply(self._replies.popleft())


class _SchedulerView:
    """The tiny slice of the scheduler surface phase reports consume."""

    def __init__(self, backend: "ShardedSimulator") -> None:
        self._backend = backend

    @property
    def events_scheduled(self) -> int:
        return self._backend.events_scheduled()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

class ShardedSimulator:
    """Coordinates K shard kernels behind the serial simulator's surface.

    Presents the same running surface as a
    :class:`~repro.net.kernel.SimulationKernel` hosting all nodes —
    ``schedule`` / ``run_until_idle`` / ``run`` / ``finish`` / ``query`` /
    ``stats`` / ``engines`` — so the :class:`repro.api.Network` facade, the
    harness sweeps and the scenario scripts drive either backend unchanged.

    ``shard_mode="processes"`` (the default) runs each kernel in a spawned
    worker; ``"inline"`` runs them all in-process — same windows, same
    barriers, same results *and the same coordination ledger* — which is
    the debugger-friendly mode and the one that keeps engines inspectable
    mid-run.  After ``finish()`` the worker kernels are reeled back in
    whole (engines, provenance stores, dynamic state), so post-run
    inspection and in-network provenance queries work identically in both
    modes.

    Kernel settings arrive as one :class:`~repro.net.kernel.KernelOptions`
    record, handed unchanged to every shard kernel; extra keyword arguments
    name individual fields of it, exactly as on :class:`SimulationKernel`.
    """

    def __init__(
        self,
        topology: Topology,
        compiled: CompiledProgram,
        config: EngineConfig,
        options: Optional[KernelOptions] = None,
        *,
        shards: int = 2,
        shard_mode: str = "processes",
        shard_seed: int = 0,
        **overrides: object,
    ) -> None:
        if shard_mode not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_mode {shard_mode!r}; expected one of {SHARD_MODES}"
            )
        options = replace(options or KernelOptions(), **overrides)
        self.topology = topology
        self.compiled = compiled
        self.config = config
        self.options = options
        #: Mirror of the serial kernel's refresh-horizon emission guard: the
        #: furthest instant an externally scheduled event has announced.
        self._refresh_horizon = 0.0
        self.shard_mode = shard_mode
        self.plan = partition_topology(topology, shards, seed=shard_seed)
        #: The effective conservative lookahead: cross-shard traffic pays at
        #: least the minimum cut-link latency — or ``default_latency`` for
        #: sends between nodes without a directed topology link (Best-Path
        #: advertises upstream along *reverse* links, which take that path).
        self.window = min(self.plan.window, options.default_latency)
        if self.plan.cut_links and self.window <= 0:
            raise ValueError(
                "the sharded backend needs a positive default_latency: "
                "linkless sends (reverse-link advertisements) bound the "
                "conservative lookahead window"
            )
        self.scheduler = _SchedulerView(self)

        self._catalog = Catalog.from_program(compiled.program)
        self._specs = [
            ShardSpec(
                topology=topology,
                program=compiled.program,
                config=config,
                hosted=group,
                primary=(index == 0),
                options=options,
            )
            for index, group in enumerate(self.plan.shards)
        ]
        #: In-process kernels (inline mode always; process mode after the
        #: workers were finalized and reeled back in).
        self._kernels: Optional[List[SimulationKernel]] = None
        self._workers: Optional[List[_WorkerHandle]] = None
        #: The uniform command surface the coordination loops drive:
        #: worker handles or inline wrappers, one per shard.
        self._io: Optional[List] = None
        #: Externally scheduled events buffered until the next drain.
        self._pending_external: List[Tuple[SimulationEvent, int]] = []
        #: Per-shard batches built while routing a flush.
        self._flush_buffers: Dict[int, List] = {}
        #: Cross-shard deliveries awaiting import, per destination shard.
        self._pending_imports: List[List[Tuple[float, WireMessage]]] = [
            [] for _ in range(self.plan.shard_count)
        ]
        #: The coordination ledger (see NetworkStats): deterministic counts
        #: of hot-path round-trips, the frame bytes they carried, and window
        #: commands issued.
        self._coordination_rounds = 0
        self._coordination_bytes = 0
        self._windows_executed = 0
        self._control_stamp = 0
        self._finished = False
        if shard_mode == "inline":
            self._kernels = [
                spec.build_kernel(compiled=compiled) for spec in self._specs
            ]
            self._wire_kernels()

    def _wire_kernels(self) -> None:
        """Wire in-process kernels into one sharded whole.

        Deliveries to non-hosted destinations accumulate for barrier
        exchange — permanently, covering sends made between drains (a
        query's first cross-shard requests) — and each kernel's query
        engine resolves pending queries by *asker* across kernels, because
        query ids are only unique per kernel.
        """
        assert self._kernels is not None

        def find_pending(asker: Address, query_id: int):
            kernel = self._kernels[self.plan.shard_of(asker)]
            return kernel.queries._queries.get(query_id)

        for kernel in self._kernels:
            kernel.enable_exports()
            kernel.queries.resolve_remote = find_pending

    # -- worker lifecycle --------------------------------------------------------

    def _ensure_running(self) -> None:
        if self._kernels is not None:
            if self._io is None:
                self._io = [_InlineWorker(kernel) for kernel in self._kernels]
            return
        if self._workers is None:
            context = multiprocessing.get_context("spawn")
            self._workers = [
                _WorkerHandle(context, spec, shard, abort=self.close)
                for shard, spec in enumerate(self._specs)
            ]
        self._io = self._workers

    def close(self) -> None:
        """Terminate worker processes (idempotent; inline mode is a no-op)."""
        if self._workers is not None:
            for worker in self._workers:
                worker.close()
            self._workers = None
            self._io = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _recall_kernels(self) -> None:
        """Reel the worker kernels back into this process, whole."""
        assert self._workers is not None
        kernels: List[SimulationKernel] = []
        for worker in self._workers:
            worker.send_command(bytes((_OP_FINALIZE,)))
            kernel = pickle.loads(worker.recv_reply()[1:])
            kernel.attach_program(self.compiled)
            kernels.append(kernel)
            worker.close()
        self._workers = None
        self._io = None
        self._kernels = kernels
        self._wire_kernels()

    # -- scheduling ---------------------------------------------------------------

    def schedule(self, event: SimulationEvent) -> None:
        """Queue a typed event for the next drain.

        Events are stamped in call order — the same stamps the serial
        backend would assign — then routed at drain time: deliveries and
        fact events go to the shard hosting their node; link and node
        dynamics broadcast to every kernel (each maintains its replica of
        the global down-link/down-node sets) with only the hosting shard
        counting the event.

        Under ``refresh_mode="wheel"`` an event landing strictly beyond the
        previous refresh horizon first broadcasts a :class:`RefreshHorizon`
        — same guard, same stamp order as the serial kernel's
        :meth:`~repro.net.kernel.SimulationKernel.schedule`, so both
        backends materialize identical refresh timers.
        """
        if (
            self.options.refresh_mode == "wheel"
            and event.time > self._refresh_horizon
            and not isinstance(event, RefreshHorizon)
        ):
            previous = self._refresh_horizon
            self._refresh_horizon = event.time
            self._control_stamp += 1
            self._pending_external.append(
                (RefreshHorizon(time=previous, horizon=event.time), self._control_stamp)
            )
        self._control_stamp += 1
        self._pending_external.append((event, self._control_stamp))

    def _route_external(self, event: SimulationEvent, stamp: int) -> None:
        shard_count = self.plan.shard_count
        if isinstance(event, MessageDelivery):
            targets = {self.plan.shard_of(event.message.destination): True}
        elif isinstance(event, (FactInjection, FactRetraction, QueryArrival)):
            # A service-plane arrival is handled entirely on the kernel
            # hosting the asking node: admission, root resolution, the query
            # issue and the closed-loop follow-up all happen there.
            targets = {self.plan.shard_of(event.address): True}
        elif isinstance(event, (LinkDown, LinkUp)):
            owner = self.plan.shard_of(event.source)
            targets = {shard: shard == owner for shard in range(shard_count)}
        elif isinstance(event, (NodeCrash, NodeRecover)):
            owner = self.plan.shard_of(event.address)
            targets = {shard: shard == owner for shard in range(shard_count)}
        else:
            # Node-less broadcasts (soft-state refresh, refresh horizons):
            # every kernel expands its own hosted nodes (or drains its own
            # timer wheels); the primary counts the event.
            targets = {shard: shard == 0 for shard in range(shard_count)}
        for shard, owned in targets.items():
            self._flush_buffers.setdefault(shard, []).append((event, stamp, owned))

    def _drain_prime(self) -> Tuple[List[Optional[float]], List[int]]:
        """Start one drain: flush buffered control events to every shard in a
        single round, collecting each shard's next event time, processed
        count, and any exports made *between* drains (a provenance query
        issued after the data plane settled ships its first cross-shard
        requests outside any window)."""
        self._flush_buffers = {}
        pending, self._pending_external = self._pending_external, []
        for event, stamp in pending:
            self._route_external(event, stamp)
        buffers, self._flush_buffers = self._flush_buffers, {}
        for shard, io in enumerate(self._io):
            frame = _pack_flush(buffers.get(shard, []))
            self._coordination_rounds += 1
            self._coordination_bytes += len(frame)
            io.send_command(frame)
        next_times: List[Optional[float]] = []
        processed: List[int] = []
        for io in self._io:
            raw = io.recv_reply()
            self._coordination_bytes += len(raw)
            next_time, count, exports = _unpack_flush_reply(raw)
            next_times.append(next_time)
            processed.append(count)
            self._route_exports(exports)
        return next_times, processed

    # -- running ------------------------------------------------------------------

    def run_until_idle(self) -> bool:
        """Drain all shards to the distributed fixpoint via lookahead windows.

        The lockstep barrier: every shard steps through the same window
        ``[T, T + W)``, ``T`` being the earliest pending event or import.
        Returns False when the cumulative ``max_events`` budget ran out.
        """
        self._ensure_running()
        window = self.window
        imports = self._pending_imports
        next_times, processed = self._drain_prime()
        while True:
            live = [time for time in next_times if time is not None]
            live.extend(
                deliver_at
                for batch in imports
                for deliver_at, _ in batch
            )
            if not live:
                self._settle()
                return True
            if sum(processed) >= self.options.max_events:
                return False
            horizon = min(live) + window
            within_budget = True
            for shard, io in enumerate(self._io):
                batch, imports[shard] = imports[shard], []
                frame = _pack_window(horizon, batch)
                self._coordination_rounds += 1
                self._windows_executed += 1
                self._coordination_bytes += len(frame)
                io.send_command(frame)
            for shard, io in enumerate(self._io):
                raw = io.recv_reply()
                self._coordination_bytes += len(raw)
                next_times[shard], ok, processed[shard], exports = (
                    _unpack_window_reply(raw)
                )
                within_budget = within_budget and ok
                self._route_exports(exports, horizon)
            if not within_budget:
                return False

    def _settle(self) -> None:
        """Quiescence bookkeeping at the distributed fixpoint (mirrors the
        serial kernel's run_until_idle): every shard drops its engines'
        dead-base marks, so a later re-assertion of a retracted base is not
        mistaken for an in-flight race with its own anti-delta."""
        if self._kernels is not None:
            for kernel in self._kernels:
                kernel.settle_retractions()
        elif self._workers is not None:
            frame = bytes((_OP_SETTLE,))
            for worker in self._workers:
                worker.send_command(frame)
                worker.recv_reply()

    def _route_exports(
        self,
        exports: Iterable[Tuple[float, WireMessage]],
        horizon: Optional[float] = None,
    ) -> None:
        """Queue *exports* for their destination shards.

        *horizon* is the conservative bound the producing window promised
        (the barrier horizon); exports collected between drains (no window
        ran) pass ``None`` — every kernel is at a barrier then, so any
        future-time delivery is safe.
        """
        for deliver_at, message in exports:
            if horizon is not None and deliver_at < horizon:
                raise RuntimeError(
                    f"cross-shard delivery at t={deliver_at} violates the "
                    f"conservative lookahead window ending at t={horizon}: "
                    "a message crossed shards faster than the minimum "
                    "cross-shard link latency (direct sends between "
                    "non-adjacent nodes with a small default_latency can do "
                    "this); run this workload with backend='serial'"
                )
            shard = self.plan.shard_of(message.destination)
            self._pending_imports[shard].append((deliver_at, message))

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

    def finish(self, converged: bool = True) -> SimulationResult:
        """Reassemble per-shard state into one result (stats merge + expiry).

        In process mode the worker kernels are recalled whole, so the
        returned engines are the real post-run engines — provenance stores,
        soft state and all — exactly as the serial backend returns them.
        """
        if self._workers is not None:
            self._recall_kernels()
        if self._kernels is None:
            # finish() before any drain: build the inline kernels so the
            # result carries real (empty) engines.
            self._kernels = [
                spec.build_kernel(compiled=self.compiled) for spec in self._specs
            ]
        self._finished = True
        snapshots = self._kernel_snapshots()
        completion = max([s[4] for s in snapshots] or [0.0])
        for kernel in self._kernels:
            kernel.expire_all(completion)
        stats = self._merged_stats(snapshots)
        stats.completion_time = completion
        return SimulationResult(
            stats=stats,
            engines=self.engines,
            converged=converged,
            events_processed=self._events_processed_total(snapshots),
        )

    # -- aggregation ---------------------------------------------------------------

    def _kernel_snapshots(
        self,
    ) -> List[Tuple[NetworkStats, int, int, int, float, Dict[Address, int]]]:
        if self._kernels is not None:
            for kernel in self._kernels:
                kernel.refresh_provenance_stats()
            return [
                (
                    kernel.stats,
                    kernel.scheduler.events_scheduled,
                    kernel._uncounted_scheduled,
                    kernel._events_processed,
                    kernel.current_time(),
                    dict(kernel.query_receipts),
                )
                for kernel in self._kernels
            ]
        if self._workers is not None:
            snapshots = []
            for worker in self._workers:
                worker.send_command(bytes((_OP_STATS,)))
                snapshots.append(pickle.loads(worker.recv_reply()[1:]))
            return snapshots
        return []

    def _merged_stats(self, snapshots=None) -> NetworkStats:
        if snapshots is None:
            snapshots = self._kernel_snapshots()
        merged = NetworkStats()
        for stats, _scheduled, _uncounted, processed, _busy, _receipts in snapshots:
            # merge() copies into records it owns; the kernels' live stats
            # objects are never aliased or mutated.
            merged.merge(stats)
            merged.total_events += processed
        # Settle cross-shard query billing: responses that passed through a
        # kernel not hosting their asker were recorded as receipts (the
        # kernel's own stats book stays strictly local); the charge lands on
        # the asker's merged record here, matching the serial backend's
        # per-node query_bytes_charged exactly.
        for _stats, _scheduled, _uncounted, _processed, _busy, receipts in snapshots:
            for asker in sorted(receipts):
                merged.node(asker).query_bytes_charged += receipts[asker]
        # The coordination ledger lives on the coordinator, not in any
        # kernel: assigned, not merged (serial runs report zeros).
        merged.coordination_rounds = self._coordination_rounds
        merged.coordination_bytes = self._coordination_bytes
        merged.windows_executed = self._windows_executed
        return merged

    def _events_processed_total(self, snapshots=None) -> int:
        if snapshots is None:
            snapshots = self._kernel_snapshots()
        return sum(s[3] for s in snapshots)

    def events_scheduled(self) -> int:
        """Scheduled-event total matching the serial backend's counter.

        Broadcast copies a kernel processes only for their global-state side
        effects are subtracted — they have no serial counterpart.
        """
        return sum(s[1] - s[2] for s in self._kernel_snapshots())

    @property
    def stats(self) -> NetworkStats:
        """The merged network statistics across every shard (live snapshot)."""
        return self._merged_stats()

    @property
    def engines(self) -> Dict[Address, NodeEngine]:
        """Per-node engines in topology order (inline, or after ``finish``)."""
        if self._kernels is None:
            raise RuntimeError(
                "shard worker processes hold the engines while the run is in "
                "flight; read them after finish()/run(), or use "
                "shard_mode='inline'"
            )
        by_address: Dict[Address, NodeEngine] = {}
        for kernel in self._kernels:
            by_address.update(kernel.engines)
        return {
            address: by_address[address]
            for address in self.topology.nodes
            if address in by_address
        }

    def current_time(self) -> float:
        """The latest instant any node on any shard has been busy until."""
        snapshots = self._kernel_snapshots()
        return max([s[4] for s in snapshots] or [0.0])

    def expire_all(self, now: float) -> None:
        if self._kernels is not None:
            for kernel in self._kernels:
                kernel.expire_all(now)
        elif self._workers is not None:
            frame = bytes((_OP_EXPIRE,)) + _F64.pack(now)
            for worker in self._workers:
                worker.send_command(frame)
                worker.recv_reply()

    def count_facts(self, relation: str) -> int:
        """Stored-tuple count of *relation* across all shards."""
        if self._kernels is not None:
            return sum(kernel.count_facts(relation) for kernel in self._kernels)
        if self._workers is not None:
            frame = bytes((_OP_COUNT,)) + pickle.dumps(
                relation, protocol=pickle.HIGHEST_PROTOCOL
            )
            total = 0
            for worker in self._workers:
                worker.send_command(frame)
                total += pickle.loads(worker.recv_reply()[1:])
            return total
        return 0

    # -- workload -----------------------------------------------------------------

    def link_facts(self) -> Dict[Address, List[Fact]]:
        """The link base tuples implied by the topology, shaped for the program.

        Same shaping as :meth:`SimulationKernel.link_facts` (via the shared
        :func:`~repro.net.kernel.shape_link_facts`), resolving the link
        relation's arity from the compiled catalog — the coordinator may
        hold no engines while workers run.
        """
        relation = self.options.link_relation
        arity = 3
        if relation in self._catalog:
            arity = self._catalog.schema(relation).arity
        return shape_link_facts(self.topology, relation, arity)

    # -- dynamic state -------------------------------------------------------------

    def _any_kernel(self) -> SimulationKernel:
        if self._kernels is None:
            raise RuntimeError(
                "dynamic state lives in the shard workers while the run is "
                "in flight; use shard_mode='inline' for mid-run inspection"
            )
        return self._kernels[0]

    def link_is_up(self, source: Address, destination: Address) -> bool:
        return self._any_kernel().link_is_up(source, destination)

    def node_is_up(self, address: Address) -> bool:
        return self._any_kernel().node_is_up(address)

    @property
    def keystore(self):
        """Key material (identical in every kernel: one seeded derivation)."""
        return self._any_kernel().keystore

    @property
    def registry(self):
        return self._any_kernel().registry

    # -- service plane -------------------------------------------------------------

    def serve(self, workload: QueryWorkload, start: Optional[float] = None) -> int:
        """Schedule *workload*'s arrivals, opening at *start* (default: now).

        Mirrors :meth:`SimulationKernel.serve`: the precomputed arrival
        stream is identical (a pure function of the workload and the
        topology's node list), and each arrival is routed to the shard
        hosting its asking node at the next drain.  Works in every shard
        mode — arrivals are handled entirely kernel-side, so process-mode
        workers serve queries mid-run even though the coordinator cannot
        reach their engines.
        """
        opening = self.current_time() if start is None else start
        arrivals = workload.events(self.topology.nodes, opening)
        for event in arrivals:
            self.schedule(event)
        return len(arrivals)

    # -- provenance queries --------------------------------------------------------

    def _kernel_hosting(self, address: Address) -> SimulationKernel:
        if self._kernels is None:
            raise RuntimeError(
                "in-network provenance queries on the sharded backend need "
                "the kernels in-process: use shard_mode='inline', or query "
                "after finish()/run() completed the data plane"
            )
        return self._kernels[self.plan.shard_of(address)]

    def issue_query(
        self, query: ProvenanceQuery, now: Optional[float] = None
    ) -> PendingQuery:
        """Start an in-network provenance query (see the serial docstring).

        The query engine of the shard hosting the asking node drives the
        request fan-out; cross-shard requests and responses ride the same
        window barriers as data traffic.
        """
        at = self.current_time() if now is None else now
        return self._kernel_hosting(query.at).queries.issue(query, now=at)

    def query(
        self,
        root,
        at: Address,
        mode: str = "online",
        condensed: bool = False,
        authenticated: bool = False,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Issue a provenance query, run it to completion, return its result."""
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

    def __repr__(self) -> str:
        return (
            f"ShardedSimulator(nodes={self.topology.node_count}, "
            f"shards={self.plan.shard_count}, mode={self.shard_mode!r})"
        )
