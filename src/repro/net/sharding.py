"""The sharded execution backend: parallel per-shard kernels.

The serial backend replays a distributed system one event at a time; this
module partitions the topology into K shards and runs one
:class:`~repro.net.kernel.SimulationKernel` per shard — in worker processes
forked from the coordinator or in-process for debugging — while keeping the
simulation *exactly* equivalent to the serial schedule:

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

* **Transport**: coordinator↔worker traffic travels over the persistent
  pipes as frames (:mod:`repro.net.transport`), one pickle each: a command
  is the tuple ``(op, *args)``, a reply one value behind a status byte.
  The coordination ledger — ``coordination_rounds``,
  ``coordination_bytes``, ``windows_executed`` — is deterministic (inline
  and process runs agree exactly) and flows through
  :meth:`NetworkStats.summary`.

* **Workers** are forked (``multiprocessing``'s ``fork`` start method):
  each builds its shard kernel from the coordinator's own
  :class:`~repro.datalog.planner.CompiledProgram`, which the fork
  inherits, so no interpreter starts, nothing is re-imported and no
  program is pickled or recompiled.  A worker closes every
  coordinator-side pipe end it inherited, so a coordinator that dies —
  even by ``SIGKILL`` — leaves end-of-file on every worker's pipe and no
  worker outlives it.  The one trade-off: forked workers share the
  coordinator's hash seed, so process runs no longer cross-check the
  frames' hash-seed independence by accident;
  ``tests/test_transport.py::test_frames_do_not_depend_on_the_hash_seed``
  is the explicit check.  A fork copies only the calling thread; the
  program starts no thread, so only an application that runs threads of
  its own must start sharded runs while those threads hold no lock.

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
import random
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.datalog.catalog import Catalog
from repro.datalog.planner import CompiledProgram
from repro.engine.node_engine import EngineConfig, NodeEngine
from repro.engine.tuples import Fact, FactKey
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
    SimulationEvent,
)
from repro.net.kernel import (
    SHARD_MODES,
    KernelOptions,
    SimulationKernel,
    SimulationResult,
    as_facts,
    shape_link_keys,
)
from repro.net.query import PendingQuery, ProvenanceQuery
from repro.net.stats import NetworkStats, WireMessage
from repro.net.topology import Topology
from repro.net.transport import BinaryCodec


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

#: The one coordination encoding (stateless): every command and every reply
#: is one frame, in both shard modes.
_CODEC = BinaryCodec()

#: The command after which a process worker hands its kernel back and exits.
_FINALIZE_FRAME = _CODEC.encode_frame((_OP_FINALIZE,))


def _flush(kernel: SimulationKernel, batch) -> tuple:
    """A drain prime: schedule stamped control events (often none); reply
    with the next event time, the processed count and any exports made
    between drains."""
    for event, stamp, owned in batch:
        kernel.schedule_stamped(event, stamp, owned)
    return kernel.scheduler.peek_time(), kernel._events_processed, kernel.take_exports()


def _window(kernel: SimulationKernel, horizon: float, imports) -> tuple:
    """A window grant: run to *horizon* with *imports*."""
    exports, next_time, within_budget = kernel.run_window(horizon, imports)
    return next_time, within_budget, kernel._events_processed, exports


def _stats(kernel: SimulationKernel) -> tuple:
    """A kernel's stats snapshot.  Storage-tier gauges live in the engines,
    which never leave a worker mid-run: they are folded in first."""
    kernel.refresh_provenance_stats()
    return (
        kernel.stats,
        kernel.scheduler.events_scheduled,
        kernel._uncounted_scheduled,
        kernel._events_processed,
        kernel.current_time(),
        dict(kernel.query_receipts),
    )


_HANDLERS = {
    _OP_FLUSH: _flush,
    _OP_WINDOW: _window,
    _OP_STATS: _stats,
    _OP_COUNT: SimulationKernel.count_facts,
    _OP_EXPIRE: SimulationKernel.expire_all,
    _OP_FINALIZE: lambda kernel: kernel,
    _OP_SETTLE: SimulationKernel.settle_retractions,
}


class ShardWorkerError(RuntimeError):
    """A shard worker reported a failure, or its process died."""


def _serve_op(kernel: SimulationKernel, frame: bytes) -> bytes:
    """Execute one command frame — ``(op, *args)`` — against *kernel* and
    return the reply frame: a ``0`` status byte, then the op's result.

    Shared verbatim by the process worker loop and the inline wrapper, so
    both modes produce byte-identical frames — which is what makes the
    coordination ledger identical across ``shard_mode`` values.
    """
    op, *args = _CODEC.decode_frame(frame)
    handler = _HANDLERS.get(op)
    if handler is None:
        raise ValueError(f"unknown shard worker op {op!r}")
    return b"\x00" + _CODEC.encode_frame(handler(kernel, *args))


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def _shard_worker_main(conn, inherited, build_kernel, shard: int) -> None:
    """Worker entry point, in a child forked from the coordinator: close the
    *inherited* coordinator-side pipe ends (so the coordinator's death is
    end-of-file here), build the kernel, then serve framed kernel
    operations until closed.  A failing op goes back as a ``1`` status byte
    and its text, and ends the worker.
    """
    for end in inherited:
        end.close()
    kernel = build_kernel(shard)
    kernel.enable_exports()
    while True:
        try:
            frame = conn.recv_bytes()
        except EOFError:
            return  # the coordinator is gone; nothing left to serve
        try:
            reply = _serve_op(kernel, frame)
        except BaseException as error:
            try:
                conn.send_bytes(b"\x01" + f"{type(error).__name__}: {error}".encode())
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            return
        conn.send_bytes(reply)
        if frame == _FINALIZE_FRAME:
            conn.close()
            return


class _WorkerHandle:
    """One forked shard worker and the pipe carrying its request/reply frames.

    A worker that died (killed, crashed interpreter) shows up as ``EOFError``
    or ``OSError`` on the pipe; *abort* — the coordinator's ``close`` — then
    stops every remaining worker and the failure surfaces as one
    :class:`ShardWorkerError` naming the shard, its pid and its exit code.
    A worker that reports a failure (and exits) aborts the same way, with
    the shard and the worker's message in the error.
    """

    def __init__(self, context, build_kernel, shard: int, abort, started) -> None:
        self.shard = shard
        # Held weakly: the coordinator owns this handle, and a reference
        # cycle would defer its __del__ (which stops the workers) to the GC.
        # (The process drops its target and arguments once started.)
        self._abort = weakref.WeakMethod(abort)
        self.connection, child = context.Pipe()
        # The fork inherits this pipe's coordinator end and those of the
        # workers *started* before it: a worker holding one would keep that
        # pipe open after the coordinator died.
        inherited = [worker.connection for worker in started] + [self.connection]
        self.process = context.Process(
            target=_shard_worker_main,
            args=(child, inherited, build_kernel, shard),
            daemon=True,
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
        if frame[:1] == b"\x01":
            self._abort_all()  # the worker exits after a failure reply
            raise ShardWorkerError(
                f"shard {self.shard} worker failed: "
                + frame[1:].decode("utf-8", "replace")
            )
        return frame

    def _abort_all(self) -> None:
        abort = self._abort()
        if abort is not None:
            abort()

    def _died(self, error: Exception) -> ShardWorkerError:
        self.process.join(timeout=5)  # reap, so the exit code is known
        pid, exitcode = self.process.pid, self.process.exitcode
        self._abort_all()
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

    Commands are decoded, served and their replies encoded through the same
    :func:`_serve_op` as a process worker — execution just happens at send
    time, with the reply buffered for the matching ``recv_reply`` — so
    inline runs produce byte-identical frames, and therefore an identical
    coordination ledger, to process runs of the same workload, and no two
    shard kernels ever share an object.  A failing op surfaces at
    ``recv_reply`` as a :class:`ShardWorkerError` whose ``__cause__`` is the
    original exception, traceback and all; ``KeyboardInterrupt`` and
    ``SystemExit`` pass through unchanged.
    """

    def __init__(self, kernel: SimulationKernel, shard: int) -> None:
        self.kernel = kernel
        self.shard = shard
        self._replies: deque = deque()

    def send_command(self, frame: bytes) -> None:
        try:
            reply = _serve_op(self.kernel, frame)
        except Exception as error:
            reply = error
        self._replies.append(reply)

    def recv_reply(self) -> bytes:
        reply = self._replies.popleft()
        if isinstance(reply, Exception):
            raise ShardWorkerError(
                f"shard {self.shard} worker failed: {type(reply).__name__}: {reply}"
            ) from reply
        return reply


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
    ``schedule`` / ``run_until_idle`` / ``run`` / ``finish`` /
    ``issue_query`` / ``stats`` / ``engines`` — so the
    :class:`repro.api.Network` facade, the harness sweeps and the scenario
    scripts drive either backend unchanged.  A query starts on the kernel
    hosting its asking node (``issue_query``); the facade drains it.

    ``shard_mode="processes"`` (the default) runs each kernel in a forked
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
            self._build_kernels()

    def _build_kernel(self, shard: int) -> SimulationKernel:
        """Shard *shard*'s kernel over the coordinator's own compiled program:
        the one construction, for inline kernels and forked workers alike."""
        return SimulationKernel(
            self.topology,
            self.compiled,
            self.config,
            self.options,
            hosted=self.plan.shards[shard],
            primary=(shard == 0),
        )

    def _build_kernels(self) -> None:
        self._kernels = [
            self._build_kernel(shard) for shard in range(self.plan.shard_count)
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
                self._io = [
                    _InlineWorker(kernel, shard)
                    for shard, kernel in enumerate(self._kernels)
                ]
            return
        if self._workers is None:
            # Each worker builds its kernel after the fork, so the shards
            # construct in parallel and Network.build's set-up pays none.
            context = multiprocessing.get_context("fork")
            self._workers = []
            for shard in range(self.plan.shard_count):
                self._workers.append(
                    _WorkerHandle(context, self._build_kernel, shard, self.close, self._workers)
                )
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
        kernels = self._ask_workers(_OP_FINALIZE)
        for worker, kernel in zip(self._workers, kernels):
            kernel.attach_program(self.compiled)
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
        """
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
            # Node-less broadcasts (soft-state refresh): every kernel
            # expands its own hosted nodes; the primary counts the event.
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
        replies = self._exchange(
            [(_OP_FLUSH, buffers.get(shard, [])) for shard in range(len(self._io))]
        )
        for _next_time, _processed, exports in replies:
            self._route_exports(exports)
        return [reply[0] for reply in replies], [reply[1] for reply in replies]

    def _ask_workers(self, *command) -> List[object]:
        """One unbooked round: send every worker *command*, then read every
        reply — so the workers serve it in parallel — outside the ledger."""
        frame = _CODEC.encode_frame(command)
        for worker in self._workers:
            worker.send_command(frame)
        return [_CODEC.decode_frame(worker.recv_reply()[1:]) for worker in self._workers]

    def _exchange(self, commands: List[tuple]) -> List[object]:
        """One booked round: send every shard its command, then read every
        reply — the round and both frames' bytes go on the ledger."""
        for io, command in zip(self._io, commands):
            frame = _CODEC.encode_frame(command)
            self._coordination_rounds += 1
            self._coordination_bytes += len(frame)
            io.send_command(frame)
        replies = []
        for io in self._io:
            raw = io.recv_reply()
            self._coordination_bytes += len(raw)
            replies.append(_CODEC.decode_frame(raw[1:]))
        return replies

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
            commands = [(_OP_WINDOW, horizon, batch) for batch in imports]
            imports[:] = [[] for _ in imports]
            self._windows_executed += len(commands)
            for shard, reply in enumerate(self._exchange(commands)):
                next_times[shard], ok, processed[shard], exports = reply
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
            self._ask_workers(_OP_SETTLE)

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
        injected = base_facts if base_facts is not None else self.link_keys()
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
            # finish() before any drain: build the kernels in-process so
            # the result carries real (empty) engines.
            self._build_kernels()
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
            return [_stats(kernel) for kernel in self._kernels]
        if self._workers is not None:
            return self._ask_workers(_OP_STATS)
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
            self._ask_workers(_OP_EXPIRE, now)

    def count_facts(self, relation: str) -> int:
        """Stored-tuple count of *relation* across all shards."""
        if self._kernels is not None:
            return sum(kernel.count_facts(relation) for kernel in self._kernels)
        if self._workers is not None:
            return sum(self._ask_workers(_OP_COUNT, relation))
        return 0

    # -- workload -----------------------------------------------------------------

    def link_keys(self) -> Dict[Address, List[FactKey]]:
        """The link base tuples implied by the topology, shaped for the
        program, as keys: what :meth:`run` injects by default.

        Same shaping as :meth:`SimulationKernel.link_keys` (via the shared
        :func:`~repro.net.kernel.shape_link_keys`), resolving the link
        relation's arity from the compiled catalog — the coordinator may
        hold no engines while workers run.
        """
        relation = self.options.link_relation
        arity = 3
        if relation in self._catalog:
            arity = self._catalog.schema(relation).arity
        return shape_link_keys(self.topology, relation, arity)

    def link_facts(self) -> Dict[Address, List[Fact]]:
        """:meth:`link_keys` as the application's :class:`Fact` s."""
        return as_facts(self.link_keys())

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

    def __repr__(self) -> str:
        return (
            f"ShardedSimulator(nodes={self.topology.node_count}, "
            f"shards={self.plan.shard_count}, mode={self.shard_mode!r})"
        )
