"""The :class:`Network` facade: one object that builds, runs and queries.

Before this facade, a run meant hand-wiring ``Topology`` +
``CompiledProgram`` + ``EngineConfig`` + keystore into a many-parameter
simulator, and every provenance question went out-of-band through
Python-level resolvers.  ``Network.build`` collapses construction to::

    from repro.api import Network

    network = Network.build(topology=20, program="best-path",
                            provenance="sendlog-prov")
    result = network.run()                 # RunResult
    target = result.all_facts("bestPath")[0]
    answer = network.query(target, at=target.values[0])   # pays real messages

and ``network.query`` is the paper's claim made executable: provenance is
network state, queried *over the network*, with the query traffic itemized
in the same statistics as maintenance traffic.

The facade deliberately stays a thin veneer over the simulator — every
simulator attribute is reachable by delegation, so scenario scripts and
tests written against a bare kernel keep working when handed a ``Network``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.datalog import check_program, localize_program, parse_program
from repro.datalog.planner import CompiledProgram, compile_program
from repro.engine.node_engine import EngineConfig, collect_facts, facts_by_node
from repro.engine.tuples import Fact, FactKey, as_fact_key
from repro.net.address import Address
from repro.net.events import FactInjection, SimulationEvent
from repro.net.kernel import SimulationKernel, SimulationResult
from repro.net.query import PendingQuery, ProvenanceQuery, QueryResult
from repro.net.topology import Topology, random_topology
from repro.queries import PROGRAMS, compile_named
from repro.service.workload import QueryWorkload
from repro.api.options import NetOptions, resolve_preset
from repro.api.results import RunResult

if TYPE_CHECKING:
    from repro.net.sharding import ShardedSimulator

TopologyLike = Union[Topology, int]
ProgramLike = Union[CompiledProgram, str]


def _resolve_topology(topology: TopologyLike, seed: int) -> Topology:
    if isinstance(topology, Topology):
        return topology
    if isinstance(topology, int):
        if topology < 2:
            raise ValueError(f"a network needs at least 2 nodes, got {topology}")
        return random_topology(topology, seed=seed)
    raise TypeError(
        f"topology must be a Topology or a node count, got {type(topology).__name__}"
    )


def _resolve_program(
    program: ProgramLike,
    lint: str = "error",
    link_relation: str = "link",
) -> CompiledProgram:
    """Resolve *program* to a :class:`CompiledProgram`, linting on the way.

    Source text is linted pre-localization (diagnostics carry the author's
    line/column); named and pre-compiled programs are linted in their
    post-localization form, which the analyzer equally accepts.
    """
    if isinstance(program, CompiledProgram):
        check_program(
            program.program, lint, link_relation=link_relation
        )
        return program
    if isinstance(program, str):
        if ":-" in program or "materialize" in program:
            # NDlog source text: parse, lint, localize, compile.
            parsed = parse_program(program)
            check_program(parsed, lint, link_relation=link_relation)
            return compile_program(localize_program(parsed))
        compiled = compile_named(program)
        check_program(
            compiled.program, lint, link_relation=link_relation
        )
        return compiled
    raise TypeError(
        f"program must be a CompiledProgram, a registered name "
        f"({sorted(PROGRAMS)}) or NDlog source text, got {type(program).__name__}"
    )


SimulatorLike = Union[SimulationKernel, "ShardedSimulator"]


class Network:
    """A running declarative network: topology + program + provenance preset."""

    def __init__(
        self,
        simulator: SimulatorLike,
        configuration: str = "custom",
        options: Optional[NetOptions] = None,
    ) -> None:
        self.simulator = simulator
        self.configuration = configuration
        self.options = options or NetOptions()

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        topology: TopologyLike,
        program: ProgramLike = "best-path",
        provenance: str = "sendlog-prov",
        *,
        options: Optional[NetOptions] = None,
        **overrides: object,
    ) -> "Network":
        """Assemble a network from high-level parts: the one way to build a run.

        ``topology`` is a :class:`Topology` or a node count (the paper's
        random workload: out-degree three, drawn from ``seed``); ``program``
        a registered name, NDlog source text or a :class:`CompiledProgram`;
        ``provenance`` a preset from
        :data:`~repro.api.options.PROVENANCE_PRESETS` — the paper's
        ``"ndlog"`` / ``"sendlog"`` / ``"sendlog-prov"`` or another
        maintained representation — which fixes the ``says`` and provenance
        modes.  Every other knob is a :class:`NetOptions` field: pass an
        ``options`` record, keyword overrides of its fields, or both (the
        keywords win).  The engine-side fields (``default_ttl``,
        ``rederivation``, ...) default to the preset's behaviour.

        The execution backend is an option like any other:
        ``backend="serial"`` (the default) replays the run in one event
        loop; ``backend="sharded", shards=K`` partitions the topology into
        K parallel per-shard kernels with deterministic cross-shard
        synchronization — derived facts and all integer/byte statistics
        are identical between backends (floats up to summation order), so
        sharding is purely a wall-clock choice.  ``shard_mode="inline"``
        keeps the shard kernels in-process for debugging.

        The program is statically analyzed before compilation according to
        ``lint`` (``"error"`` — the default — raises
        :class:`~repro.datalog.errors.LintError` on error-severity
        diagnostics; ``"warn"`` turns every diagnostic into a
        :class:`~repro.datalog.diagnostics.LintWarning`; ``"off"`` skips
        the analyzer).
        """
        merged = (options or NetOptions()).merged(**overrides)
        configuration = resolve_preset(provenance)
        engine_config = merged.engine_config(configuration)
        resolved = _resolve_topology(topology, merged.seed)
        compiled = _resolve_program(
            program, lint=merged.lint, link_relation=merged.link_relation
        )
        kernel_options = merged.kernel_options()
        if merged.backend == "sharded":
            # The sharded backend (and with it multiprocessing and the frame
            # codec) loads on the first sharded build only.
            from repro.net.sharding import ShardedSimulator

            simulator = ShardedSimulator(
                resolved,
                compiled,
                engine_config,
                kernel_options,
                shards=merged.resolved_shards(),
                shard_mode=merged.shard_mode,
                shard_seed=merged.seed,
            )
        else:
            simulator = SimulationKernel(
                resolved, compiled, engine_config, kernel_options
            )
        return cls(simulator, configuration=configuration, options=merged)

    # -- delegation ---------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        return self.simulator.topology

    @property
    def engines(self):
        return self.simulator.engines

    @property
    def stats(self):
        # The serial kernel holds its engines in-process: refresh the
        # storage-tier gauges so a mid-run read matches what the sharded
        # coordinator's stats request would report.
        refresh = getattr(self.simulator, "refresh_provenance_stats", None)
        if refresh is not None:
            refresh()
        return self.simulator.stats

    @property
    def scheduler(self):
        return self.simulator.scheduler

    @property
    def config(self) -> EngineConfig:
        return self.simulator.config

    @property
    def node_count(self) -> int:
        return self.simulator.topology.node_count

    def node(self, address: Address):
        """The per-node engine at *address*."""
        return self.simulator.engines[address]

    def __getattr__(self, name: str):
        # Everything else — schedule, run_until_idle, live_base_facts,
        # link_is_up, ... — is the simulator's surface; the facade adds,
        # it does not hide.
        return getattr(self.simulator, name)

    # -- running ------------------------------------------------------------------

    def run(
        self,
        base_facts: Optional[Dict[Address, List[Fact]]] = None,
        start_time: float = 0.0,
    ) -> RunResult:
        """Inject base facts, run to the distributed fixpoint, return the row."""
        outcome = self.simulator.run(base_facts, start_time=start_time)
        return self._wrap(outcome)

    def finish(self, converged: bool = True) -> RunResult:
        """Close the books after phase-structured runs (see ``schedule``)."""
        return self._wrap(self.simulator.finish(converged))

    def serve(
        self,
        workload: QueryWorkload,
        base_facts: Optional[Dict[Address, List[Fact]]] = None,
        *,
        converge: bool = True,
        start_time: float = 0.0,
    ) -> RunResult:
        """Converge the network, then hold it open under *workload*'s queries.

        The serve window opens at the converged network's current simulated
        time; arrivals, admission decisions, cache probes and closed-loop
        follow-ups all play out as first-class simulation events interleaved
        with soft-state refreshes — on either backend, with byte-identical
        integer counters.  The returned :class:`RunResult` carries the
        offered-arrival count and window length, so ``result.service()``
        yields the SLO report (goodput vs offered rate, p50/p95/p99 latency,
        rejection and cache ratios).

        Pass ``converge=False`` to serve an already-running network (base
        facts injected earlier via :meth:`run` phases or :meth:`schedule`).
        """
        if converge:
            injected = base_facts if base_facts is not None else self.simulator.link_keys()
            for address, facts in injected.items():
                self.simulator.schedule(
                    FactInjection(
                        time=start_time, address=address, facts=tuple(facts)
                    )
                )
            self.simulator.run_until_idle()
        # The arrival stream is a pure function of the workload and the
        # node list, so both backends schedule identical arrivals; each one
        # is handled on the kernel hosting its asking node.
        arrivals = workload.events(
            self.simulator.topology.nodes, self.simulator.current_time()
        )
        for event in arrivals:
            self.simulator.schedule(event)
        converged = self.simulator.run_until_idle()
        result = self._wrap(self.simulator.finish(converged))
        result.offered = len(arrivals)
        result.serve_duration = workload.duration
        return result

    def schedule(self, event: SimulationEvent) -> None:
        self.simulator.schedule(event)

    def run_until_idle(self) -> bool:
        return self.simulator.run_until_idle()

    def _wrap(self, outcome: SimulationResult) -> RunResult:
        return RunResult(
            stats=outcome.stats,
            engines=outcome.engines,
            converged=outcome.converged,
            events_processed=outcome.events_processed,
            configuration=self.configuration,
            node_count=self.simulator.topology.node_count,
            seed=self.options.seed,
        )

    # -- provenance queries --------------------------------------------------------

    def query(
        self,
        root: Union[Fact, FactKey],
        at: Optional[Address] = None,
        mode: str = "online",
        condensed: bool = False,
        authenticated: bool = False,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Ask the network where a tuple came from — paying wire costs.

        The traceback compiles into ``QueryRequest`` / ``QueryResponse``
        events on the simulator's scheduler; pointer chasing across nodes
        ships real messages (serialized per link, paying bytes and latency,
        lost on downed links and crashed nodes) and is attributed to the
        ``query_bytes`` / ``query_messages`` statistics category.  When
        ``at`` is omitted, a :class:`Fact` root is queried at its origin.
        """
        if at is None:
            if isinstance(root, Fact) and root.origin is not None:
                at = root.origin
            else:
                raise ValueError(
                    "specify at=<node>: a bare fact key does not say which "
                    "node is asking"
                )
        pending = self.simulator.issue_query(
            ProvenanceQuery(
                root=as_fact_key(root),
                at=at,
                mode=mode,
                condensed=condensed,
                authenticated=authenticated,
                timeout=timeout,
            )
        )
        self.simulator.run_until_idle()
        return pending.result()

    def issue_query(
        self, query: ProvenanceQuery, now: Optional[float] = None
    ) -> PendingQuery:
        """Schedule a query without draining the event loop (mid-scenario use)."""
        return self.simulator.issue_query(query, now=now)

    def legacy_traceback(self, root: Union[Fact, FactKey], at: Address):
        """The zero-cost oracle: the same traceback resolved out-of-band.

        Walks the nodes' derivation logs through direct Python calls (no
        simulated messages), exactly like pre-facade code did.  Kept for
        validation — on static topologies :meth:`query` must reconstruct a
        structurally identical graph.
        """
        from repro.provenance.distributed import traceback

        key = as_fact_key(root)
        logs = {
            address: engine.provenance
            for address, engine in self.simulator.engines.items()
        }
        return traceback(key, at, logs.get)

    # -- inspection ----------------------------------------------------------------

    def facts(self, relation: str) -> Dict[Address, Tuple[Fact, ...]]:
        return facts_by_node(self.simulator.engines, relation)

    def all_facts(self, relation: str) -> Tuple[Fact, ...]:
        return collect_facts(self.simulator.engines, relation)

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.simulator.topology.node_count}, "
            f"configuration={self.configuration!r})"
        )
