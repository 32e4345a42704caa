"""Dynamic-network scenario scripts.

The paper's central claim is that network provenance stays correct and
queryable *while the network changes* — soft-state expiry, churn and
misbehaving nodes are the reason provenance exists.  This module strings
the simulator's typed events (:mod:`repro.net.events`) into declarative,
phase-structured **scenario scripts**: each :class:`Phase` schedules its
events — link failures, node churn, fact injection and retraction,
soft-state refresh rounds — timed from the phase start, optionally serves a
provenance-query workload alongside, runs the network to its new
distributed fixpoint, and reports one row of convergence and overhead
metrics.

Three built-in scripts cover the canonical dynamics:

* :func:`link_failure_scenario` — a redundant link fails mid-run; Best-Path
  traffic reroutes once the stale soft state decays and refresh traffic
  re-derives alternatives;
* :func:`churn_scenario` — a node crashes (losing its soft state), the
  network heals around it, and the node later recovers and re-asserts its
  base tuples;
* :func:`retraction_scenario` — a base tuple is withdrawn and everything the
  node derived from it is invalidated, provenance included; anti-delta
  messages chase the remote copies, so the split fixpoint is reached in the
  same phase instead of waiting out soft-state expiry.

Each builder returns a ``(Scenario, Network)`` pair built like any other
run: ``options`` and keyword overrides of :class:`NetOptions` fields on
top of a ``provenance`` preset, as :meth:`Network.build` takes them.

Every scenario is deterministic: the same seed produces the same event
order, phase rows and final fixpoint.  Run from the command line::

    python -m repro.harness.scenarios link-failure --nodes 12
    python -m repro.harness.scenarios all --nodes 8 --seed 1
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.network import Network
from repro.api.options import NetOptions
from repro.engine.tuples import Fact
from repro.net.address import Address
from repro.net.events import (
    FactInjection,
    FactRetraction,
    LinkDown,
    NodeCrash,
    NodeRecover,
    SimulationEvent,
    SoftStateRefresh,
)
from repro.net.kernel import SimulationKernel
from repro.net.stats import NetworkStats, bucket_percentile
from repro.net.topology import Topology, line_topology, random_topology
from repro.queries.best_path import compile_best_path
from repro.queries.reachable import REACHABLE_LOCALIZED
from repro.service.workload import QueryWorkload

#: Soft-state lifetime used by the built-in scenarios (simulated seconds).
DEFAULT_SCENARIO_TTL = 30.0

#: The options the built-in scenarios run under unless the caller passes
#: its own: short keys keep signed scenario runs cheap.  Derive variants
#: with ``SCENARIO_OPTIONS.merged(backend="sharded", shards=2, ...)``.
SCENARIO_OPTIONS = NetOptions(key_bits=128)


# ---------------------------------------------------------------------------
# Scenario structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    """One step of a scenario: dynamics applied, then a run to fixpoint.

    ``gap`` is simulated seconds between the previous phase's completion and
    this phase's start — long gaps let soft state decay before the phase
    observes the network.  ``events`` are the phase's dynamics, each timed
    as an offset from the phase start.  ``workload`` holds the phase open
    under a provenance-query workload whose arrivals open at the phase
    start, so queries race the very churn the phase scripts; the arrivals
    are a pure function of the workload spec and the topology's node list,
    so serial and sharded runs serve identical streams.
    """

    name: str
    events: Tuple[SimulationEvent, ...] = ()
    workload: Optional[QueryWorkload] = None
    gap: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """A named, declarative scenario script."""

    name: str
    description: str
    phases: Tuple[Phase, ...]
    #: Relation whose per-phase global count the report tracks.
    probe_relation: str
    #: Script-specific facts of interest (failed link, crashed node, ...).
    details: Dict[str, object] = field(default_factory=dict)


def _counted(counter: str, per: float = 0.0, gauge: bool = False):
    """A :class:`PhaseRow` column read from the run counter *counter*
    (:meth:`NetworkStats.total`): its growth during the phase, divided by
    *per* when given — or, for a *gauge*, its end-of-phase reading."""
    return field(metadata={"counter": counter, "per": per, "gauge": gauge})


@dataclass(frozen=True)
class PhaseRow:
    """Convergence and overhead metrics for one scenario phase.

    ``query_messages`` / ``query_kilobytes`` itemize the provenance-query
    traffic issued during the phase; it is included in ``messages`` /
    ``kilobytes`` because queries ride the same wire as maintenance.

    The storage-tier columns observe the offline archives:
    ``provenance_bytes_resident`` is the residency gauge *at the end of the
    phase* (with a ``spill_dir`` it stays bounded by the hot tier however
    long the run gets; an in-memory log adds its own bytes), while
    ``provenance_bytes_spilled`` / ``spill_reads`` are per-phase deltas of
    the cumulative counters.
    """

    scenario: str
    phase: str
    start_time: float
    completion_time: float
    converged: bool
    events: int
    messages: int = _counted("total_messages")
    kilobytes: float = _counted("bytes_sent", per=1000.0)
    tuples_sent: int = _counted("tuples_sent")
    messages_lost: int = _counted("messages_lost")
    facts_retracted: int = _counted("facts_retracted")
    probe_facts: int
    query_messages: int = _counted("query_messages_sent")
    query_kilobytes: float = _counted("query_bytes_sent", per=1000.0)
    provenance_bytes_resident: int = _counted("provenance_bytes_resident", gauge=True)
    provenance_bytes_spilled: int = _counted("provenance_bytes_spilled")
    spill_reads: int = _counted("spill_reads")
    #: Service-plane columns (phases with a ``workload``): p95 simulated
    #: latency of the queries that completed during the phase, the phase's
    #: cache hit percentage, and admission denials.  All deltas, zero in
    #: phases that served no queries.
    query_p95_ms: float
    cache_hit_pct: float
    rejected: int = _counted("queries_rejected")
    #: Soft-state dynamics columns: tuples kept alive by an alternative
    #: derivation during a one-fixpoint deletion pass, the anti-delta and
    #: refresh-round wire traffic, and the nodes that re-asserted base
    #: tuples in refresh rounds — all per-phase deltas.
    rederivations: int = _counted("rederivations")
    anti_delta_messages: int = _counted("anti_delta_messages")
    refresh_messages: int = _counted("refresh_messages")
    timer_events: int = _counted("timer_events")

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class ScenarioReport:
    """All phase rows of one scenario run plus the final simulator."""

    scenario: Scenario
    rows: List[PhaseRow]
    simulator: SimulationKernel

    @property
    def converged(self) -> bool:
        return all(row.converged for row in self.rows)

    def row(self, phase: str) -> PhaseRow:
        for row in self.rows:
            if row.phase == phase:
                return row
        raise KeyError(f"no phase {phase!r} in scenario {self.scenario.name!r}")

    def probe_series(self) -> List[Tuple[str, int]]:
        """Per-phase (phase name, probe relation count) pairs."""
        return [(row.phase, row.probe_facts) for row in self.rows]

    def render(self) -> str:
        return render_phase_table(self.rows, title=self.scenario.description)


def render_phase_table(rows: Sequence[PhaseRow], title: str = "") -> str:
    """Aligned text table of phase rows (the sweep-rendering house style)."""
    header = (
        f"{'phase':<12s}{'t_start':>9s}{'t_end':>9s}{'conv':>6s}"
        f"{'events':>8s}{'msgs':>8s}{'kB':>9s}{'lost':>6s}"
        f"{'retract':>8s}{'probe':>7s}{'res_kB':>9s}{'spill':>7s}"
        f"{'p95ms':>8s}{'hit%':>6s}{'rej':>5s}"
        f"{'rederiv':>8s}{'anti':>6s}{'refr':>6s}{'timers':>7s}"
    )
    lines = [title, header] if title else [header]
    for row in rows:
        lines.append(
            f"{row.phase:<12s}{row.start_time:>9.2f}{row.completion_time:>9.2f}"
            f"{'yes' if row.converged else 'NO':>6s}{row.events:>8d}"
            f"{row.messages:>8d}{row.kilobytes:>9.1f}{row.messages_lost:>6d}"
            f"{row.facts_retracted:>8d}{row.probe_facts:>7d}"
            f"{row.provenance_bytes_resident / 1000.0:>9.1f}"
            f"{row.spill_reads:>7d}"
            f"{row.query_p95_ms:>8.2f}{row.cache_hit_pct:>6.1f}"
            f"{row.rejected:>5d}"
            f"{row.rederivations:>8d}{row.anti_delta_messages:>6d}"
            f"{row.refresh_messages:>6d}{row.timer_events:>7d}"
        )
    return "\n".join(lines)


def run_scenario(scenario: Scenario, network) -> ScenarioReport:
    """Play *scenario* on *network*: per phase, schedule events, run to
    fixpoint, sweep residual soft state, and record one metrics row.

    *network* is a :class:`repro.api.Network` (what the scenario builders
    return) or a bare kernel/coordinator (the legacy calling convention).
    """
    simulator = getattr(network, "simulator", network)
    rows: List[PhaseRow] = []
    before, events_before = _snapshot(simulator)
    current = 0.0
    for phase in scenario.phases:
        start = current + phase.gap
        for event in phase.events:
            simulator.schedule(replace(event, time=start + event.time))
        if phase.workload is not None:
            for event in phase.workload.events(simulator.topology.nodes, start):
                simulator.schedule(event)
        converged = simulator.run_until_idle()
        end = max(simulator.current_time(), start)
        simulator.expire_all(end)
        after, events_after = _snapshot(simulator)
        rows.append(
            PhaseRow(
                scenario=scenario.name,
                phase=phase.name,
                start_time=start,
                completion_time=end,
                converged=converged,
                events=events_after - events_before,
                probe_facts=_probe_count(simulator, scenario.probe_relation),
                query_p95_ms=_phase_p95(after, before),
                cache_hit_pct=_phase_hit_pct(after, before),
                **{
                    spec.name: _phase_column(spec.metadata, after, before)
                    for spec in fields(PhaseRow)
                    if "counter" in spec.metadata
                },
            )
        )
        before, events_before = after, events_after
        current = end
    return ScenarioReport(scenario=scenario, rows=rows, simulator=simulator)


def _snapshot(simulator) -> Tuple[NetworkStats, int]:
    """A copy of the run's statistics (the serial kernel's are live) and the
    scheduled-event count."""
    return (
        NetworkStats.merged([simulator.stats]),
        simulator.scheduler.events_scheduled,
    )


def _phase_column(column, after: NetworkStats, before: NetworkStats):
    now = after.total(column["counter"])
    if column["gauge"]:
        return now
    delta = now - before.total(column["counter"])
    return delta / column["per"] if column["per"] else delta


def _phase_p95(after: NetworkStats, before: NetworkStats) -> float:
    """p95 latency (ms) of the queries that completed during one phase."""
    then = before.total("query_latency_buckets")
    delta = {
        bucket: count - then.get(bucket, 0)
        for bucket, count in after.total("query_latency_buckets").items()
        if count - then.get(bucket, 0) > 0
    }
    return bucket_percentile(delta, 0.95)


def _phase_hit_pct(after: NetworkStats, before: NetworkStats) -> float:
    hits = after.total("cache_hits") - before.total("cache_hits")
    misses = after.total("cache_misses") - before.total("cache_misses")
    probes = hits + misses
    return 100.0 * hits / probes if probes else 0.0


def _probe_count(simulator, relation: str) -> int:
    # Both backends expose count_facts; the sharded coordinator answers it
    # without pulling engines out of its worker processes mid-run.
    counter = getattr(simulator, "count_facts", None)
    if counter is not None:
        return counter(relation)
    return sum(
        len(engine.facts(relation)) for engine in simulator.engines.values()
    )


# ---------------------------------------------------------------------------
# Built-in scenario scripts
# ---------------------------------------------------------------------------

def _scenario_network(
    topology: Topology,
    program,
    provenance: Optional[str],
    options: NetOptions,
    ttl: float,
    serving: bool,
    **overrides: object,
) -> Network:
    """Assemble a scenario's network through the facade.

    Everything is soft state: every tuple lives *ttl* simulated seconds and
    the dependency index is kept, so retractions cascade — whatever
    *options* say; keyword *overrides* (``NetOptions`` fields) win over
    both.  With no *provenance* preset a
    scenario runs ``"ndlog"`` — or ``"condensed"`` when it serves queries,
    which need provenance maintained; serving also arms the per-node
    result cache.

    Scenario dynamics — link failures, churn, retraction — cross shard
    boundaries correctly under ``backend="sharded"``: control events
    broadcast to every shard kernel and phase rows come out identical to
    the serial backend's.
    """
    if provenance is None:
        provenance = "condensed" if serving else "ndlog"
    if serving:
        options = options.merged(query_cache=True)
    return Network.build(
        topology=topology,
        program=program,
        provenance=provenance,
        options=options,
        **{"default_ttl": ttl, "track_dependencies": True, **overrides},
    )


def _phase_workload(
    query_rate: float,
    clients: int,
    relation: str,
    seed: int,
    phase_index: int,
    duration: float = 5.0,
) -> Optional[QueryWorkload]:
    """The service-plane workload one scenario phase serves, if any.

    Each phase draws from its own seed (scenario seed offset by phase
    index) so arrival streams differ between phases while remaining
    deterministic — and identical across backends.
    """
    if query_rate <= 0 and clients <= 0:
        return None
    return QueryWorkload(
        rate=query_rate,
        clients=clients,
        duration=duration,
        relation=relation,
        seed=seed * 1000 + phase_index,
    )


def _inject_all(base: Dict[Address, List[Fact]]) -> Tuple[FactInjection, ...]:
    return tuple(
        FactInjection(time=0.0, address=address, facts=tuple(facts))
        for address, facts in base.items()
        if facts
    )


def _reachable_compiled():
    from repro.datalog import localize_program, parse_program
    from repro.datalog.planner import compile_program

    return compile_program(localize_program(parse_program(REACHABLE_LOCALIZED)))


def link_failure_scenario(
    node_count: int = 12,
    seed: int = 0,
    ttl: float = DEFAULT_SCENARIO_TTL,
    options: NetOptions = SCENARIO_OPTIONS,
    query_rate: float = 0.0,
    clients: int = 0,
    provenance: Optional[str] = None,
    **overrides,
) -> Tuple[Scenario, Network]:
    """Best-Path under a mid-run link failure: decay, refresh, reroute.

    A redundant link (its loss keeps the topology strongly connected) fails
    after convergence; the source retracts its ``link`` tuple, cascading
    invalidation through the paths derived from it, while other nodes' stale
    best paths decay by TTL and the refresh round re-derives alternatives —
    the repaired fixpoint routes around the failure.
    """
    topology = random_topology(node_count, seed=seed)
    redundant = topology.redundant_links()
    if not redundant:
        raise ValueError(
            f"topology(N={node_count}, seed={seed}) has no redundant link to fail"
        )
    failed = redundant[0]
    serving = query_rate > 0 or clients > 0
    network = _scenario_network(
        topology, compile_best_path(), provenance, options, ttl, serving,
        **overrides,
    )
    base = network.link_facts()

    def workload(phase_index: int) -> Optional[QueryWorkload]:
        return _phase_workload(
            query_rate, clients, "bestPath", seed, phase_index
        )

    scenario = Scenario(
        name="link-failure",
        description=(
            f"Best-Path N={node_count}: link {failed.source}->"
            f"{failed.destination} fails mid-run, traffic reroutes"
        ),
        probe_relation="bestPath",
        details={"failed_link": (failed.source, failed.destination)},
        phases=(
            Phase(name="converge", events=_inject_all(base)),
            # The failure strikes *fresh* state: the source retracts its
            # live link tuple (cascading through the paths it derived) and
            # the refresh round's traffic on the dead wire is lost.
            Phase(
                name="fail",
                gap=1.0,
                events=(
                    LinkDown(
                        time=0.0,
                        source=failed.source,
                        destination=failed.destination,
                    ),
                    SoftStateRefresh(time=0.0),
                ),
                workload=workload(1),
            ),
            # One TTL later the stale remote best paths have decayed; the
            # refreshed fixpoint routes around the failure.
            Phase(
                name="reroute",
                gap=ttl + 1.0,
                events=(SoftStateRefresh(time=0.0),),
                workload=workload(2),
            ),
        ),
    )
    return scenario, network


def churn_scenario(
    node_count: int = 10,
    seed: int = 0,
    ttl: float = DEFAULT_SCENARIO_TTL,
    options: NetOptions = SCENARIO_OPTIONS,
    query_rate: float = 0.0,
    clients: int = 0,
    provenance: Optional[str] = None,
    **overrides,
) -> Tuple[Scenario, Network]:
    """Reachability under node churn with soft-state repair.

    A node crashes (losing all its soft state); the facts it advertised
    decay from its neighbours by TTL, so the healed fixpoint excludes routes
    through it.  When it recovers it re-asserts its base tuples and the next
    refresh round restores full reachability.
    """
    topology = random_topology(node_count, seed=seed)
    # Crash the highest-degree node: the most interesting loss of transit.
    victim = max(
        topology.nodes, key=lambda node: (len(topology.outgoing(node)), node)
    )
    serving = query_rate > 0 or clients > 0
    network = _scenario_network(
        topology, _reachable_compiled(), provenance, options, ttl, serving,
        **overrides,
    )
    base = network.link_facts()

    def workload(phase_index: int) -> Optional[QueryWorkload]:
        return _phase_workload(
            query_rate, clients, "reachable", seed, phase_index
        )

    scenario = Scenario(
        name="churn",
        description=(
            f"Reachability N={node_count}: node {victim} crashes, "
            "the network heals, the node recovers"
        ),
        probe_relation="reachable",
        details={"crashed_node": victim},
        phases=(
            Phase(name="converge", events=_inject_all(base)),
            Phase(
                name="crash",
                gap=1.0,
                events=(NodeCrash(time=0.0, address=victim),),
                workload=workload(1),
            ),
            Phase(
                name="heal",
                gap=ttl + 1.0,
                events=(SoftStateRefresh(time=0.0),),
                workload=workload(2),
            ),
            Phase(
                name="recover",
                gap=1.0,
                events=(
                    NodeRecover(time=0.0, address=victim),
                    SoftStateRefresh(time=0.0),
                ),
                workload=workload(3),
            ),
        ),
    )
    return scenario, network


def retraction_scenario(
    node_count: int = 6,
    seed: int = 0,
    ttl: float = DEFAULT_SCENARIO_TTL,
    options: NetOptions = SCENARIO_OPTIONS,
    query_rate: float = 0.0,
    clients: int = 0,
    provenance: str = "condensed",
    **overrides,
) -> Tuple[Scenario, Network]:
    """Fact retraction under one-fixpoint deletions.

    On a line topology the middle link is a bridge: retracting its two base
    ``link`` tuples splits reachability into the two segments.  The
    retracting nodes prune the tuples out of every base-support polynomial
    they feed, delete what zeroed out (condensed provenance included), and
    chase the remote copies with anti-delta messages — the split fixpoint
    is reached *inside the retract phase*, without waiting for soft state
    to decay by TTL.  The closing refresh round is a stability check: it
    re-asserts what the smaller network still supports and must not change
    the probe count.

    ``rederivation=False`` (a ``NetOptions`` override) restores the
    paper's original decay story: remote copies linger until their TTL
    lapses, so the same script's retract phase still shows the full
    pre-split count.
    """
    if node_count < 4:
        raise ValueError("retraction scenario needs at least 4 nodes")
    topology = line_topology(node_count)
    left = topology.nodes[node_count // 2 - 1]
    right = topology.nodes[node_count // 2]
    retracted = (
        (left, Fact("link", (left, right))),
        (right, Fact("link", (right, left))),
    )
    overrides.setdefault("rederivation", True)
    serving = query_rate > 0 or clients > 0
    network = _scenario_network(
        topology, _reachable_compiled(), provenance, options, ttl, serving,
        **overrides,
    )
    base = network.link_facts()

    def workload(phase_index: int) -> Optional[QueryWorkload]:
        return _phase_workload(
            query_rate, clients, "reachable", seed, phase_index
        )

    scenario = Scenario(
        name="retraction",
        description=(
            f"Reachability on a {node_count}-node line: the bridge "
            f"{left}<->{right} is retracted, repaired in one fixpoint"
        ),
        probe_relation="reachable",
        details={"retracted": retracted, "bridge": (left, right)},
        phases=(
            Phase(name="converge", events=_inject_all(base)),
            # The anti-delta flood converges to the split network in this
            # same phase — no TTL gap between cause and observation.
            Phase(
                name="retract",
                gap=1.0,
                events=tuple(
                    FactRetraction(time=0.0, address=address, facts=(fact,))
                    for address, fact in retracted
                ),
                workload=workload(1),
            ),
            # Quiescence check: a refresh round over the already-repaired
            # fixpoint re-asserts live state and re-derives nothing new.
            Phase(
                name="refresh",
                gap=2.0,
                events=(SoftStateRefresh(time=0.0),),
                workload=workload(2),
            ),
        ),
    )
    return scenario, network


#: The built-in scenario scripts, by CLI name.
SCENARIOS: Dict[str, Callable[..., Tuple[Scenario, Network]]] = {
    "link-failure": link_failure_scenario,
    "churn": churn_scenario,
    "retraction": retraction_scenario,
}


# ---------------------------------------------------------------------------
# Command-line entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run dynamic-network scenario scripts."
    )
    parser.add_argument(
        "scenario",
        choices=tuple(SCENARIOS) + ("all",),
        help="which scenario script to run",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="topology size (script default)"
    )
    parser.add_argument("--seed", type=int, default=0, help="topology seed")
    parser.add_argument(
        "--ttl",
        type=float,
        default=DEFAULT_SCENARIO_TTL,
        help="soft-state lifetime in simulated seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "sharded"),
        default="serial",
        help="execution backend (sharded = parallel per-shard kernels; "
        "identical phase rows and fixpoints)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="shard count for --backend sharded (0 = one per core, max 4)",
    )
    parser.add_argument(
        "--shard-mode",
        choices=("processes", "inline"),
        default="processes",
        help="run shards in worker processes or in-process (debugging)",
    )
    parser.add_argument(
        "--query-rate",
        type=float,
        default=0.0,
        help="open-loop provenance-query arrivals per simulated second "
        "served during every post-convergence phase (0 = no query load); "
        "arms the per-node result cache",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=0,
        help="closed-loop query clients pinned to nodes, each issuing a "
        "new query one think-time after its last answer",
    )
    parser.add_argument(
        "--admission",
        type=float,
        default=0.0,
        help="per-node admission-control rate in queries per simulated "
        "second (0 = admit everything)",
    )
    arguments = parser.parse_args(argv)

    try:
        options = SCENARIO_OPTIONS.merged(
            backend=arguments.backend,
            shards=arguments.shards,
            shard_mode=arguments.shard_mode,
            admission_rate=arguments.admission,
        )
    except ValueError as exc:
        parser.error(str(exc))
    names = tuple(SCENARIOS) if arguments.scenario == "all" else (arguments.scenario,)
    failures = 0
    for name in names:
        build = SCENARIOS[name]
        kwargs: Dict[str, object] = {
            "seed": arguments.seed,
            "ttl": arguments.ttl,
            "options": options,
            "query_rate": arguments.query_rate,
            "clients": arguments.clients,
        }
        if arguments.nodes is not None:
            kwargs["node_count"] = arguments.nodes
        try:
            scenario, network = build(**kwargs)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"running scenario {name} ...", file=sys.stderr, flush=True)
        report = run_scenario(scenario, network)
        print(report.render())
        print()
        if not report.converged:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
