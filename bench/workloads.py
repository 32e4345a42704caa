"""The five workloads, as the child process runs them.

Each workload body sets a network up through the public API, hands the
timed section to :meth:`Experiment.timed`, and records its op count and
correctness facts.  Nothing here is timed from inside ``repro``: the
clock reads, the profiler and the spans all live on this side.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.api import Network
from repro.net.events import LinkDown, LinkUp
from repro.net.stats import COORDINATION_KEYS
from repro.net.topology import random_topology
from repro.service.workload import QueryWorkload

#: Summary keys a serial and a sharded run of one network may differ in:
#: the coordination ledger, and the cross-node float sum whose last bits
#: depend on summation order.
_BACKEND_KEYS = COORDINATION_KEYS | {"cpu_seconds"}


@dataclass(frozen=True)
class Size:
    nodes: int
    #: Link flaps (churn_linkflap; 0 flaps every redundant link) or simulated
    #: seconds of query arrivals (query_service); unused by the fixpoint
    #: workloads.
    work: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    full: Size
    smoke: Size
    #: The share of ``--seconds`` one experiment (a whole child process) is
    #: given, so the batch depends on the arguments alone.  About what a
    #: child costs, then adjusted: a workload whose topologies differ more
    #: in cost (churn_linkflap) gets more of them a run, one whose differ
    #: less (bestpath_ndlog) fewer.
    experiment_seconds: float
    body: Callable[["Experiment", Size, int], None]


def digest(network_or_result) -> str:
    """sha256 over the sorted ``bestPathCost`` rows.

    Not ``bestPath``: its path column breaks equal-cost ties by arrival
    order and legitimately differs after churn.
    """
    rows = sorted(fact.values for fact in network_or_result.all_facts("bestPathCost"))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _books(stats, now: float) -> Dict[str, float]:
    books = dict(stats.summary())
    books["facts_stored"] = float(
        sum(node.facts_stored for node in stats.nodes.values())
    )
    books["sim_now"] = now
    return books


#: Host seconds one :func:`probe_once` took on the quiet 2-core reference box.
REFERENCE_PROBE_S = 0.027


def probe_once() -> float:
    """Time a fixed pure-Python loop with the program's own instruction mix
    (tuple keys, dict probes, allocation, a sort) and no input at all."""
    start = time.perf_counter()
    table: Dict[tuple, tuple] = {}
    for i in range(110_000):
        key = (i % 811, i % 13)
        row = table.get(key)
        table[key] = (i, 1) if row is None else (row[0] + i, row[1] + 1)
    sorted(table.values())
    return time.perf_counter() - start


def probe() -> float:
    # The median of three: one descheduled probe must not rescale a run.
    return statistics.median(probe_once() for _ in range(3))


class Experiment:
    """One child process's measurement: spans, the timed section, the facts."""

    def __init__(self, spawned_at: float, profile=None) -> None:
        self.spawned_at = spawned_at
        #: A ``cProfile.Profile`` in the traced run, else None.
        self.profile = profile
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._owned: List[Network] = []
        self.errors: List[str] = []
        self.out: Dict[str, object] = {}
        # The interpreter start and ``import repro`` ran before this object
        # could exist: their span opens at the parent's spawn time.
        self.spans.append(
            {
                "id": 0,
                "name": "start",
                "parent": None,
                "start": 0.0,
                "end": time.monotonic() - spawned_at,
            }
        )

    # -- spans ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic() - self.spawned_at,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.monotonic() - self.spawned_at

    # -- lifetime ---------------------------------------------------------------

    def own(self, network: Network) -> Network:
        """Close *network*'s simulator (shard workers) when the child ends."""
        self._owned.append(network)
        return network

    def close(self) -> None:
        for network in self._owned:
            closer = getattr(network.simulator, "close", None)
            if closer is not None:
                closer()

    # -- facts ------------------------------------------------------------------

    def expect(self, holds: bool, message: str) -> None:
        if not holds:
            self.errors.append(message)

    def ops(self, done: int, attempted: int) -> None:
        self.out["ops"] = done
        self.out["attempted"] = attempted
        self.out["failed"] = attempted - done

    # -- the timed section ------------------------------------------------------

    def timed(self, network: Network, section: Callable[[], object], events_before: int = 0):
        """Run *section* as the timed section; it returns the ``RunResult``.

        Everything before this call is set-up.  The simulated clock and the
        statistics are read before and after, so workloads that converge in
        set-up report the timed section's share only.
        """
        before = _books(network.stats, network.current_time())
        self.out["setup_s"] = time.monotonic() - self.spawned_at
        with self.span("probe"):
            probe_before = probe()
        with self.span("timed"):
            cpu_start = time.process_time()
            start = time.perf_counter()
            if self.profile is not None:
                result = self.profile.runcall(section)
            else:
                result = section()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        with self.span("probe"):
            probe_s = (probe_before + probe()) / 2.0
        own = resource.getrusage(resource.RUSAGE_SELF)
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        after = _books(result.stats, result.stats.completion_time)
        delta = {key: after[key] - before[key] for key in after}
        self.out.update(
            host_speed=REFERENCE_PROBE_S / probe_s,
            wall_s=wall,
            cpu_s=cpu,
            worker_cpu_s=workers.ru_utime + workers.ru_stime,
            # Largest reaped shard worker rides on top of the coordinator.
            peak_rss_mb=(own.ru_maxrss + workers.ru_maxrss) / 1024.0,
            sim_time_s=delta.pop("sim_now"),
            wire_mb=delta["total_bytes"] / 1e6,
            events=result.events_processed - events_before,
            stats=delta,
            provenance_bytes_resident=after["provenance_bytes_resident"],
        )
        return result


# -- fixpoint workloads ---------------------------------------------------------


def _bestpath(exp: Experiment, size: Size, seed: int, provenance: str, **options):
    with exp.span("build"):
        network = exp.own(
            Network.build(
                topology=size.nodes,
                program="best-path",
                provenance=provenance,
                seed=seed,
                **options,
            )
        )
    result = exp.timed(network, network.run)
    exp.expect(result.converged, "run() did not reach the fixpoint")
    pairs = size.nodes * (size.nodes - 1)
    exp.ops(done=result.count("bestPathCost") if result.converged else 0, attempted=pairs)
    exp.out["digest"] = digest(result)
    return result


def bestpath_ndlog(exp: Experiment, size: Size, seed: int) -> None:
    _bestpath(exp, size, seed, "ndlog")


def bestpath_sendlog_prov(exp: Experiment, size: Size, seed: int) -> None:
    _bestpath(exp, size, seed, "sendlog-prov")


def bestpath_sharded(exp: Experiment, size: Size, seed: int) -> None:
    # The traced run executes the same windows in one process, so the
    # coordinator and both shard kernels land in one profile.
    mode = "processes" if exp.profile is None else "inline"
    result = _bestpath(
        exp, size, seed, "ndlog", backend="sharded", shards=2, shard_mode=mode
    )
    # After the timed section, so neither wall_s nor peak_rss_mb sees it:
    # the serial run of the same network is the reference the sharded
    # backend must match, and its wall is the base of the speedup.
    with exp.span("reference"):
        serial = Network.build(
            topology=size.nodes, program="best-path", provenance="ndlog", seed=seed
        )
        start = time.perf_counter()
        reference = serial.run()
        exp.out["reference_wall_s"] = time.perf_counter() - start
    exp.expect(
        digest(reference) == exp.out["digest"],
        "sharded bestPathCost differs from the serial run's",
    )
    mine, theirs = result.summary(), reference.summary()
    differing = sorted(
        key
        for key in theirs
        if key not in _BACKEND_KEYS and mine[key] != theirs[key]
    )
    exp.expect(not differing, f"sharded statistics differ from serial: {differing}")


# -- churn ----------------------------------------------------------------------


def churn_linkflap(exp: Experiment, size: Size, seed: int) -> None:
    topology = random_topology(size.nodes, seed=seed)
    links = list(topology.redundant_links())
    random.Random(seed + 1).shuffle(links)
    flaps = links[: size.work] if size.work else links
    with exp.span("build"):
        network = exp.own(
            Network.build(
                topology=topology,
                program="best-path",
                provenance="condensed",
                default_ttl=1e6,
                track_dependencies=True,
                rederivation=True,
            )
        )
    with exp.span("converge"):
        converged = network.run()
    exp.expect(converged.converged, "initial convergence failed")
    settled_digest = digest(network)
    settles: List[bool] = []

    def section():
        for link in flaps:
            for event_type in (LinkDown, LinkUp):
                network.schedule(
                    event_type(
                        time=network.current_time() + 1.0,
                        source=link.source,
                        destination=link.destination,
                    )
                )
                with exp.span("settle"):
                    settles.append(network.run_until_idle())
        return network.finish(all(settles))

    exp.timed(network, section, events_before=converged.events_processed)
    exp.ops(done=sum(settles), attempted=2 * len(flaps))
    exp.out["digest"] = digest(network)
    exp.expect(
        exp.out["digest"] == settled_digest,
        "bestPathCost after the flaps differs from the converged state",
    )
    exp.out["settle_ms"] = [
        (span["end"] - span["start"]) * 1e3
        for span in exp.spans
        if span["name"] == "settle"
    ]


# -- query service ----------------------------------------------------------------


def query_service(exp: Experiment, size: Size, seed: int) -> None:
    with exp.span("build"):
        network = exp.own(
            Network.build(
                topology=size.nodes,
                program="best-path",
                provenance="condensed",
                query_cache=True,
                seed=seed,
            )
        )
    with exp.span("converge"):
        converged = network.run()
    exp.expect(converged.converged, "initial convergence failed")
    # Open loop on simulated time: the arrival schedule is fixed before
    # the run and does not slow down with the system.  No admission limit.
    workload = QueryWorkload(rate=100, duration=size.work, seed=seed + 7, pool=64)
    result = exp.timed(
        network,
        lambda: network.serve(workload, converge=False),
        events_before=converged.events_processed,
    )
    report = result.service()
    exp.ops(done=report.completed, attempted=report.offered)
    exp.out["digest"] = digest(result)
    exp.out["service"] = {
        "sim_p50_ms": report.p50_ms,
        "sim_p95_ms": report.p95_ms,
        "rejected": report.rejected,
    }


WORKLOADS = (
    Workload(
        name="bestpath_ndlog",
        op="bestPathCost tuples at fixpoint",
        full=Size(nodes=40),
        smoke=Size(nodes=10),
        experiment_seconds=1.3,
        body=bestpath_ndlog,
    ),
    Workload(
        name="bestpath_sendlog_prov",
        op="bestPathCost tuples at fixpoint",
        full=Size(nodes=25),
        smoke=Size(nodes=10),
        experiment_seconds=1.8,
        body=bestpath_sendlog_prov,
    ),
    Workload(
        name="churn_linkflap",
        op="link events settled",
        full=Size(nodes=20),
        smoke=Size(nodes=12, work=4),
        experiment_seconds=2.0,
        body=churn_linkflap,
    ),
    Workload(
        name="query_service",
        op="queries completed",
        full=Size(nodes=30, work=25),
        smoke=Size(nodes=12, work=2),
        experiment_seconds=3.1,
        body=query_service,
    ),
    Workload(
        name="bestpath_sharded",
        op="bestPathCost tuples at fixpoint",
        full=Size(nodes=40),
        smoke=Size(nodes=10),
        experiment_seconds=2.25,
        body=bestpath_sharded,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}


def traced_calls() -> Dict[str, list]:
    """Per-layer call counters: metric name -> code objects to count."""
    from repro.engine.seminaive import evaluate_plan_with_delta
    from repro.engine.table import Table
    from repro.net.transport import BinaryCodec
    from repro.provenance.polynomial import ProvenanceExpression
    from repro.security import rsa

    codec = [
        getattr(BinaryCodec, name).__code__
        for name in vars(BinaryCodec)
        if name.startswith(("encode_", "decode_"))
    ]
    return {
        "engine.table_inserts": [Table.insert.__code__],
        "engine.table_lookups": [Table.lookup.__code__],
        "engine.delta_evals": [evaluate_plan_with_delta.__code__],
        "provenance.poly_mults": [ProvenanceExpression.__mul__.__code__],
        "provenance.condense_calls": [ProvenanceExpression.condense.__code__],
        "security.signs": [rsa.sign.__code__],
        "security.verifies": [rsa.verify.__code__],
        "net.wire.frames_coded": codec,
    }


def compile_seconds() -> float:
    """Front-end cost from outside: compile and lint the named program."""
    from repro.datalog import check_program
    from repro.queries import compile_named

    start = time.perf_counter()
    compiled = compile_named("best-path")
    check_program(compiled.program, "error", link_relation="link")
    return time.perf_counter() - start
