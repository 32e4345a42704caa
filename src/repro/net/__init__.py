"""Simulated distributed substrate.

The paper's evaluation ran up to 100 P2 processes on one machine; this
package provides the equivalent: a deterministic discrete-event simulator in
which every node runs a full NDlog/SeNDlog engine, messages carry serialized
tuples (plus their security envelope and provenance annotations), and the
harness measures the two metrics of Section 6 — distributed-fixpoint
completion time under a per-node CPU cost model, and total bandwidth across
all nodes.

The package exports the serial backend.  The sharded backend
(``ShardedSimulator``, ``ShardPlan``, ``partition_topology``) lives in
:mod:`repro.net.sharding`, imported from there: it pulls in
``multiprocessing`` and the frame codec, so it loads on the first sharded
build (``Network.build(backend="sharded")``) and a serial run never loads it.
"""

from repro.net.address import Address, node_name
from repro.net.events import (
    EventScheduler,
    FactInjection,
    FactRetraction,
    LinkDown,
    LinkUp,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
    QueryTimeout,
    SimulationEvent,
    SoftStateRefresh,
)
from repro.net.message import MessageBatch, QueryRequest, QueryResponse
from repro.net.link import Link
from repro.net.query import (
    PendingQuery,
    ProvenanceQuery,
    QueryEngine,
    QueryResult,
)
from repro.net.topology import Topology, grid_topology, line_topology, random_topology, ring_topology
from repro.net.stats import NetworkStats, NodeStats
from repro.net.kernel import CostModel, KernelOptions, SimulationKernel, SimulationResult

__all__ = [
    "Address",
    "CostModel",
    "EventScheduler",
    "FactInjection",
    "FactRetraction",
    "KernelOptions",
    "Link",
    "LinkDown",
    "LinkUp",
    "MessageBatch",
    "MessageDelivery",
    "NetworkStats",
    "NodeCrash",
    "NodeRecover",
    "NodeStats",
    "PendingQuery",
    "ProvenanceQuery",
    "QueryEngine",
    "QueryRequest",
    "QueryResponse",
    "QueryResult",
    "QueryTimeout",
    "SimulationEvent",
    "SimulationKernel",
    "SimulationResult",
    "SoftStateRefresh",
    "Topology",
    "grid_topology",
    "line_topology",
    "node_name",
    "random_topology",
    "ring_topology",
]
