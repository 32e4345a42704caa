"""Distributed provenance (Section 4.1).

Under distributed provenance each node stores only *pointers*: for every
locally derived tuple it records which rule fired and which antecedent tuples
it consumed, remembering for each antecedent the node where that tuple's own
provenance lives.  Nothing extra is shipped with the tuples themselves, so
there is no communication overhead during normal operation; reconstructing a
derivation requires a recursive *traceback query* that walks the pointers
across nodes — the analogue of IP traceback the paper draws.

The per-node pointer table is the node's
:class:`~repro.provenance.log.DerivationLog`, and :func:`traceback` is the
distributed query: given a resolver that can reach other nodes' logs (in the
simulator, a dictionary of logs; over a real network, an RPC), it rebuilds
the same :class:`DerivationGraph` that local provenance would have kept,
while counting how many remote lookups (messages) the reconstruction needed —
the cost that experiment E6 compares against local provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.engine.tuples import FactKey
from repro.provenance.graph import DerivationGraph, DerivationNode
from repro.provenance.log import DerivationLog


@dataclass
class TracebackResult:
    """Result of a distributed provenance reconstruction."""

    root: FactKey
    graph: DerivationGraph
    nodes_visited: Tuple[str, ...]
    remote_lookups: int
    missing: Tuple[FactKey, ...]

    @property
    def complete(self) -> bool:
        return not self.missing


Resolver = Callable[[str], Optional[DerivationLog]]


def traceback(
    root: FactKey,
    start_node: str,
    resolver: Resolver,
    max_depth: int = 10_000,
) -> TracebackResult:
    """Reconstruct the derivation graph of *root* by walking pointers across nodes.

    ``resolver`` maps a node name to its :class:`DerivationLog` (or ``None``
    if unreachable).  ``remote_lookups`` counts one lookup per
    *remote pointer dereference* — every time following a pointer input
    requires consulting a store on a different node than the one holding the
    pointer, including dereferences that fail because the target store is
    unreachable (the request was still sent).  ``nodes_visited`` lists only
    nodes whose store actually answered.

    This function resolves stores directly (a Python call, not a simulated
    message): it is the *zero-cost oracle* against which the in-network
    query engine (:mod:`repro.net.query`) is validated — on a static
    topology the engine must reconstruct a graph with the same structure
    while additionally paying per-message byte and latency costs.
    """
    graph = DerivationGraph()
    visited_nodes: List[str] = []
    missing: List[FactKey] = []
    remote_lookups = 0
    seen: Set[Tuple[FactKey, str]] = set()

    def visit(key: FactKey, node_name: str, depth: int, via_remote: bool) -> None:
        nonlocal remote_lookups
        if depth > max_depth or (key, node_name) in seen:
            return
        seen.add((key, node_name))
        if via_remote:
            # One remote pointer dereference = one lookup message, whether
            # or not the target store turns out to be reachable.
            remote_lookups += 1
        store = resolver(node_name)
        if store is None:
            missing.append(key)
            return
        if node_name not in visited_nodes:
            visited_nodes.append(node_name)
        graph.add_tuple(DerivationNode(key=key, location=node_name))
        if store.is_base(key):
            return
        pointers = store.pointers(key)
        if not pointers:
            missing.append(key)
            return
        for pointer in pointers:
            graph.add_operator(pointer.operator())
            for input_key, origin in pointer.inputs:
                next_node = origin or node_name
                visit(input_key, next_node, depth + 1, next_node != node_name)

    visit(root, start_node, 0, False)
    return TracebackResult(
        root=root,
        graph=graph,
        nodes_visited=tuple(visited_nodes),
        remote_lookups=remote_lookups,
        missing=tuple(missing),
    )
