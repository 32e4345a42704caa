"""Distributed provenance (Section 4.1).

Under distributed provenance each node stores only *pointers*: for every
locally derived tuple it records which rule fired and which antecedent tuples
it consumed, remembering for each antecedent the node where that tuple's own
provenance lives.  Nothing extra is shipped with the tuples themselves, so
there is no communication overhead during normal operation; reconstructing a
derivation requires a recursive *traceback query* that walks the pointers
across nodes — the analogue of IP traceback the paper draws.

The :class:`DistributedProvenanceStore` is the per-node pointer table, and
:func:`traceback` is the distributed query: given a resolver that can reach
other nodes' stores (in the simulator, a dictionary of stores; over a real
network, an RPC), it rebuilds the same :class:`DerivationGraph` that local
provenance would have kept, while counting how many remote store lookups
(messages) the reconstruction needed — the cost that experiment E6 compares
against local provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.engine.tuples import Derivation, Fact, FactKey
from repro.provenance.graph import DerivationGraph, DerivationNode, OperatorNode


@dataclass(frozen=True)
class ProvenancePointer:
    """One recorded rule firing: output derived from inputs located elsewhere.

    ``inputs`` pairs each antecedent's key with the node that stores that
    antecedent's own provenance (``None`` for base tuples local to this node).
    """

    output: FactKey
    rule_label: str
    node: str
    inputs: Tuple[Tuple[FactKey, Optional[str]], ...]
    timestamp: float = 0.0


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


class DistributedProvenanceStore:
    """Per-node pointer table for distributed provenance."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._pointers: Dict[FactKey, List[ProvenancePointer]] = {}
        self._base: Set[FactKey] = set()
        self._remote_origin: Dict[FactKey, str] = {}

    # -- recording -------------------------------------------------------------

    def record_base(self, fact: Fact) -> None:
        """Record that *fact* is a base input tuple at this node."""
        self._base.add(fact.key())

    def record_remote(self, fact: Fact, origin: Optional[str]) -> None:
        """Record that *fact* arrived from *origin*, which holds its provenance."""
        if origin is not None and origin != self.node:
            self._remote_origin[fact.key()] = origin

    def record_derivation(self, derivation: Derivation) -> ProvenancePointer:
        """Record a local rule firing as a pointer entry."""
        inputs = []
        for antecedent in derivation.antecedents:
            key = antecedent.key()
            origin = self._remote_origin.get(key)
            inputs.append((key, origin))
        pointer = ProvenancePointer(
            output=derivation.fact.key(),
            rule_label=derivation.rule_label,
            node=self.node,
            inputs=tuple(inputs),
            timestamp=derivation.timestamp,
        )
        self._pointers.setdefault(pointer.output, []).append(pointer)
        return pointer

    def invalidate(self, key: FactKey) -> bool:
        """Drop every pointer entry for *key* (its tuple was retracted).

        A later :func:`traceback` through this node reports the key as
        missing instead of replaying stale derivations.  Returns True when
        the store had entries for the key.
        """
        had_pointers = self._pointers.pop(key, None) is not None
        was_base = key in self._base
        self._base.discard(key)
        self._remote_origin.pop(key, None)
        return had_pointers or was_base

    # -- local queries -----------------------------------------------------------

    def pointers(self, key: FactKey) -> Tuple[ProvenancePointer, ...]:
        return tuple(self._pointers.get(key, ()))

    def is_base(self, key: FactKey) -> bool:
        return key in self._base

    def knows(self, key: FactKey) -> bool:
        return key in self._pointers or key in self._base

    def storage_overhead(self) -> int:
        """Number of pointer entries stored at this node (E6's storage metric)."""
        return sum(len(pointers) for pointers in self._pointers.values()) + len(self._base)

    def keys(self) -> Tuple[FactKey, ...]:
        return tuple(self._pointers) + tuple(self._base)


Resolver = Callable[[str], Optional[DistributedProvenanceStore]]


def traceback(
    root: FactKey,
    start_node: str,
    resolver: Resolver,
    max_depth: int = 10_000,
) -> TracebackResult:
    """Reconstruct the derivation graph of *root* by walking pointers across nodes.

    ``resolver`` maps a node name to its :class:`DistributedProvenanceStore`
    (or ``None`` if unreachable).  ``remote_lookups`` counts one lookup per
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
            graph.add_operator(
                OperatorNode(
                    rule_label=pointer.rule_label,
                    location=pointer.node,
                    output=key,
                    inputs=tuple(input_key for input_key, _ in pointer.inputs),
                    timestamp=pointer.timestamp,
                )
            )
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
