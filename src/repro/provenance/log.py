"""The per-node derivation log: every live provenance view reads this.

A rule firing is recorded **once**, as a frozen :class:`ProvenancePointer`
(output key, rule, node, inputs paired with the node holding each input's own
provenance, timestamp) appended under its output key: the engine finds each
firing once (:meth:`~repro.engine.node_engine.NodeEngine._drain`), and the
log filters nothing.  Beside the firings the log keeps what the views need
and nothing else: which keys are base inputs (insertion-ordered), which node
each received key came from, the tuple metadata of Figure 2 (first writer
wins), the condensed annotation per key (Section 4.4), and — under
``track_dependencies`` — the antecedent → outputs index the retraction
cascade walks.

Nothing here is a graph.  :class:`~repro.provenance.graph.DerivationGraph`
and :class:`~repro.provenance.graph.OperatorNode` are *views*, built on read
by :func:`derivation_graph` over anything that answers ``pointers(key)`` —
this log, the offline archives, the forensic investigator's union of
archives — and by the traceback / query walkers, all through the one
pointer → operator conversion :meth:`ProvenancePointer.operator`.

Lifecycle: the log vouches for exactly the keys that are currently valid —
:meth:`DerivationLog.invalidate` forgets a retracted key and a node crash
replaces the whole log — which makes it the paper's *online* store; the
append-only *offline* history lives in :mod:`repro.provenance.store`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.tuples import Fact, FactKey
from repro.provenance.graph import DerivationGraph, DerivationNode, OperatorNode
from repro.provenance.polynomial import ProvenanceExpression, join_all, p_var


@dataclass(frozen=True, slots=True)
class ProvenancePointer:
    """One recorded rule firing: output derived from inputs located elsewhere.

    ``inputs`` pairs each antecedent's key with the node that stores that
    antecedent's own provenance (``None`` for tuples local to this node).
    """

    output: FactKey
    rule_label: str
    node: str
    inputs: Tuple[Tuple[FactKey, Optional[str]], ...]
    timestamp: float = 0.0

    def operator(self) -> OperatorNode:
        """This firing as a derivation-graph operator node."""
        return OperatorNode(
            rule_label=self.rule_label,
            location=self.node,
            output=self.output,
            inputs=tuple(key for key, _ in self.inputs),
            timestamp=self.timestamp,
        )


def derivation_graph(source, root: FactKey, tuple_node=None) -> DerivationGraph:
    """The derivation graph of everything reachable from *root* in *source*.

    *source* answers ``pointers(key)``.  A source that keeps tuple metadata
    (the live log) passes its ``tuple_node`` lookup and the graph carries
    exactly the tuple nodes it knows; one that does not (the archives) gets
    the placeholder nodes :meth:`DerivationGraph.add_operator` fills in.
    """
    graph = DerivationGraph()
    seen: set = set()
    stack = [root]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        if tuple_node is not None:
            node = tuple_node(key)
            if node is not None:
                graph.add_tuple(node)
        for pointer in source.pointers(key):
            graph.add_operator(pointer.operator(), placeholders=tuple_node is None)
            stack.extend(input_key for input_key, _ in pointer.inputs)
    return graph


class DerivationLog:
    """One node's live provenance: firings, base keys, origins, annotations."""

    def __init__(self, node: str, track_dependencies: bool = False) -> None:
        self.node = node
        self.track_dependencies = track_dependencies
        self._pointers: Dict[FactKey, List[ProvenancePointer]] = {}
        self._base: Dict[FactKey, None] = {}
        self._remote_origin: Dict[FactKey, str] = {}
        self._tuples: Dict[FactKey, DerivationNode] = {}
        self._condensed: Dict[FactKey, ProvenanceExpression] = {}
        #: Antecedent key -> ordered set of keys derived from it at this node
        #: (filled only under ``track_dependencies``).
        self._dependents: Dict[FactKey, Dict[FactKey, None]] = {}

    # -- recording -------------------------------------------------------------

    def record_base(self, fact: Fact, source: Optional[str] = None) -> None:
        """Record a base (input) fact asserted at this node."""
        key = fact.key()
        if key not in self._tuples:
            self._tuples[key] = _tuple_node(key, fact, self.node)
        self._base[key] = None
        self._absorb(key, p_var(source or fact.asserted_by or self.node))

    def record_remote(
        self, fact: Fact, annotation: Optional[ProvenanceExpression] = None
    ) -> None:
        """Record a tuple that arrived from ``fact.origin``, which holds its
        provenance.

        *annotation* is the condensed expression that travelled with it; a
        tuple shipped without one is annotated with its asserting principal.
        """
        key = fact.key()
        if key not in self._tuples:
            self._tuples[key] = _tuple_node(key, fact, None)
        if fact.origin is not None and fact.origin != self.node:
            self._remote_origin[key] = fact.origin
        if annotation is None:
            annotation = p_var(fact.asserted_by or fact.origin or "unknown")
        self._absorb(key, annotation)

    def append(
        self,
        pointer: ProvenancePointer,
        ttl: Optional[float],
        antecedents: Sequence[Fact],
    ) -> ProvenanceExpression:
        """Record one local rule firing; return the derived tuple's annotation.

        The derived tuple, ``pointer.output``, was made here at
        ``pointer.timestamp`` to live *ttl*, unattributed: its tuple
        metadata if the log has not seen it.  *antecedents* are the tuples
        ``pointer.inputs`` names, in the same order; they supply tuple
        metadata for input keys the log has not seen.
        """
        key = pointer.output
        input_keys = [input_key for input_key, _ in pointer.inputs]
        tuples = self._tuples
        if key not in tuples:
            tuples[key] = DerivationNode(
                key, self.node, timestamp=pointer.timestamp, ttl=ttl
            )
        for input_key, antecedent in zip(input_keys, antecedents):
            if input_key not in tuples:
                tuples[input_key] = _tuple_node(input_key, antecedent, None)
        self._pointers.setdefault(key, []).append(pointer)
        if self.track_dependencies:
            self.depend(key, input_keys)
        joined = join_all(map(self.annotation, input_keys))
        return self._absorb(key, joined)

    def depend(self, output: FactKey, inputs: Iterable[FactKey]) -> None:
        """Index *output* under each of *inputs* for retraction cascades.

        Every recorded support edge is kept (a tuple with several derivations
        is indexed under all of them): the cascade over-deletes, and
        re-derivation happens through refresh traffic — standard DRed split.
        """
        dependents = self._dependents
        for key in inputs:
            if key == output:
                continue
            bucket = dependents.get(key)
            if bucket is None:
                bucket = dependents[key] = {}
            bucket[output] = None

    def invalidate(self, key: FactKey) -> None:
        """Stop vouching for *key* (its tuple was retracted).

        Forgets its firings, base mark, origin, tuple metadata and
        annotation: ``annotation`` falls back to the identity default, a
        traceback through this node reports the key missing, and a later
        identical re-derivation is recorded afresh.  The dependents index
        keeps its edges — the cascade consumes them with
        :meth:`pop_dependents` and invalidates each downstream tuple itself.
        """
        self._pointers.pop(key, None)
        self._base.pop(key, None)
        self._remote_origin.pop(key, None)
        self._tuples.pop(key, None)
        self._condensed.pop(key, None)

    def pop_dependents(self, key: FactKey) -> Tuple[FactKey, ...]:
        """Remove and return the keys whose derivations used *key*."""
        return tuple(self._dependents.pop(key, ()))

    # -- reads -----------------------------------------------------------------

    def pointers(self, key: FactKey) -> Tuple[ProvenancePointer, ...]:
        return tuple(self._pointers.get(key, ()))

    def is_base(self, key: FactKey) -> bool:
        return key in self._base

    def origin_of(self, key: FactKey) -> Optional[str]:
        """The node holding *key*'s provenance, when it arrived from elsewhere."""
        return self._remote_origin.get(key)

    def knows(self, key: FactKey) -> bool:
        """True when the log actually recorded provenance for *key*.

        ``annotation`` falls back to an identity variable for unknown keys;
        callers that must distinguish a real annotation from that fallback
        (e.g. the in-network query plane deciding whether to ship one) check
        here first.
        """
        return key in self._condensed or key in self._tuples

    def tuple_node(self, key: FactKey) -> Optional[DerivationNode]:
        return self._tuples.get(key)

    def dependents_of(self, key: FactKey) -> Tuple[FactKey, ...]:
        """Keys whose derivations used *key* (candidates for cascade deletion)."""
        return tuple(self._dependents.get(key, ()))

    def annotation(self, key: FactKey) -> ProvenanceExpression:
        """Condensed annotation of *key*; unknown keys map to their own identity."""
        existing = self._condensed.get(key)
        if existing is not None:
            return existing
        node = self._tuples.get(key)
        if node is not None and node.asserted_by:
            return p_var(node.asserted_by)
        relation, values = key
        rendered = ",".join(str(v) for v in values)
        return p_var(f"{relation}({rendered})")

    def graph(self, root: FactKey) -> DerivationGraph:
        """The local derivation graph rooted at *root* (Figure 1), built now."""
        return derivation_graph(self, root, self._tuples.get)

    def storage_overhead(self) -> int:
        """Number of pointer entries stored at this node (E6's storage metric)."""
        return sum(len(pointers) for pointers in self._pointers.values()) + len(
            self._base
        )

    def keys(self) -> Tuple[FactKey, ...]:
        """Derived keys, then base keys, each in recording order."""
        return tuple(self._pointers) + tuple(self._base)

    # -- internals -------------------------------------------------------------

    def _absorb(self, key: FactKey, annotation: ProvenanceExpression) -> ProvenanceExpression:
        existing = self._condensed.get(key)
        merged = annotation if existing is None else existing.absorb(annotation)
        if merged is not existing:
            self._condensed[key] = merged
        return merged


def _tuple_node(key: FactKey, fact: Fact, location: Optional[str]) -> DerivationNode:
    return DerivationNode(
        key=key,
        location=location or fact.origin,
        asserted_by=fact.asserted_by,
        timestamp=fact.timestamp,
        ttl=fact.ttl,
    )
