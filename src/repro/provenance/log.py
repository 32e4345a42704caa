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

What the log repeats it keeps once.  The log builds each firing's pointer
itself, from the key objects it already holds, so every key is one object
however many firings name it (an invalidated key keeps its object in
``_forgotten`` for the firings that still name it, and takes it back when
recorded again); a key's firings are one tuple, a single firing a tuple of
one, which :meth:`DerivationLog.pointers` hands back as stored.  Annotations
go through one table, ``_kept``: a condensed annotation's ``monomials`` → the
one expression the node keeps for them (:meth:`DerivationLog.share`), so equal
annotations are one object, rendered once, whatever keys, tuples or archive
entries carry them — a received tuple's stored ``Fact.provenance`` too, shared
only once the tuple is admitted, so a refused one enters nothing (an unsigned
tuple with nothing to rebuild is stored as it arrived, with the object its
sender keeps).  Each expression is built on one ``(variable, 1)`` pair per
variable, from ``pairs``: the engine passes the network's table (its principal
registry's), so a principal's pair is one object at every node and an
annotation that arrived as its sender built it needs no copy (one that crossed
a process boundary, in a sharded run, keeps the pairs it was unpickled with);
products and condensations reuse their operands' pairs
(:mod:`repro.provenance.polynomial`).  The annotation table belongs to the
log: it goes with it on a crash, is never pruned on invalidation, and is
bounded by the distinct annotations the node ever held (after
``churn_linkflap`` at seed 0, N=20 with every redundant link flapped: 2 030
entries across the nodes for 1 678 live annotations).

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
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.engine.tuples import Fact, FactKey
from repro.provenance.graph import DerivationGraph, DerivationNode, OperatorNode
from repro.provenance.polynomial import ProvenanceExpression, join_all


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

    def __init__(
        self,
        node: str,
        track_dependencies: bool = False,
        pairs: Optional[Dict[str, Tuple[str, int]]] = None,
    ) -> None:
        self.node = node
        self.track_dependencies = track_dependencies
        #: Output key -> its firings, a tuple (one firing: a tuple of one).
        self._pointers: Dict[FactKey, Tuple[ProvenancePointer, ...]] = {}
        self._base: Dict[FactKey, None] = {}
        self._remote_origin: Dict[FactKey, str] = {}
        self._tuples: Dict[FactKey, DerivationNode] = {}
        self._condensed: Dict[FactKey, ProvenanceExpression] = {}
        #: Antecedent key -> ordered set of keys derived from it at this node
        #: (filled only under ``track_dependencies``).
        self._dependents: Dict[FactKey, Dict[FactKey, None]] = {}
        #: Key -> the log's object for it, while the key is invalidated:
        #: firings still held may name it, and the key recorded again takes
        #: it back.
        self._forgotten: Dict[FactKey, FactKey] = {}
        #: A kept annotation's ``monomials`` -> the one expression the log
        #: keeps for them (see the module docstring).
        self._kept: Dict[tuple, ProvenanceExpression] = {}
        #: Variable -> its one ``(variable, 1)`` pair: the network's table
        #: when the engine passes it, else the log's own.
        self.pairs: Dict[str, Tuple[str, int]] = {} if pairs is None else pairs

    # -- recording -------------------------------------------------------------

    def record_base(self, fact: Fact, source: Optional[str] = None) -> None:
        """Record a base (input) fact asserted at this node."""
        key = self._held(fact.key(), fact, self.node)
        self._base[key] = None
        self._absorb(key, self._var(source or fact.asserted_by or self.node))

    def record_remote(
        self, fact: Fact, annotation: Optional[ProvenanceExpression] = None
    ) -> None:
        """Record a tuple that arrived from ``fact.origin``, which holds its
        provenance.

        *annotation* is the condensed expression that travelled with it (the
        engine passes the copy :meth:`share` keeps); a tuple shipped without
        one is annotated with its asserting principal.
        """
        key = self._held(fact.key(), fact, None)
        if fact.origin is not None and fact.origin != self.node:
            self._remote_origin[key] = fact.origin
        if annotation is None:
            annotation = self._var(fact.asserted_by or fact.origin or "unknown")
        self._absorb(key, annotation)

    def append(
        self,
        output: FactKey,
        rule_label: str,
        timestamp: float,
        ttl: Optional[float],
        antecedents: Sequence[Fact],
    ) -> ProvenanceExpression:
        """Record one local rule firing; return the derived tuple's annotation.

        The derived tuple, *output*, was made here by rule *rule_label* at
        *timestamp* to live *ttl*, unattributed: its tuple metadata if the
        log has not seen it.  *antecedents* are the firing's input tuples;
        they supply tuple metadata for input keys the log has not seen.  The
        log builds the firing's pointer from the key objects it holds.
        """
        tuples = self._tuples
        node = tuples.get(output)
        if node is None:
            output = self._forgotten.pop(output, output)
            node = tuples[output] = DerivationNode(
                output, self.node, timestamp=timestamp, ttl=ttl
            )
        key = node.key
        origin_of = self.origin_of
        input_keys = []
        inputs = []
        for antecedent in antecedents:
            input_key = antecedent.key()
            held = tuples.get(input_key)
            if held is None:
                input_key = self._forgotten.pop(input_key, input_key)
                held = tuples[input_key] = _tuple_node(input_key, antecedent, None)
            input_key = held.key
            input_keys.append(input_key)
            inputs.append((input_key, origin_of(input_key)))
        pointer = ProvenancePointer(key, rule_label, self.node, tuple(inputs), timestamp)
        firings = self._pointers.get(key)
        self._pointers[key] = (pointer,) if firings is None else firings + (pointer,)
        if self.track_dependencies:
            self.depend(key, input_keys)
        joined = join_all(map(self.annotation, input_keys), self.pairs)
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
        identical re-derivation is recorded afresh — on the key object the
        log held, which firings recorded earlier may still name.  The
        dependents index
        keeps its edges — the cascade consumes them with
        :meth:`pop_dependents` and invalidates each downstream tuple itself.
        """
        self._pointers.pop(key, None)
        self._base.pop(key, None)
        self._remote_origin.pop(key, None)
        node = self._tuples.pop(key, None)
        if node is not None:
            self._forgotten[node.key] = node.key
        self._condensed.pop(key, None)

    def pop_dependents(self, key: FactKey) -> Tuple[FactKey, ...]:
        """Remove and return the keys whose derivations used *key*."""
        return tuple(self._dependents.pop(key, ()))

    # -- reads -----------------------------------------------------------------

    def pointers(self, key: FactKey) -> Tuple[ProvenancePointer, ...]:
        return self._pointers.get(key, ())

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
            return self._var(node.asserted_by)
        relation, values = key
        rendered = ",".join(str(v) for v in values)
        return self._var(f"{relation}({rendered})")

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

    def share(self, annotation: ProvenanceExpression) -> ProvenanceExpression:
        """The one expression this log keeps equal to *annotation*: the one
        it kept first, else *annotation* itself, its pairs entered in
        ``pairs`` (the first object for a variable stays its pair)."""
        monomials = annotation.monomials
        kept = self._kept.get(monomials)
        if kept is None:
            pairs = self.pairs
            for monomial, _ in monomials:
                for pair in monomial:
                    if pair[1] == 1:
                        pairs.setdefault(pair[0], pair)
            kept = self._kept[monomials] = annotation
        return kept

    # -- internals -------------------------------------------------------------

    def _held(self, key: FactKey, fact: Fact, location: Optional[str]) -> FactKey:
        """The log's own object for *key*, entering *fact*'s metadata (made
        at *location*) when the log has not seen it."""
        node = self._tuples.get(key)
        if node is None:
            key = self._forgotten.pop(key, key)
            node = self._tuples[key] = _tuple_node(key, fact, location)
        return node.key

    def _var(self, name: str) -> ProvenanceExpression:
        """The annotation of variable *name* alone, on its pair in
        ``pairs`` (entered when new)."""
        pair = self.pairs.get(name)
        if pair is None:
            pair = self.pairs[name] = (name, 1)
        return ProvenanceExpression(monomials=(((pair,), 1),))

    def _absorb(self, key: FactKey, annotation: ProvenanceExpression) -> ProvenanceExpression:
        """Merge *annotation*, built on ``pairs``, into *key*'s; return
        what the log keeps for *key* now."""
        existing = self._condensed.get(key)
        if existing is not None:
            annotation = existing.absorb(annotation, self.pairs)
            if annotation is existing:
                return existing
        kept = self._condensed[key] = self._kept.setdefault(annotation.monomials, annotation)
        return kept

def _tuple_node(key: FactKey, fact: Fact, location: Optional[str]) -> DerivationNode:
    return DerivationNode(
        key=key,
        location=location or fact.origin,
        asserted_by=fact.asserted_by,
        timestamp=fact.timestamp,
        ttl=fact.ttl,
    )
