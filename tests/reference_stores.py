"""The pre-PR-22 provenance stores, kept verbatim as the slow reference.

Until PR 22 one rule firing under ``condensed`` was written into up to four
live structures: an eagerly maintained ``DerivationGraph`` plus condensed
table (``LocalProvenanceStore``), a pointer table
(``DistributedProvenanceStore``), optionally an ``OnlineProvenanceStore``,
and the engine's own ``_dependents`` index.  They are replaced by the single
:class:`repro.provenance.log.DerivationLog`; their write paths live on here
— copied from the PR 21 tree, only the class names of the graph and the
piggy-back payload changed — so ``tests/test_derivation_log.py`` can replay
every run into both and require the same answers
(as ``tests/test_polynomial_kernel.py`` keeps the ``Counter`` kernel).

:class:`ReferenceStores` is the one piece of new code: the four-way write
fan-out ``NodeEngine`` used to do, driven from the calls the engine makes
into the log today.

The condensed annotation was once a wrapper around the polynomial,
:class:`CondensedProvenance` with its own ``join`` / ``merge``; the live
log now keeps bare condensed ``ProvenanceExpression`` values.  The wrapper
lives on here, verbatim, as the reference stores' annotation type, and
:class:`ShadowedLog` compares the log's polynomial with the one it wraps.

The eager graph builders (``add_fact`` / ``add_derivation`` / ``merge``)
left ``DerivationGraph`` for the same reason: only tests write a graph by
hand.  :class:`EagerDerivationGraph` is a ``DerivationGraph`` with them.

The offline archive once had a second representation beside the hot tier
over a spill log: unbounded in-memory lists (``OfflineProvenanceArchive``
over an ``ArchiveIndex`` base).  It lives on, verbatim under the names
:class:`ReferenceArchiveIndex` / :class:`ReferenceOfflineArchive`, as the
oracle the archive tests compare the surviving archive against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, FrozenSet, List, Mapping, Optional, Set, Tuple

from oracle import Derivation

from repro.engine.tuples import Fact, FactKey
from repro.provenance.graph import DerivationGraph, DerivationNode, OperatorNode
from repro.provenance.log import DerivationLog, ProvenancePointer, derivation_graph
from repro.provenance.polynomial import ProvenanceExpression, p_product, p_var
from repro.provenance.semiring import Semiring
from repro.provenance.store import ProvenanceEntry, archive_entry, entry_bytes


@dataclass(frozen=True)
class CondensedProvenance:
    """A tuple's condensed provenance annotation: the canonical (condensed)
    polynomial."""

    expression: ProvenanceExpression

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_source(source: str) -> "CondensedProvenance":
        """Annotation of a base tuple asserted by *source* (a principal or key)."""
        return CondensedProvenance(expression=p_var(source))

    @staticmethod
    def empty() -> "CondensedProvenance":
        """Annotation of a tuple with no derivation (zero)."""
        return CondensedProvenance(expression=ProvenanceExpression.zero())

    @staticmethod
    def axiomatic() -> "CondensedProvenance":
        """Annotation of a tuple taken as given (one)."""
        return CondensedProvenance(expression=ProvenanceExpression.one())

    # -- combination ----------------------------------------------------------

    def join(self, other: "CondensedProvenance") -> "CondensedProvenance":
        """Combine annotations of facts joined within a single derivation (*)."""
        return self._wrap((self.expression * other.expression).condense(), other)

    def merge(self, other: "CondensedProvenance") -> "CondensedProvenance":
        """Combine alternative derivations of the same tuple (+)."""
        return self._wrap(self.expression.absorb(other.expression), other)

    def _wrap(
        self, expression: ProvenanceExpression, other: "CondensedProvenance"
    ) -> "CondensedProvenance":
        """Wrap *expression*, reusing the operand that already holds it.

        Annotations are immutable, so ``x.join(axiomatic())`` and
        ``x.merge(x)`` are ``x`` itself — callers may test ``is``.
        """
        if expression is self.expression:
            return self
        if expression is other.expression:
            return other
        return CondensedProvenance(expression=expression)

    @staticmethod
    def join_all(annotations: Iterable["CondensedProvenance"]) -> "CondensedProvenance":
        """``join`` over *annotations*, condensed once at the end.

        The minimal DNF is unique, so condensing the whole product gives the
        polynomial that condensing after every factor would.
        """
        annotations = tuple(annotations)
        joined = p_product(*[a.expression for a in annotations]).condense()
        for annotation in annotations:
            if annotation.expression is joined:
                return annotation
        return CondensedProvenance(expression=joined)

    @staticmethod
    def merge_all(annotations: Iterable["CondensedProvenance"]) -> "CondensedProvenance":
        result = CondensedProvenance.empty()
        for annotation in annotations:
            result = result.merge(annotation)
        return result

    # -- queries --------------------------------------------------------------

    def sources(self) -> frozenset:
        """Every principal / base key the annotation mentions."""
        return self.expression.variables()

    def acceptable(self, trusted: Iterable[str]) -> bool:
        """Trust decision: is some derivation supported entirely by *trusted*?

        This is the Section 4.4 use of condensed provenance — a node accepts
        a tuple iff at least one monomial's sources are all trusted.
        """
        trusted_set = set(trusted)
        return any(
            support <= trusted_set for support in self.expression.monomial_supports()
        )

    def evaluate(self, semiring: Semiring, assignment: Mapping[str, object]) -> object:
        """Evaluate the annotation in an arbitrary semiring (Section 4.5)."""
        return self.expression.evaluate(semiring, assignment)

    def serialized_size(self) -> int:
        """Wire size in bytes when piggy-backed on a shipped tuple."""
        return self.expression.serialized_size()

    def __str__(self) -> str:
        return str(self.expression)



class ReferenceDerivationGraph:
    """PR 21's eagerly written, invalidatable ``DerivationGraph`` (verbatim)."""

    def __init__(self) -> None:
        self._tuples: Dict[FactKey, DerivationNode] = {}
        self._operators: List[OperatorNode] = []
        self._producers: Dict[FactKey, List[int]] = {}

    # -- construction ---------------------------------------------------------

    def add_tuple(self, node: DerivationNode) -> DerivationNode:
        existing = self._tuples.get(node.key)
        if existing is None:
            self._tuples[node.key] = node
            return node
        return existing

    def add_fact(self, fact: Fact, location: Optional[str] = None) -> DerivationNode:
        # Probe before constructing: the key is usually already present.
        key = (fact.relation, fact.values)
        existing = self._tuples.get(key)
        if existing is not None:
            return existing
        node = self._tuples[key] = DerivationNode(
            key=key,
            location=location or fact.origin,
            asserted_by=fact.asserted_by,
            timestamp=fact.timestamp,
            ttl=fact.ttl,
        )
        return node

    def add_derivation(
        self,
        output: Fact,
        rule_label: str,
        antecedents: Iterable[Fact],
        location: Optional[str] = None,
        timestamp: float = 0.0,
    ) -> OperatorNode:
        """Record one rule firing: *output* derived from *antecedents* by *rule_label*."""
        out_node = self.add_fact(output, location=location)
        input_keys = []
        for antecedent in antecedents:
            self.add_fact(antecedent)
            input_keys.append(antecedent.key())
        return self.add_operator(
            OperatorNode(
                rule_label=rule_label,
                location=location,
                output=out_node.key,
                inputs=tuple(input_keys),
                timestamp=timestamp,
            )
        )

    def add_operator(self, operator: OperatorNode) -> OperatorNode:
        """Insert a (possibly shared, prebuilt) rule firing by its keys.

        Tuple nodes for its output and inputs are created only where the
        graph has none yet — first writer wins, as in :meth:`add_fact`.
        """
        tuples = self._tuples
        if operator.output not in tuples:
            tuples[operator.output] = DerivationNode(
                key=operator.output, location=operator.location
            )
        for key in operator.inputs:
            if key not in tuples:
                tuples[key] = DerivationNode(key=key)
        self._producers.setdefault(operator.output, []).append(len(self._operators))
        self._operators.append(operator)
        return operator

    def merge(self, other: "ReferenceDerivationGraph") -> None:
        """Union *other* into this graph (used when piggy-backed trees arrive)."""
        for node in other._tuples.values():
            self.add_tuple(node)
        known = {
            (op.rule_label, op.location, op.output, op.inputs)
            for op in self._operators
            if op is not None
        }
        for operator in other._operators:
            if operator is None:
                continue
            signature = (
                operator.rule_label,
                operator.location,
                operator.output,
                operator.inputs,
            )
            if signature in known:
                continue
            known.add(signature)
            index = len(self._operators)
            self._operators.append(operator)
            self._producers.setdefault(operator.output, []).append(index)

    def invalidate(self, key: FactKey) -> bool:
        """Forget *key*: its tuple node and the derivations that produced it.

        Used when a tuple is retracted: every query path rooted at a fact key
        (``producers``, ``base_tuples``, ``subgraph``, expressions, renders)
        stops seeing *key*'s derivations.  The producing operators are
        tombstoned in place (indexes of other keys stay valid) so a later
        identical re-derivation merges back in instead of being deduplicated
        against the withdrawn one.  Downstream tuples are the caller's
        responsibility — the retraction cascade invalidates each one as it
        is deleted.  Returns True when the graph knew the key.
        """
        removed = self._tuples.pop(key, None) is not None
        indexes = self._producers.pop(key, None)
        if indexes:
            removed = True
            for index in indexes:
                self._operators[index] = None
        return removed

    # -- structure ------------------------------------------------------------

    def structure(self) -> Tuple[FrozenSet, FrozenSet]:
        """A hashable structural fingerprint of the graph.

        Two graphs with equal structures contain the same tuple nodes (key,
        location, asserting principal) and the same set of rule applications
        (label, location, output, inputs) — regardless of the order the
        derivations were recorded in.  This is how the in-network provenance
        query engine is checked against the zero-cost ``traceback`` oracle.
        """
        tuples = frozenset(
            (node.key, node.location, node.asserted_by)
            for node in self._tuples.values()
        )
        operators = frozenset(
            (op.rule_label, op.location, op.output, op.inputs)
            for op in self._operators
            if op is not None
        )
        return (tuples, operators)

    def same_structure(self, other: "ReferenceDerivationGraph") -> bool:
        """True when *other* records the same tuples and derivations."""
        return self.structure() == other.structure()

    def tuple_node(self, key: FactKey) -> Optional[DerivationNode]:
        return self._tuples.get(key)

    def tuple_nodes(self) -> Tuple[DerivationNode, ...]:
        return tuple(self._tuples.values())

    def operators(self) -> Tuple[OperatorNode, ...]:
        return tuple(op for op in self._operators if op is not None)

    def producers(self, key: FactKey) -> Tuple[OperatorNode, ...]:
        """The rule applications that derived *key* (one per alternative derivation)."""
        return tuple(self._operators[i] for i in self._producers.get(key, ()))

    def is_base(self, key: FactKey) -> bool:
        """True when *key* has no recorded derivation (it is an input leaf)."""
        return key in self._tuples and key not in self._producers

    def base_tuples(self, root: FactKey) -> FrozenSet[FactKey]:
        """The leaves of *root*'s derivation: the base input tuples (Figure 1)."""
        leaves: set = set()
        seen: set = set()
        stack = [root]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            producers = self._producers.get(key)
            if not producers:
                leaves.add(key)
                continue
            for index in producers:
                stack.extend(self._operators[index].inputs)
        return frozenset(leaves)

    def subgraph(self, root: FactKey) -> "ReferenceDerivationGraph":
        """The derivation graph restricted to everything reachable from *root*."""
        result = ReferenceDerivationGraph()
        seen: set = set()
        stack = [root]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            node = self._tuples.get(key)
            if node is not None:
                result.add_tuple(node)
            for index in self._producers.get(key, ()):
                operator = self._operators[index]
                for input_key in operator.inputs:
                    input_node = self._tuples.get(input_key)
                    if input_node is not None:
                        result.add_tuple(input_node)
                result._operators.append(operator)
                result._producers.setdefault(key, []).append(
                    len(result._operators) - 1
                )
                stack.extend(operator.inputs)
        return result

    # -- conversions -----------------------------------------------------------

    def to_expression(
        self, root: FactKey, variable_of: Optional[callable] = None
    ) -> ProvenanceExpression:
        """Provenance polynomial of *root* over its base tuples (or principals).

        ``variable_of`` maps a leaf :class:`DerivationNode` to the variable
        name used in the polynomial; the default uses the asserting principal
        when present (the paper's condensed form over principals) and
        otherwise a ``relation(values)`` key.
        """
        naming = variable_of or _default_variable

        cache: Dict[FactKey, ProvenanceExpression] = {}
        in_progress: set = set()

        def expression_of(key: FactKey) -> ProvenanceExpression:
            if key in cache:
                return cache[key]
            if key in in_progress:
                # Cycle through the provenance graph (possible in recursive
                # programs when a tuple re-derives itself): that alternative
                # contributes nothing new.
                return ProvenanceExpression.zero()
            producers = self._producers.get(key)
            node = self._tuples.get(key)
            if not producers:
                leaf = node or DerivationNode(key=key)
                result = p_var(naming(leaf))
                cache[key] = result
                return result
            in_progress.add(key)
            total = ProvenanceExpression.zero()
            for index in producers:
                operator = self._operators[index]
                term = ProvenanceExpression.one()
                for input_key in operator.inputs:
                    term = term * expression_of(input_key)
                total = total + term
            in_progress.discard(key)
            cache[key] = total
            return total

        return expression_of(root)

    def to_condensed(
        self, root: FactKey, variable_of: Optional[callable] = None
    ) -> CondensedProvenance:
        """Condensed provenance annotation of *root* (Section 4.4)."""
        return CondensedProvenance(
            expression=self.to_expression(root, variable_of).condense()
        )

    # -- rendering --------------------------------------------------------------

    def render(self, root: FactKey, indent: str = "  ") -> str:
        """ASCII rendering of *root*'s derivation tree (Figures 1 / 2 style)."""
        lines: List[str] = []

        def walk(key: FactKey, depth: int, seen: Tuple[FactKey, ...]) -> None:
            node = self._tuples.get(key) or DerivationNode(key=key)
            lines.append(f"{indent * depth}{node.label()}")
            if key in seen:
                lines.append(f"{indent * (depth + 1)}(cycle)")
                return
            for operator in self.producers(key):
                lines.append(f"{indent * (depth + 1)}[{operator.label()}]")
                for input_key in operator.inputs:
                    walk(input_key, depth + 2, seen + (key,))

        walk(root, 0, ())
        return "\n".join(lines)

    def __len__(self) -> int:
        live = sum(1 for op in self._operators if op is not None)
        return len(self._tuples) + live


class EagerDerivationGraph(DerivationGraph):
    """A :class:`DerivationGraph` a test writes fact by fact and firing by firing.

    No run builds a graph this way (graphs are views over pointers), so the
    eager builders live here.  They are :class:`ReferenceDerivationGraph`'s:
    a graph without tombstones is one they treat the same way.
    """

    add_fact = ReferenceDerivationGraph.add_fact
    add_derivation = ReferenceDerivationGraph.add_derivation
    merge = ReferenceDerivationGraph.merge


def _default_variable(node: DerivationNode) -> str:
    if node.asserted_by:
        return node.asserted_by
    rendered = ",".join(str(v) for v in node.values)
    return f"{node.relation}({rendered})"


@dataclass(frozen=True)
class ReferencePiggyback:
    """The provenance payload shipped along with one tuple.

    ``graph`` is the full derivation subgraph rooted at the tuple;
    ``condensed`` the equivalent condensed annotation.  The wire-size model
    charges for whichever representation the configuration ships.
    """

    root: FactKey
    graph: ReferenceDerivationGraph
    condensed: CondensedProvenance

    def serialized_size(self, condensed_only: bool = True) -> int:
        """Bytes the piggy-back adds to a message.

        With ``condensed_only`` (the SeNDlogProv configuration of the
        evaluation) only the condensed expression travels; otherwise the size
        of the rendered full tree is charged.
        """
        if condensed_only:
            return self.condensed.serialized_size()
        return len(self.graph.render(self.root).encode("utf-8"))


class LocalProvenanceStore:
    """Per-node recorder of complete (local) provenance."""

    def __init__(self, node: str) -> None:
        self.node = node
        self.graph = ReferenceDerivationGraph()
        self._condensed: Dict[FactKey, CondensedProvenance] = {}

    # -- recording -------------------------------------------------------------

    def record_base(self, fact: Fact, source: Optional[str] = None) -> None:
        """Record a base (input) fact asserted at this node."""
        self.graph.add_fact(fact, location=self.node)
        annotation = CondensedProvenance.from_source(
            source or fact.asserted_by or self.node
        )
        self._merge_condensed(fact.key(), annotation)

    def record_derivation(self, derivation: Derivation) -> CondensedProvenance:
        """Record a local rule firing and return the derived tuple's annotation."""
        self.graph.add_derivation(
            output=derivation.fact,
            rule_label=derivation.rule_label,
            antecedents=derivation.antecedents,
            location=self.node,
            timestamp=derivation.timestamp,
        )
        joined = CondensedProvenance.join_all(
            self.annotation(fact.key()) for fact in derivation.antecedents
        )
        return self._merge_condensed(derivation.fact.key(), joined)

    def record_remote(self, fact: Fact, piggyback: Optional[ReferencePiggyback]) -> None:
        """Merge the provenance piggy-backed on a tuple received from another node."""
        self.graph.add_fact(fact)
        if piggyback is None:
            annotation = CondensedProvenance.from_source(
                fact.asserted_by or fact.origin or "unknown"
            )
            self._merge_condensed(fact.key(), annotation)
            return
        self.graph.merge(piggyback.graph)
        self._merge_condensed(fact.key(), piggyback.condensed)

    def record_remote_condensed(self, fact: Fact, condensed: CondensedProvenance) -> None:
        """Record a remote tuple that carried only a condensed annotation.

        This is the cheap path used by the SeNDlogProv configuration: the
        derivation structure stays at the sender, only the condensed
        expression is merged locally.
        """
        self.graph.add_fact(fact)
        self._merge_condensed(fact.key(), condensed)

    def invalidate(self, key: FactKey) -> bool:
        """Stop vouching for *key* (its tuple was retracted).

        Drops the condensed annotation and the derivation-graph entry, so
        ``annotation`` falls back to the identity-of-the-key default and the
        graph no longer produces the tuple.  Returns True when the store had
        provenance for the key.
        """
        known = self._condensed.pop(key, None) is not None
        return self.graph.invalidate(key) or known

    # -- queries ----------------------------------------------------------------

    def knows(self, key: FactKey) -> bool:
        """True when the store actually recorded provenance for *key*.

        ``annotation`` falls back to an identity variable for unknown keys;
        callers that must distinguish a real annotation from that fallback
        (e.g. the in-network query plane deciding whether to ship one) check
        here first.
        """
        return key in self._condensed or self.graph.tuple_node(key) is not None

    def annotation(self, key: FactKey) -> CondensedProvenance:
        """Condensed annotation of *key*; unknown keys map to their own identity."""
        existing = self._condensed.get(key)
        if existing is not None:
            return existing
        node = self.graph.tuple_node(key)
        if node is not None and node.asserted_by:
            return CondensedProvenance.from_source(node.asserted_by)
        relation, values = key
        rendered = ",".join(str(v) for v in values)
        return CondensedProvenance.from_source(f"{relation}({rendered})")

    def derivation_tree(self, key: FactKey) -> ReferenceDerivationGraph:
        """The full local derivation graph rooted at *key* (Figure 1)."""
        return self.graph.subgraph(key)

    def base_tuples(self, key: FactKey) -> frozenset:
        return self.graph.base_tuples(key)

    def piggyback_for(self, fact: Fact) -> ReferencePiggyback:
        """Build the provenance payload to ship along with *fact*."""
        key = fact.key()
        return ReferencePiggyback(
            root=key,
            graph=self.graph.subgraph(key),
            condensed=self.annotation(key),
        )

    def render(self, key: FactKey) -> str:
        return self.graph.render(key)

    def keys(self) -> Tuple[FactKey, ...]:
        return tuple(node.key for node in self.graph.tuple_nodes())

    # -- internals ---------------------------------------------------------------

    def _merge_condensed(
        self, key: FactKey, annotation: CondensedProvenance
    ) -> CondensedProvenance:
        existing = self._condensed.get(key)
        merged = annotation if existing is None else existing.merge(annotation)
        if merged is not existing:
            self._condensed[key] = merged
        return merged


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


class OnlineProvenanceStore:
    """Provenance for currently-valid state only.

    Entries are indexed by the derived tuple's key and expire in lock-step
    with the tuple (same timestamp + TTL); :meth:`expire` must be called with
    the advancing clock, exactly like the soft-state tables.  Deleting a
    tuple (e.g. when reacting to a detected anomaly) drops its provenance and
    reports which other tuples depended on it, enabling cascade invalidation.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self._entries: Dict[FactKey, List[ProvenanceEntry]] = {}
        self._dependents: Dict[FactKey, Set[FactKey]] = {}

    def record(self, derivation: Derivation, annotation: Optional[CondensedProvenance] = None) -> None:
        fact = derivation.fact
        entry = ProvenanceEntry(
            key=fact.key(),
            rule_label=derivation.rule_label,
            node=derivation.node or self.node,
            antecedent_keys=tuple(a.key() for a in derivation.antecedents),
            timestamp=derivation.timestamp,
            expires_at=fact.expires_at(),
            annotation=annotation,
        )
        self._entries.setdefault(entry.key, []).append(entry)
        for antecedent in entry.antecedent_keys:
            self._dependents.setdefault(antecedent, set()).add(entry.key)

    def entries(self, key: FactKey) -> Tuple[ProvenanceEntry, ...]:
        return tuple(self._entries.get(key, ()))

    def __contains__(self, key: FactKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def dependents_of(self, key: FactKey) -> frozenset:
        """Tuples whose derivations used *key* (candidates for cascade deletion)."""
        return frozenset(self._dependents.get(key, set()))

    def delete(self, key: FactKey) -> frozenset:
        """Remove *key*'s provenance; return its dependents for cascading."""
        self._entries.pop(key, None)
        return self.dependents_of(key)

    def expire(self, now: float) -> List[ProvenanceEntry]:
        """Drop entries whose underlying tuple has expired at time *now*."""
        dropped: List[ProvenanceEntry] = []
        for key in list(self._entries):
            remaining = []
            for entry in self._entries[key]:
                if entry.expires_at is not None and now >= entry.expires_at:
                    dropped.append(entry)
                else:
                    remaining.append(entry)
            if remaining:
                self._entries[key] = remaining
            else:
                del self._entries[key]
        return dropped


# -- the PR 21 engine's write fan-out, and a log that shadows it ---------------


class ReferenceStores:
    """The four live structures ``NodeEngine`` wrote until PR 22.

    Each method is the body of the engine code it is named after, with
    ``self.local`` / ``self.distributed`` / ``self.online`` / ``self.dependents``
    in place of the engine's attributes (``keep_online_provenance`` taken as
    on, so the online store is exercised too).
    """

    def __init__(self, node: str) -> None:
        self.local = LocalProvenanceStore(node)
        self.distributed = DistributedProvenanceStore(node)
        self.online = OnlineProvenanceStore(node)
        self.dependents: Dict[FactKey, Dict[FactKey, None]] = {}

    def record_base(self, fact: Fact, source: Optional[str]) -> None:
        """``insert_base``."""
        self.local.record_base(fact, source=source)
        self.distributed.record_base(fact)

    def record_remote(
        self, fact: Fact, condensed: Optional[CondensedProvenance]
    ) -> None:
        """``_record_remote_provenance``."""
        if condensed is not None:
            self.local.record_remote_condensed(fact, condensed)
        else:
            self.local.record_remote(fact, None)
        self.distributed.record_remote(fact, fact.origin)

    def record_derivation(self, derivation: Derivation) -> CondensedProvenance:
        """``_record_derivation``."""
        annotation = self.local.record_derivation(derivation)
        self.distributed.record_derivation(derivation)
        self.online.record(derivation, annotation)
        return annotation

    def record_dependencies(
        self, derived_key: FactKey, antecedent_keys: Iterable[FactKey]
    ) -> None:
        """``_record_dependencies``."""
        for key in antecedent_keys:
            if key == derived_key:
                continue
            bucket = self.dependents.get(key)
            if bucket is None:
                bucket = self.dependents[key] = {}
            bucket[derived_key] = None

    def invalidate(self, key: FactKey) -> None:
        """``_invalidate_provenance``."""
        self.local.invalidate(key)
        self.distributed.invalidate(key)
        self.online.delete(key)


class ShadowedLog(DerivationLog):
    """A :class:`DerivationLog` that replays every write into the reference.

    Swap it in for ``repro.engine.node_engine.DerivationLog`` and every
    engine (crash-rebuilt ones included) carries its own reference stores;
    :func:`assert_log_matches_reference` then compares the two read sides.
    """

    def __init__(self, node: str, track_dependencies: bool = False) -> None:
        super().__init__(node, track_dependencies)
        self.reference = ReferenceStores(node)

    def record_base(self, fact, source=None):
        super().record_base(fact, source)
        self.reference.record_base(fact, source)

    def record_remote(self, fact, annotation=None):
        super().record_remote(fact, annotation)
        wrapped = None if annotation is None else CondensedProvenance(annotation)
        self.reference.record_remote(fact, wrapped)

    def append(self, pointer, ttl, antecedents):
        annotation = super().append(pointer, ttl, antecedents)
        # The derived tuple as the engine built it before it logged firings
        # by key: unattributed, made at the firing's node and instant.
        relation, values = pointer.output
        fact = Fact(relation, values, pointer.timestamp, ttl, origin=pointer.node)
        expected = self.reference.record_derivation(
            Derivation(
                fact=fact,
                rule_label=pointer.rule_label,
                node=pointer.node,
                antecedents=tuple(antecedents),
                timestamp=pointer.timestamp,
            )
        )
        assert annotation == expected.expression
        # The engine built the pointer; the old store would have built the
        # same one (same per-input origins) from its own origin table.
        assert self.reference.distributed.pointers(pointer.output)[-1] == pointer
        return annotation

    def depend(self, output, inputs):
        inputs = tuple(inputs)
        super().depend(output, inputs)
        self.reference.record_dependencies(output, inputs)

    def invalidate(self, key):
        super().invalidate(key)
        self.reference.invalidate(key)

    def pop_dependents(self, key):
        expected = tuple(self.reference.dependents.pop(key, ()))
        popped = super().pop_dependents(key)
        assert popped == expected
        return popped


def assert_log_matches_reference(log: ShadowedLog) -> int:
    """Every read the log answers equals the old stores'; returns keys checked."""
    reference = log.reference
    local, distributed, online = (
        reference.local,
        reference.distributed,
        reference.online,
    )
    # The same keys are vouched for — invalidation and crashes included.
    assert tuple(log._tuples) == local.keys()
    assert set(log.keys()) == set(distributed.keys())
    assert log.keys()[: len(log._pointers)] == distributed.keys()[: len(log._pointers)]
    assert set(log._pointers) == set(online._entries)
    assert log.storage_overhead() == distributed.storage_overhead()
    assert {k: tuple(v) for k, v in log._dependents.items()} == {
        k: tuple(v) for k, v in reference.dependents.items()
    }
    keys = dict.fromkeys(local.keys() + distributed.keys() + tuple(local._condensed))
    keys[("never", ("recorded",))] = None
    for antecedent, dependents in reference.dependents.items():
        keys[antecedent] = None
        keys.update(dict.fromkeys(dependents))
    for key in keys:
        assert log.graph(key).structure() == local.graph.subgraph(key).structure()
        assert log.pointers(key) == distributed.pointers(key)
        assert log.is_base(key) == distributed.is_base(key)
        assert log.knows(key) == local.knows(key)
        assert (bool(log.pointers(key)) or log.is_base(key)) == distributed.knows(key)
        assert log.annotation(key) == local.annotation(key).expression
        assert log.tuple_node(key) == local.graph.tuple_node(key)
        assert log.dependents_of(key) == tuple(reference.dependents.get(key, ()))
        assert log.graph(key).render(key) == local.render(key)
    return len(keys)


# -- the unbounded in-memory offline archive -----------------------------------


class ReferenceArchiveIndex:
    """What both offline archives keep beside their entries, and read alike.

    Base keys and remote origins give an archive the same pointer-chasing
    shape as the live log, so offline (forensic) traceback queries can walk
    it across nodes even after a crash wiped the live logs; the per-key
    index (kept in sync by the subclass's ``record``) makes
    the per-key lookup — the unit of work of a traceback — independent of
    run length.  Subclasses supply ``entries(key)``.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        #: Keys archived as base (application-asserted) inputs at this node.
        self._base: Set[FactKey] = set()
        #: Keys that arrived from another node -> the node holding their
        #: provenance.
        self._remote_origin: Dict[FactKey, str] = {}
        #: Entry indexes (ids) per derived key.
        self._by_key: Dict[FactKey, List[int]] = {}

    def record_base(self, fact: Fact) -> None:
        """Archive that *fact* was asserted as a base tuple at this node."""
        self._base.add(fact.key())

    def record_remote(self, fact: Fact, origin: Optional[str]) -> None:
        """Archive that *fact* arrived from *origin*, which holds its provenance."""
        if origin is not None and origin != self.node:
            self._remote_origin[fact.key()] = origin

    def is_base(self, key: FactKey) -> bool:
        return key in self._base

    def origin_of(self, key: FactKey) -> Optional[str]:
        """The node holding *key*'s provenance, when it arrived from elsewhere."""
        return self._remote_origin.get(key)

    def knows(self, key: FactKey) -> bool:
        """True when the archive recorded *key* as base or as a derivation."""
        return key in self._base or key in self._by_key

    def pointers(self, key: FactKey) -> Tuple[ProvenancePointer, ...]:
        """*key*'s archived firings in the live log's pointer shape.

        Entries carry the same (rule, antecedents, node) as live pointers;
        per-antecedent origins are resolved here, at read time, from the
        remembered remote origins.
        """
        origin_of = self._remote_origin.get
        return tuple(
            ProvenancePointer(
                output=key,
                rule_label=entry.rule_label,
                node=entry.node or self.node,
                inputs=tuple((k, origin_of(k)) for k in entry.antecedent_keys),
                timestamp=entry.timestamp,
            )
            for entry in self.entries(key)
        )

    def graph(self, root: FactKey) -> DerivationGraph:
        """The derivation graph of *root* rebuilt from archived entries."""
        return derivation_graph(self, root)


class ReferenceOfflineArchive(ReferenceArchiveIndex):
    """Append-only provenance archive that survives soft-state expiry.

    Supports the forensics and accountability use cases: entries remain
    queryable after the network state they describe has long expired
    (Section 5).
    """

    def __init__(self, node: str) -> None:
        super().__init__(node)
        self._entries: List[ProvenanceEntry] = []

    def record(
        self,
        pointer: ProvenancePointer,
        expires_at: Optional[float] = None,
        annotation: Optional[ProvenanceExpression] = None,
    ) -> int:
        """Archive one firing; returns the entry's index."""
        entry = archive_entry(pointer, expires_at, annotation)
        self._by_key.setdefault(entry.key, []).append(len(self._entries))
        self._entries.append(entry)
        return len(self._entries) - 1

    def entries(self, key: Optional[FactKey] = None) -> Tuple[ProvenanceEntry, ...]:
        if key is None:
            return tuple(self._entries)
        return tuple(self._entries[i] for i in self._by_key.get(key, ()))

    def entries_between(self, start: float, end: float) -> Tuple[ProvenanceEntry, ...]:
        """Entries recorded in the time window [start, end] (forensic queries)."""
        return tuple(e for e in self._entries if start <= e.timestamp <= end)

    def __len__(self) -> int:
        return len(self._entries)

    def storage_bytes(self) -> int:
        """Approximate storage footprint, for the Section 5 storage discussion.

        Counts the entries themselves (keys, rule labels, timestamps and
        annotations) *and* the archive's metadata — the per-key index, the
        base-key set and the remote-origin pointers — which earlier versions
        undercounted: a long-running archive's index is real residency.
        """
        total = 0
        for entry in self._entries:
            total += entry_bytes(entry)
        for key, indexes in self._by_key.items():
            total += len(str(key)) + 8 * len(indexes)
        for key in self._base:
            total += len(str(key))
        for key, origin in self._remote_origin.items():
            total += len(str(key)) + len(origin)
        return total

    # -- tier accessors (uniform with the tiered archive) ---------------------

    def resident_bytes(self) -> int:
        """Everything lives in memory: residency is the whole footprint."""
        return self.storage_bytes()

    def spilled_bytes(self) -> int:
        return 0

    def spill_read_count(self) -> int:
        return 0

    def drop_cache(self) -> None:
        """Crash semantics: the in-memory archive models a persistent log
        wholesale, so a crash loses nothing here (no volatile tier)."""


# -- hand-recorded firings, for the unit tests of the log and the archives ------


def pointer_for(
    fact: Fact,
    rule_label: str,
    node: str,
    antecedents: Iterable[Fact] = (),
    timestamp: float = 0.0,
    origin_of=lambda key: None,
) -> ProvenancePointer:
    """The pointer ``NodeEngine._record_derivation`` builds for one firing."""
    return ProvenancePointer(
        output=fact.key(),
        rule_label=rule_label,
        node=node,
        inputs=tuple((a.key(), origin_of(a.key())) for a in antecedents),
        timestamp=timestamp,
    )


def fire(log: DerivationLog, fact: Fact, rule_label: str, antecedents=(), timestamp=0.0):
    """Record one firing into *log* the way the engine does; returns the
    derived tuple's annotation."""
    pointer = pointer_for(
        fact, rule_label, log.node, antecedents, timestamp, log.origin_of
    )
    return log.append(pointer, fact.ttl, tuple(antecedents))
