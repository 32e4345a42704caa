"""Derivation graphs: the explicit provenance trees of Figures 1 and 2.

A derivation graph records, for each tuple, the rule applications (operator
nodes) that produced it and the antecedent tuples each application consumed.
Tuple nodes carry the stream annotations the paper adds for network
provenance — location, creation timestamp and time-to-live — and, for
authenticated provenance, the asserting principal (``says``).  Operator nodes
are annotated with the rule label and the location (context) where the rule
executed, exactly as in Figure 2.

A graph is a *view*: nothing stores one.  It is built on read — from a
node's :class:`~repro.provenance.log.DerivationLog` (*local* provenance: the
whole tree available at the tuple's storage node), from an offline archive,
or by reconstructing *distributed* provenance via traceback / an in-network
query — and every operator node in it comes from
:meth:`~repro.provenance.log.ProvenancePointer.operator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.engine.tuples import Fact, FactKey
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.polynomial import ProvenanceExpression, p_var


@dataclass(frozen=True, slots=True)
class DerivationNode:
    """A tuple node in a derivation graph."""

    key: FactKey
    location: Optional[str] = None
    asserted_by: Optional[str] = None
    timestamp: float = 0.0
    ttl: Optional[float] = None

    @property
    def relation(self) -> str:
        return self.key[0]

    @property
    def values(self) -> Tuple[object, ...]:
        return self.key[1]

    def label(self) -> str:
        rendered = ", ".join(str(v) for v in self.values)
        text = f"{self.relation}({rendered})"
        if self.asserted_by:
            text = f"{self.asserted_by} says {text}"
        if self.location:
            text = f"{text} @{self.location}"
        return text


@dataclass(frozen=True, slots=True)
class OperatorNode:
    """A rule-application (oval) node in a derivation graph."""

    rule_label: str
    location: Optional[str]
    output: FactKey
    inputs: Tuple[FactKey, ...]
    timestamp: float = 0.0

    def label(self) -> str:
        where = f" @{self.location}" if self.location else ""
        return f"{self.rule_label}{where}"


class DerivationGraph:
    """A (possibly DAG-shaped) provenance graph over tuple and operator nodes."""

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

    def add_operator(
        self, operator: OperatorNode, placeholders: bool = True
    ) -> OperatorNode:
        """Insert a (possibly shared, prebuilt) rule firing by its keys.

        With *placeholders*, tuple nodes for its output and inputs are
        created where the graph has none yet — first writer wins, as in
        :meth:`add_fact`; a caller that supplies exactly the tuple nodes it
        knows turns them off.
        """
        if placeholders:
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

    def merge(self, other: "DerivationGraph") -> None:
        """Union *other* into this graph."""
        for node in other._tuples.values():
            self.add_tuple(node)
        known = {
            (op.rule_label, op.location, op.output, op.inputs)
            for op in self._operators
        }
        for operator in other._operators:
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
        )
        return (tuples, operators)

    def same_structure(self, other: "DerivationGraph") -> bool:
        """True when *other* records the same tuples and derivations."""
        return self.structure() == other.structure()

    def tuple_node(self, key: FactKey) -> Optional[DerivationNode]:
        return self._tuples.get(key)

    def tuple_nodes(self) -> Tuple[DerivationNode, ...]:
        return tuple(self._tuples.values())

    def operators(self) -> Tuple[OperatorNode, ...]:
        return tuple(self._operators)

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

    def subgraph(self, root: FactKey) -> "DerivationGraph":
        """The derivation graph restricted to everything reachable from *root*."""
        result = DerivationGraph()
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
        return len(self._tuples) + len(self._operators)


def _default_variable(node: DerivationNode) -> str:
    if node.asserted_by:
        return node.asserted_by
    rendered = ",".join(str(v) for v in node.values)
    return f"{node.relation}({rendered})"
