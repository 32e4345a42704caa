"""Local provenance (Section 4.1).

Under local provenance the complete derivation of every tuple is available at
the tuple's storage node: whenever a tuple is shipped to another node its
entire provenance is piggy-backed on the message.  Querying is therefore
cheap (a local lookup) and trust policies can be enforced immediately, at the
cost of extra communication for every shipped tuple.

The :class:`LocalProvenanceStore` is the per-node component: it records
every local rule firing into a derivation graph, produces the piggy-back
payload for outgoing tuples, and merges piggy-backed payloads arriving with
remote tuples so the local graph stays complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.engine.tuples import Derivation, Fact, FactKey
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.graph import DerivationGraph


@dataclass(frozen=True)
class PiggybackedProvenance:
    """The provenance payload shipped along with one tuple.

    ``graph`` is the full derivation subgraph rooted at the tuple;
    ``condensed`` the equivalent condensed annotation.  The wire-size model
    charges for whichever representation the configuration ships.
    """

    root: FactKey
    graph: DerivationGraph
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
        self.graph = DerivationGraph()
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

    def record_remote(self, fact: Fact, piggyback: Optional[PiggybackedProvenance]) -> None:
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

    def derivation_tree(self, key: FactKey) -> DerivationGraph:
        """The full local derivation graph rooted at *key* (Figure 1)."""
        return self.graph.subgraph(key)

    def base_tuples(self, key: FactKey) -> frozenset:
        return self.graph.base_tuples(key)

    def piggyback_for(self, fact: Fact) -> PiggybackedProvenance:
        """Build the provenance payload to ship along with *fact*."""
        key = fact.key()
        return PiggybackedProvenance(
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
