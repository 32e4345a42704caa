"""Network forensics over offline provenance (Section 3).

Forensics needs *historical* data: the paper frames traceback — determining
where packets or updates originated without trusting unauthenticated headers
— as a provenance query over state that may have long expired, which is what
the offline archive retains.

:class:`ForensicInvestigator` answers the questions that the traceback
literature (IP traceback, ForNet, Time Machine) asks, over one or more
nodes' offline archives: where did this tuple originate, which nodes did it
traverse, what did a given principal inject during a time window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.engine.tuples import FactKey, as_fact_key
from repro.provenance.graph import DerivationGraph
from repro.provenance.log import ProvenancePointer, derivation_graph
from repro.provenance.store import OfflineProvenanceArchive, ProvenanceEntry


@dataclass(frozen=True)
class TracebackReport:
    """The answer to one forensic traceback query."""

    target: FactKey
    origins: Tuple[FactKey, ...]
    nodes_traversed: Tuple[str, ...]
    rules_applied: Tuple[str, ...]
    derivation_depth: int
    graph: DerivationGraph

    @property
    def found(self) -> bool:
        return bool(self.nodes_traversed) or bool(self.origins)


@dataclass(frozen=True)
class LinkFailureImpact:
    """The archived blast radius of one failed directed link."""

    link: Tuple[str, str]
    #: The archived base ``link`` tuples carried by the failed link.
    base_keys: Tuple[FactKey, ...]
    #: Every archived tuple whose derivation (transitively) used them.
    affected: Tuple[FactKey, ...]
    #: Affected tuple counts per relation.
    by_relation: Dict[str, int]

    @property
    def found(self) -> bool:
        return bool(self.base_keys)


class ForensicInvestigator:
    """Cross-node forensic queries over offline provenance archives."""

    def __init__(self, archives: Mapping[str, OfflineProvenanceArchive]) -> None:
        self._archives = dict(archives)

    # -- construction helpers -------------------------------------------------------

    @classmethod
    def from_engines(cls, engines: Mapping[str, object]) -> "ForensicInvestigator":
        """Build an investigator from a simulation's node engines."""
        archives = {
            address: engine.offline_provenance for address, engine in engines.items()
        }
        return cls(archives)

    @classmethod
    def from_network(cls, network) -> "ForensicInvestigator":
        """Build an investigator from a :class:`repro.api.Network` (or run result).

        This is the out-of-band path: the investigator reads every archive
        directly, costing zero simulated messages.  For the in-band
        alternative — the same question asked *over* the network, paying
        query traffic — see :func:`traceback_over_network`.
        """
        return cls.from_engines(network.engines)

    # -- queries -----------------------------------------------------------------------

    def _all_entries(self) -> List[ProvenanceEntry]:
        entries: List[ProvenanceEntry] = []
        for archive in self._archives.values():
            entries.extend(archive.entries())
        return entries

    def pointers(self, key: FactKey) -> Tuple[ProvenancePointer, ...]:
        """Every archive's firings of *key*: per-key lookups, never a scan."""
        return tuple(
            pointer
            for archive in self._archives.values()
            for pointer in archive.pointers(key)
        )

    def traceback(self, target: FactKey) -> TracebackReport:
        """Reconstruct where *target* came from, across all archives."""
        return _report(derivation_graph(self, target), target)

    def activity_of(self, principal: str, start: float, end: float) -> Tuple[ProvenanceEntry, ...]:
        """Everything derived at *principal* within [start, end] (call-detail style)."""
        archive = self._archives.get(principal)
        if archive is None:
            return ()
        return archive.entries_between(start, end)

    def _forward_index(self) -> Dict[FactKey, List[FactKey]]:
        """Antecedent -> derived adjacency over every archived derivation."""
        forward: Dict[FactKey, List[FactKey]] = {}
        for entry in self._all_entries():
            for antecedent in entry.antecedent_keys:
                forward.setdefault(antecedent, []).append(entry.key)
        return forward

    @staticmethod
    def _downstream(
        forward: Mapping[FactKey, List[FactKey]], roots: Iterable[FactKey]
    ) -> Tuple[FactKey, ...]:
        affected: List[FactKey] = []
        seen: set = set()
        frontier = deque(roots)
        while frontier:
            key = frontier.popleft()
            for dependent in forward.get(key, ()):
                if dependent in seen:
                    continue
                seen.add(dependent)
                affected.append(dependent)
                frontier.append(dependent)
        return tuple(affected)

    def tuples_depending_on(self, base: FactKey) -> Tuple[FactKey, ...]:
        """Every archived tuple whose derivation (transitively) used *base*.

        This is the "which routes did the compromised link influence"
        question: a forward traversal of the archived derivations.
        """
        return self._downstream(self._forward_index(), [base])

    def link_failure_impact(
        self, source: str, destination: str, link_relation: str = "link"
    ) -> "LinkFailureImpact":
        """Post-mortem of a failed link: everything it ever influenced.

        Retraction invalidates the *queryable* provenance of the tuples a
        failed link supported, but the offline archives keep the historical
        record — so after a link-failure scenario an operator can still ask
        which routes the dead link carried, even though the live network has
        rerouted and no current tuple depends on it any more.

        *link_relation* names the base edge relation (it matches the
        simulator's ``link_relation`` parameter).  ``found`` on the result
        means the archives recorded at least one derivation that consumed
        the link — a link that influenced nothing reports an empty impact.
        """
        forward = self._forward_index()
        base_keys = sorted(
            key
            for key in forward
            if key[0] == link_relation
            and len(key[1]) >= 2
            and key[1][0] == source
            and key[1][1] == destination
        )
        affected = self._downstream(forward, base_keys)
        by_relation: Dict[str, int] = {}
        for key in affected:
            by_relation[key[0]] = by_relation.get(key[0], 0) + 1
        return LinkFailureImpact(
            link=(source, destination),
            base_keys=tuple(base_keys),
            affected=affected,
            by_relation=by_relation,
        )

    def storage_footprint(self) -> Dict[str, int]:
        """Approximate archive size per node (Section 5's storage concern)."""
        return {
            address: archive.storage_bytes() for address, archive in self._archives.items()
        }


def _report(graph: DerivationGraph, root: FactKey) -> TracebackReport:
    """Summarise *root*'s reconstructed derivation *graph*."""
    nodes: List[str] = []
    rules: List[str] = []
    for operator in graph.operators():
        if operator.location and operator.location not in nodes:
            nodes.append(operator.location)
        if operator.rule_label not in rules:
            rules.append(operator.rule_label)
    return TracebackReport(
        target=root,
        origins=tuple(sorted(graph.base_tuples(root))),
        nodes_traversed=tuple(nodes),
        rules_applied=tuple(rules),
        derivation_depth=_derivation_depth(graph, root),
        graph=graph,
    )


def _derivation_depth(graph: DerivationGraph, root: FactKey) -> int:
    """Longest producer chain under *root* (BFS over rule applications)."""
    depth = 0
    seen: set = set()
    frontier: deque = deque([(root, 0)])
    while frontier:
        key, level = frontier.popleft()
        if key in seen:
            continue
        seen.add(key)
        depth = max(depth, level)
        for operator in graph.producers(key):
            for input_key in operator.inputs:
                frontier.append((input_key, level + 1))
    return depth


def traceback_over_network(
    network,
    target,
    at: str,
    mode: str = "offline",
    **query_kwargs,
) -> Tuple[TracebackReport, object]:
    """The forensic traceback asked *in-band*: a real provenance query.

    Where :meth:`ForensicInvestigator.traceback` reads every node's archive
    for free, this issues ``network.query(target, at=at, mode=mode)`` — the
    reconstruction travels as QueryRequest/QueryResponse messages, pays
    bytes and latency, and fails partially when nodes are down.  Returns the
    familiar :class:`TracebackReport` plus the underlying
    :class:`~repro.net.query.QueryResult` carrying the wire costs
    (``messages``, ``bytes``, ``latency``, ``complete``).

    ``mode="offline"`` (the default) walks the persistent archives — the
    forensic store that survives crashes; ``mode="online"`` walks the live
    pointer tables instead.
    """
    key = as_fact_key(target)
    result = network.query(key, at=at, mode=mode, **query_kwargs)
    return _report(result.graph.subgraph(key), key), result
