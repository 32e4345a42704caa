"""The eager querier-side merge this repository ran before the query plane
logged its merges and built graphs on read — ``QueryEngine._merge_closure``
of ``src/repro/net/query.py`` at that commit, verbatim below except for one
line: the live graph it grows is kept in ``ReferenceQueryEngine.graphs``
(``PendingQuery`` no longer holds one).

It is the reference ``tests/test_query_merge_reference.py`` compares the
merge log against: the same tuple nodes in the same dict order, the same
operators in the same order, the same producers, and the same messages,
bytes and instants.  It replays every entry and re-tests every input of
every pointer; do not tidy it, it is kept to be compared with.
"""

from __future__ import annotations

from typing import Dict

from repro.net.query import PendingQuery, QueryEngine
from repro.provenance.graph import DerivationGraph, DerivationNode


class ReferenceQueryEngine(QueryEngine):
    """A :class:`QueryEngine` growing each query's graph as entries arrive."""

    def __init__(self, simulator) -> None:
        super().__init__(simulator)
        #: query id -> the graph the eager merge grew for it.
        self.graphs: Dict[int, DerivationGraph] = {}

    def _merge_closure(
        self,
        pending: PendingQuery,
        node,
        entries,
        missing,
        now: float,
    ) -> None:
        """Replay closure *entries* into the graph; dereference remote inputs."""
        graph = self.graphs.setdefault(pending.query_id, DerivationGraph())
        seen = pending.seen
        for entry in entries:
            pair = (entry.key, entry.node)
            if pair in seen:
                continue
            seen.add(pair)
            tuple_node, operators = entry.replay()
            graph.add_tuple(tuple_node)
            for operator, pointer in zip(operators, entry.pointers):
                graph.add_operator(operator)
                for input_key, origin in pointer.inputs:
                    if origin and origin != entry.node:
                        self._dereference(pending, input_key, origin, now)
        for key in missing:
            pair = (key, node)
            if pair in seen:
                continue
            seen.add(pair)
            graph.add_tuple(DerivationNode(key=key, location=node))
            if key not in pending.missing:
                pending.missing.append(key)


def install_reference(simulator) -> None:
    """Swap every query engine of *simulator* (serial, or each kernel of an
    inline-sharded one) for a :class:`ReferenceQueryEngine`."""
    for kernel in getattr(simulator, "_kernels", None) or (simulator,):
        reference = ReferenceQueryEngine(kernel)
        reference.resolve_remote = kernel.queries.resolve_remote
        kernel.queries = reference
