#!/usr/bin/env python3
"""Census of the query plane's host work on the query_service shape.

Wraps the querier's and responder's doors — from outside ``src/``, nothing
in the program counts any of this — converges a Best-Path network with the
result cache armed, serves an open-loop ``QueryWorkload`` and prints, in
total and per completed query: query messages, closure lookups (cache hits,
misses, invalidations), closure entries the querier received and how many it
merged or skipped as already seen, key renders, graph and graph-node
constructions, ``QueryTimeout``\\ s scheduled / cancelled / fired,
``NetworkStats.node`` lookups, the event heap's high-water mark, the
cancelled entries its rebuilds dropped and the route costs computed.  The
query bytes are split by part: message headers (with the query flags),
request keys, response records, annotations, signatures, and the keys
shipped in responses — whatever a response's wire size charges beyond its
records, annotation and signature, which is nothing since a response names
its request instead of its key.  Only the serve window is counted.  With
``--read`` every query's graph is read as it completes, as an API caller
would; by default nobody reads them, as in the benchmark's service plane.

    python tools/query_census.py --nodes 30 --seconds 25
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import repro.net.message as message  # noqa: E402
from repro.api import Network  # noqa: E402
from repro.net.events import EventScheduler, QueryTimeout  # noqa: E402
from repro.net.kernel import SimulationKernel  # noqa: E402
from repro.net.query import QueryEngine  # noqa: E402
from repro.net.stats import NetworkStats  # noqa: E402
from repro.provenance.graph import DerivationGraph, DerivationNode  # noqa: E402
from repro.provenance.log import ProvenancePointer  # noqa: E402
from repro.service import QueryWorkload  # noqa: E402


#: The printed rows, in order; a row nothing counted prints zero.
ROWS = (
    "query messages",
    "query bytes",
    "query bytes: headers",
    "query bytes: request keys",
    "query bytes: response records",
    "query bytes: annotations",
    "query bytes: signatures",
    "query bytes: keys shipped in responses",
    "closure lookups",
    "closure lookups: hits",
    "closure lookups: misses",
    "closure lookups: invalidations",
    "closure entries received",
    "closure entries merged",
    "closure entries skipped as seen",
    "mid-entry splits",
    "missing keys received",
    "key renders",
    "graphs read",
    "graphs built",
    "operator nodes built",
    "tuple nodes built",
    "QueryTimeouts scheduled",
    "QueryTimeouts cancelled",
    "QueryTimeouts fired",
    "QueryTimeouts that expired a request",
    "NetworkStats.node lookups",
    "event heap high-water",
    "cancelled entries rebuilt away",
    "route costs computed",
)


class Census(Counter):
    """Named counters, plus the timeouts scheduled (read when the run ends)."""

    def __init__(self) -> None:
        super().__init__()
        self.timeouts = []

    def reset(self) -> None:
        self.clear()
        self.timeouts = []


def install(read: bool) -> Census:
    """Wrap the query plane's doors; returns the live :class:`Census`."""
    census = Census()
    closure, merge, finish = QueryEngine._closure, QueryEngine._merge_closure, QueryEngine._finish
    ship = QueryEngine._ship
    handle_timeout, schedule = QueryEngine.handle_timeout, EventScheduler.schedule
    rebuild, route_cost = EventScheduler._rebuild, SimulationKernel._route_cost
    render, node_lookup = message.key_payload_bytes, NetworkStats.node
    operator, new_graph, new_node = (
        ProvenancePointer.operator, DerivationGraph.__init__, DerivationNode.__init__
    )

    def counted_closure(self, *args):
        census["closure lookups"] += 1
        return closure(self, *args)

    def counted_merge(self, pending, node, entries, missing, now):
        census["closure entries received"] += len(entries)
        census["missing keys received"] += len(missing)
        return merge(self, pending, node, entries, missing, now)

    def counted_ship(self, query_id, sender, wire, send_time):
        framing = message.MESSAGE_HEADER_BYTES + message.QUERY_FLAG_BYTES
        size = wire.size_bytes()
        census["query bytes: headers"] += framing
        if type(wire) is message.QueryRequest:
            census["query bytes: request keys"] += size - framing
        else:
            parts = {
                "response records": wire.closure.serialized_size(),
                "annotations": wire.annotation_bytes,
                "signatures": wire.signature_bytes(),
            }
            for part, count in parts.items():
                census[f"query bytes: {part}"] += count
            census["query bytes: keys shipped in responses"] += (
                size - framing - sum(parts.values())
            )
        return ship(self, query_id, sender, wire, send_time)

    def counted_finish(self, pending, at_time):
        # Whole entries, and the first piece of a split one, are merges.
        for item in pending.merged:
            if type(item) is message.QueryClosureEntry:
                census["closure entries merged"] += 1
            elif len(item) == 3:
                census["closure entries merged"] += item[1] == 0
                census["mid-entry splits"] += item[1] != 0
        if read:
            census["graphs read"] += 1
            pending.result()  # what an API caller reads: the graph, built now
        return finish(self, pending, at_time)

    def counted_handle_timeout(self, event, at):
        pending = self._queries.get(event.query_id)
        census["QueryTimeouts fired"] += 1
        census["QueryTimeouts that expired a request"] += (
            pending is not None and event.request_id in pending.outstanding
        )
        return handle_timeout(self, event, at)

    def counted_schedule(self, event, stamp=None):
        if type(event) is QueryTimeout:
            census.timeouts.append(event)
        sequence = schedule(self, event, stamp)
        census["event heap high-water"] = max(
            census["event heap high-water"], len(self._heap)
        )
        return sequence

    def counted_rebuild(self):
        census["cancelled entries rebuilt away"] += self._cancelled
        return rebuild(self)

    def counted_route_cost(self, source, destination):
        census["route costs computed"] += 1
        return route_cost(self, source, destination)

    def counted_render(key):
        census["key renders"] += 1
        return render(key)

    def counted_node_lookup(self, address):
        census["NetworkStats.node lookups"] += 1
        return node_lookup(self, address)

    def counted_operator(self):
        census["operator nodes built"] += 1
        return operator(self)

    def counted_graph(self):
        census["graphs built"] += 1
        new_graph(self)

    def counted_node(self, *args, **kwargs):
        census["tuple nodes built"] += 1
        new_node(self, *args, **kwargs)

    QueryEngine._closure, QueryEngine._merge_closure = counted_closure, counted_merge
    QueryEngine._finish, QueryEngine.handle_timeout = counted_finish, counted_handle_timeout
    QueryEngine._ship = counted_ship
    EventScheduler.schedule, EventScheduler._rebuild = counted_schedule, counted_rebuild
    SimulationKernel._route_cost = counted_route_cost
    message.key_payload_bytes, NetworkStats.node = counted_render, counted_node_lookup
    ProvenancePointer.operator, DerivationGraph.__init__ = counted_operator, counted_graph
    DerivationNode.__init__ = counted_node
    return census


def serve(args: argparse.Namespace, census: Census):
    """Converge (uncounted), then serve the workload; returns the run row."""
    network = Network.build(
        topology=args.nodes,
        program="best-path",
        provenance="condensed",
        query_cache=not args.no_cache,
        seed=args.seed,
    )
    assert network.run().converged, "the network did not converge"
    census.reset()  # converging is not the query plane
    workload = QueryWorkload(
        rate=args.rate, duration=args.seconds, seed=args.seed + 7, pool=64
    )
    return network.serve(workload, converge=False)


def print_census(census: Census, result) -> None:
    summary = result.stats.summary()
    scheduled = census.timeouts
    census["QueryTimeouts scheduled"] = len(scheduled)
    census["QueryTimeouts cancelled"] = sum(timeout.cancelled for timeout in scheduled)
    census["closure entries skipped as seen"] = (
        census["closure entries received"] - census["closure entries merged"]
    )
    for name in ("cache_hits", "cache_misses", "cache_invalidations"):
        census[f"closure lookups: {name[6:]}"] = int(summary[name])
    census["query messages"] = int(summary["query_messages"])
    census["query bytes"] = int(summary["query_bytes"])
    parts = sum(census[name] for name in ROWS if name.startswith("query bytes: "))
    assert parts == census["query bytes"], "the byte parts do not add up"
    completed = int(summary["queries_completed"])
    print(f"queries completed {completed} of {result.offered} offered")
    width = max(len(name) for name in ROWS)
    print(f"{'':<{width}} {'total':>10} {'per query':>10}")
    for name in ROWS:
        count = census[name]
        print(f"{name:<{width}} {count:>10} {count / max(completed, 1):>10.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="simulated seconds of arrivals")
    parser.add_argument("--rate", type=float, default=100.0, help="queries per second")
    parser.add_argument("--no-cache", action="store_true", help="serve without the result cache")
    parser.add_argument("--read", action="store_true",
                        help="read every query's graph as it completes")
    args = parser.parse_args()
    census = install(args.read)
    print_census(census, serve(args, census))


if __name__ == "__main__":
    main()
