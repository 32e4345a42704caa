"""Forensic traceback over offline provenance (Sections 3 and 4.2).

Scenario: a network runs for a while; afterwards an operator wants to know,
for a suspicious route installed at some node, where it originated and which
nodes it traversed — the IP-traceback question — even though the routing
state itself may have expired.  Three ways to ask it, compared side by side:

* the **offline-archive investigator** reads every node's persistent log
  directly (zero simulated messages — the out-of-band baseline);
* the **zero-cost oracle** ``network.legacy_traceback`` walks the live
  distributed pointers through direct Python calls;
* the **in-network query** ``network.query(...)`` asks the same question
  over the wire: pointer chasing ships real request/response messages whose
  bytes and latency the statistics attribute to the query category.

Run with::

    python examples/forensics_traceback.py
"""

from __future__ import annotations

from repro.api import Network
from repro.usecases.forensics import ForensicInvestigator, traceback_over_network


def main() -> None:
    # A 6-node chain makes the multi-hop derivation easy to read.
    from repro.net.topology import line_topology

    network = Network.build(
        topology=line_topology(6),
        program="best-path",
        provenance="sendlog-prov",
        keep_offline_provenance=True,
    )
    network.run()

    # The route we are investigating: the best path from n0 to n5.
    source, destination = "n0", "n5"
    engine = network.node(source)
    target = next(
        fact
        for fact in engine.facts("bestPath")
        if fact.values[0] == source and fact.values[1] == destination
    )
    print(f"investigating: {target}")
    print(f"condensed provenance at {source}: {engine.provenance_of(target)}\n")

    # --- offline provenance: archives survive soft-state expiry --------------------
    investigator = ForensicInvestigator.from_network(network)
    report = investigator.traceback(target.key())
    print("offline-archive traceback (out-of-band, zero messages)")
    print(f"  nodes traversed : {', '.join(report.nodes_traversed)}")
    print(f"  rules applied   : {', '.join(report.rules_applied)}")
    print(f"  base origins    : {len(report.origins)} link tuples")
    print(f"  derivation depth: {report.derivation_depth}\n")

    # --- the zero-cost oracle: pointer walk by direct access to the live logs -------
    walk = network.legacy_traceback(target, at=source)
    print("distributed-pointer oracle (out-of-band, zero messages)")
    print(f"  complete        : {walk.complete}")
    print(f"  nodes visited   : {', '.join(walk.nodes_visited)}")
    print(f"  remote lookups  : {walk.remote_lookups}\n")

    # --- the same question asked IN the network -------------------------------------
    answer = network.query(target, at=source)
    print("in-network provenance query (pays wire costs)")
    print(f"  complete        : {answer.complete}")
    print(f"  same graph as oracle: {answer.graph.same_structure(walk.graph)}")
    print(f"  messages        : {answer.messages} "
          f"({answer.remote_lookups} remote dereferences)")
    print(f"  bytes on wire   : {answer.bytes}")
    print(f"  latency         : {answer.latency * 1000:.1f} ms simulated\n")

    # --- the forensic wrapper: in-band traceback over the archives ------------------
    forensic_report, forensic_cost = traceback_over_network(
        network, target, at=source, mode="offline"
    )
    print("in-network forensic traceback (offline archives, in-band)")
    print(f"  nodes traversed : {', '.join(forensic_report.nodes_traversed)}")
    print(f"  derivation depth: {forensic_report.derivation_depth}")
    print(f"  wire cost       : {forensic_cost.messages} messages, "
          f"{forensic_cost.bytes} bytes\n")

    # --- which routes did a suspect link influence? -----------------------------------
    suspect_link = ("link", ("n2", "n3", 1.0))
    affected = investigator.tuples_depending_on(suspect_link)
    print(f"tuples whose derivation used link(n2, n3): {len(affected)}")

    footprint = investigator.storage_footprint()
    print(f"offline archive footprint across nodes: {sum(footprint.values())} bytes "
          f"(max per node {max(footprint.values())})")


if __name__ == "__main__":
    main()
