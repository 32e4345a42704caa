"""Link-failure forensics: provenance of a network that changed under you.

Scenario: a Best-Path network converges, then one of its links dies.  The
link's owner retracts the base tuple (cascading invalidation through
everything it derived from it), stale state elsewhere decays by soft-state
TTL, and the next refresh round reroutes traffic.  Afterwards an operator
asks the forensic questions the paper motivates:

* what does the network route *now* (the repaired fixpoint)?
* which routes did the dead link carry *before* it failed?  The live
  provenance stores no longer vouch for it — that is the point of
  invalidation — but the offline archives kept the historical record, and
  an **in-network offline query** retrieves it with real message costs.

Run with::

    python examples/link_failure_forensics.py
"""

from __future__ import annotations

from repro.harness.scenarios import link_failure_scenario, run_scenario
from repro.usecases.forensics import ForensicInvestigator


def main() -> None:
    scenario, network = link_failure_scenario(
        node_count=10,
        seed=3,
        provenance="condensed",
        keep_offline_provenance=True,
    )
    source, destination = scenario.details["failed_link"]
    print(f"scenario: {scenario.description}\n")

    report = run_scenario(scenario, network)
    print(report.render())
    print()

    # --- the repaired network ------------------------------------------------------
    engine = network.node(source)
    rerouted = next(
        (
            fact
            for fact in engine.facts("bestPath")
            if fact.values[0] == source and fact.values[1] == destination
        ),
        None,
    )
    if rerouted is not None:
        hops = " -> ".join(rerouted.values[2])
        print(f"repaired route {source} -> {destination}: {hops} "
              f"(cost {rerouted.values[3]:g})")
    print(f"live link tuples at {source}: "
          f"{sorted(f.values[1] for f in engine.facts('link'))}")
    print(f"(the failed link {source} -> {destination} is gone; its local "
          "provenance was invalidated by the retraction cascade)\n")

    # --- the live network has forgotten; ask it anyway -------------------------------
    if rerouted is not None:
        answer = network.query(rerouted, at=source)
        print(f"in-network traceback of the repaired route:")
        print(f"  complete={answer.complete}, {answer.messages} messages, "
              f"{answer.bytes} bytes, {answer.latency * 1000:.1f} ms")
        offline = network.query(rerouted, at=source, mode="offline")
        print(f"offline-archive query of the same route: complete={offline.complete}, "
              f"{offline.bytes} bytes\n")

    # --- the forensic question: what did the dead link influence? -------------------
    investigator = ForensicInvestigator.from_network(network)
    impact = investigator.link_failure_impact(source, destination)
    print(f"offline-archive post-mortem of link {source} -> {destination}:")
    print(f"  archived base tuples : {len(impact.base_keys)}")
    print(f"  influenced tuples    : {len(impact.affected)}")
    for relation, count in sorted(impact.by_relation.items()):
        print(f"      {relation:<14s}{count:>5d}")
    footprint = investigator.storage_footprint()
    print(f"  archive footprint    : {sum(footprint.values())} bytes across "
          f"{len(footprint)} nodes")
    print("\nThe live network has forgotten the link; the archives have not —")
    print("exactly the split the paper's offline provenance story calls for.")


if __name__ == "__main__":
    main()
