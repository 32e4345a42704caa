"""Real-time diagnostics and accountability (Section 3).

Two scenarios in one script, both on the ``Network`` facade:

* **diagnostics** — a route starts flapping (a misbehaving node keeps
  re-advertising different costs); the sliding-window monitor raises an
  alarm, and the monitoring node attributes the flap by *querying the
  network for the route's provenance* — paying query messages — before
  purging everything derived from the culprit;
* **accountability** — a PlanetFlow-style audit of everything each
  principal sent during a Best-Path run, straight from the run's per-node
  statistics (query traffic billed like any other usage).

Run with::

    python examples/diagnostics_and_accountability.py
"""

from __future__ import annotations

from repro.api import Network
from repro.engine.tuples import Fact
from repro.provenance.log import DerivationLog
from repro.provenance.polynomial import p_product, p_var
from repro.usecases.accountability import AccountabilityAuditor, UsagePolicy
from repro.usecases.diagnostics import FlapEvent, RouteFlapDetector


def diagnostics_scenario() -> None:
    print("== real-time diagnostics: route-flap detection ==")
    detector = RouteFlapDetector(window_seconds=30.0, threshold=3)

    # The route n1 -> n9 is re-advertised four times in 20 seconds by a
    # misbehaving neighbour n7; a healthy route changes once.
    events = [
        FlapEvent("n1", "n9", 2.0, new_cost=5.0),
        FlapEvent("n1", "n9", 8.0, new_cost=9.0),
        FlapEvent("n1", "n9", 15.0, new_cost=4.0),
        FlapEvent("n1", "n9", 21.0, new_cost=11.0),
        FlapEvent("n1", "n4", 10.0, new_cost=3.0),
    ]

    # Online provenance for the routes involved (who asserted them).
    provenance = {
        ("n1", "n9"): p_product(p_var("n7"), p_var("n9")).condense(),
        ("n1", "n4"): p_var("n4"),
    }

    # n1's live derivation log with a chain rooted at the flapping route.
    store = DerivationLog("n1", track_dependencies=True)
    route = Fact(relation="bestPath", values=("n1", "n9", ("n1", "n7", "n9"), 9.0))
    downstream = Fact(relation="forwarding", values=("n1", "n9", "n7"))
    store.append(route.key(), "p4", 0.0, None, ())
    store.append(downstream.key(), "f1", 0.0, None, (route,))

    report = detector.run(
        events,
        provenance_of=provenance,
        online_store=store,
        route_key_of={("n1", "n9"): route.key()},
        trusted=("n9",),
    )
    print(f"alarms raised for      : {report.alarms}")
    print(f"suspicious principals  : {report.suspicious_principals}")
    print(f"purged derived tuples  : {len(report.purged_tuples)}")
    for key in report.purged_tuples:
        print(f"   {key[0]}{key[1]}")
    print()


def in_network_attribution() -> None:
    print("== diagnostics, in-band: provenance fetched over the network ==")
    # A real run: the monitoring node queries the network for a route's
    # provenance instead of reading a local dictionary — attribution now has
    # a message cost, reported in the query category.
    network = Network.build(topology=8, provenance="condensed", seed=3)
    network.run()
    monitor = network.topology.nodes[0]
    route = max(
        network.node(monitor).facts("bestPath"), key=lambda f: len(f.values[2])
    )
    entry = (route.values[0], route.values[1])
    detector = RouteFlapDetector(window_seconds=30.0, threshold=2)
    for t in (1.0, 7.0, 13.0):
        detector.observe_route_change(entry[0], entry[1], t)
    flapping = detector.flapping_entries(now=13.0)
    suspects = detector.identify_suspects_over_network(
        network,
        flapping,
        route_key_of={entry: route.key()},
        at=monitor,
        trusted=(monitor,),
    )
    summary = network.stats.summary()
    print(f"flapping entries       : {flapping}")
    print(f"suspects (via queries) : {suspects}")
    print(f"attribution wire cost  : {summary['query_messages']:.0f} messages, "
          f"{summary['query_bytes']:.0f} bytes")
    print()


def accountability_scenario() -> None:
    print("== accountability: PlanetFlow-style audit of a Best-Path run ==")
    network = Network.build(topology=8, provenance="sendlog-prov", seed=3)
    network.run()
    # A couple of tracebacks, so the audit has query traffic to bill too.
    monitor = network.topology.nodes[0]
    for fact in network.node(monitor).facts("bestPath")[:2]:
        network.query(fact, at=monitor)

    auditor = AccountabilityAuditor.from_network(network)
    heaviest = auditor.top_talkers(3)
    print("top talkers (by bytes):")
    for record in heaviest:
        queries = record.relations.get("query", 0)
        note = f" ({queries} query messages)" if queries else ""
        print(f"   {record.principal}: {record.messages} messages, "
              f"{record.bytes_sent} bytes{note}")

    # Flag any node that sent more than twice the average.
    average = sum(r.messages for r in auditor.records()) / max(len(auditor.records()), 1)
    for record in auditor.records():
        auditor.set_policy(record.principal, UsagePolicy(max_messages=int(average * 2)))
    violations = auditor.violations()
    if violations:
        print("violations:")
        for violation in violations:
            print(f"   {violation.principal}: {violation.detail}")
    else:
        print(f"no node exceeded 2x the average of {average:.0f} messages")


def main() -> None:
    diagnostics_scenario()
    in_network_attribution()
    accountability_scenario()


if __name__ == "__main__":
    main()
