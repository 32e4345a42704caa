"""Quickstart: build, run and *query* a secure provenance-aware network.

The whole pipeline through the first-class API:

1. ``Network.build`` assembles topology + program + provenance preset
   (here ``"sendlog-prov"``: every exchanged tuple is signed by its
   asserting principal and carries condensed provenance);
2. ``network.run()`` drives the network to its distributed fixpoint and
   returns a unified ``RunResult``;
3. the computed best paths and their condensed provenance are inspected;
4. ``network.query(...)`` answers a traceback *in-network* — the pointer
   chase ships real messages whose bytes and latency appear in the
   statistics under the dedicated query category;
5. the sharded backend re-runs the same network and the stats match the
   serial run integer-for-integer;
6. the offline archive re-runs it with a small hot tier: old derivations
   live only in an append-only per-node log, and offline forensics still
   answer — through spill reads.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import Network
from repro.provenance.quantify import count_derivations, trust_level, vote_principals
from repro.queries.best_path import BEST_PATH_NDLOG


def main() -> None:
    print("The Best-Path query (Section 6 of the paper):")
    print(BEST_PATH_NDLOG)

    # 1. One call replaces topology/program/config/keystore hand-wiring.
    #    The program is statically analyzed on the way in (lint="error" is
    #    the default: unsafe rules, arity/type conflicts and unverifiable
    #    `says` imports raise LintError before anything runs; lint="warn"
    #    downgrades findings to warnings, lint="off" skips the analyzer —
    #    the same checks run standalone as `python -m repro.datalog.lint`).
    network = Network.build(
        topology=12,                      # the paper's workload: N nodes, out-degree 3
        program="best-path",
        provenance="sendlog-prov",        # NDLog / SeNDLog / SeNDLogProv presets
        seed=42,
        keep_offline_provenance=True,
    )
    topology = network.topology
    print(
        f"topology: {topology.node_count} nodes, {topology.link_count} links, "
        f"average out-degree {topology.average_outdegree():.1f}"
    )

    # 2. Run to the distributed fixpoint.
    result = network.run()
    print(
        f"\ndistributed fixpoint reached at t={result.completion_time_s:.2f}s "
        f"(simulated); {result.total_messages} messages, "
        f"{result.bandwidth_mb:.3f} MB total bandwidth"
    )

    # 3. Inspect results and provenance at one node.
    source = topology.nodes[0]
    engine = network.node(source)
    best_paths = engine.facts("bestPath")
    print(f"\nnode {source} computed {len(best_paths)} best paths; a few of them:")
    for fact in sorted(best_paths, key=lambda f: f.values)[:3]:
        annotation = engine.provenance_of(fact)
        print(f"  {fact}")
        print(f"    condensed provenance : {annotation}")
        print(f"    supporting principals: {sorted(annotation.variables())}")
        print(
            f"    derivations={count_derivations(annotation)} "
            f"votes={vote_principals(annotation)} "
            f"trust(level 1 everywhere)={trust_level(annotation, {}, default_level=1)}"
        )
    # Each node keeps one live derivation log (``engine.provenance``); a
    # derivation graph is a view built from it when somebody asks.  This is
    # the part of the tree the node itself derived — the rest lives where it
    # was derived, and step 4 fetches it over the network.
    shortest = min(best_paths, key=lambda f: len(f.values[2]))
    print(f"  local derivation of {shortest}:")
    for line in engine.provenance.graph(shortest.key()).render(shortest.key()).splitlines():
        print(f"    {line}")

    # 4. Ask the network itself where a route came from.  The traceback
    #    compiles into QueryRequest/QueryResponse events: every remote
    #    pointer dereference is a real message paying bytes and latency.
    target = max(best_paths, key=lambda f: len(f.values[2]))
    answer = network.query(target, at=source)
    print(f"\nin-network traceback of {target}:")
    print(f"  complete        : {answer.complete}")
    print(f"  nodes visited   : {', '.join(answer.nodes_visited)}")
    print(f"  remote lookups  : {answer.remote_lookups}")
    print(f"  wire cost       : {answer.messages} messages, {answer.bytes} bytes, "
          f"{answer.latency * 1000:.1f} ms simulated latency")
    summary = network.stats.summary()
    print(f"  ledger          : query_bytes={summary['query_bytes']:.0f} of "
          f"total_bytes={summary['total_bytes']:.0f} "
          "(maintenance vs query overhead, same currency)")

    # 5. Scale-out is one option away: the sharded backend partitions the
    #    topology into parallel per-shard kernels with deterministic
    #    synchronization.  Derived facts and every integer/byte statistic
    #    are identical to the serial run above — sharding only changes
    #    wall-clock time — so the contract can be *checked*, not trusted.
    #    Shards meet at conservative lockstep barriers and exchange pickled
    #    frames; the coordination ledger in the stats shows the cost.
    sharded = Network.build(
        topology=12,
        program="best-path",
        provenance="sendlog-prov",
        seed=42,
        keep_offline_provenance=True,
        backend="sharded",
        shards=3,
        shard_mode="inline",          # in-process shard kernels (demo-sized N)
    )
    sharded_result = sharded.run()
    plan = sharded.simulator.plan
    print(
        f"\nsharded backend: {plan.shard_count} shards "
        f"{[len(group) for group in plan.shards]} nodes each, "
        f"{len(plan.cut_links)} cut links, "
        f"lookahead window {sharded.simulator.window * 1000:.1f} ms"
    )
    ledger = sharded.stats.summary()
    print(
        f"  coordination ledger: {ledger['coordination_rounds']:.0f} rounds, "
        f"{ledger['coordination_bytes']:.0f} frame bytes, "
        f"{ledger['windows_executed']:.0f} windows executed"
    )
    # The serial stats above include the traceback's query traffic, so
    # compare on the maintenance side of the ledger (and the fixpoint).
    checks = {
        "maintenance_bytes": tuple(
            side["total_bytes"] - side["query_bytes"] for side in (summary, ledger)
        ),
        "maintenance_messages": tuple(
            side["total_messages"] - side["query_messages"]
            for side in (summary, ledger)
        ),
        **{
            key: (summary[key], ledger[key])
            for key in ("security_bytes", "provenance_bytes", "facts_derived", "facts_rejected")
        },
        "best_paths": (result.count("bestPath"), sharded_result.count("bestPath")),
    }
    assert all(left == right for left, right in checks.values()), checks
    print(f"  serial == sharded on {', '.join(checks)}")

    # 6. Memory-bounded provenance: the same network with a small hot tier
    #    in front of each offline archive.  The hot tier caches a handful
    #    of entry groups; everything else lives in an append-only spill log
    #    (in memory here; pass spill_dir= to put it in files) and is read
    #    back only when a forensic query asks for it.
    tiered = Network.build(
        topology=12,
        program="best-path",
        provenance="sendlog-prov",
        seed=42,
        keep_offline_provenance=True,
        hot_tier_entries=16,
    )
    tiered.run()
    tiered_summary = tiered.stats.summary()
    resident = tiered_summary["provenance_bytes_resident"]
    spilled = tiered_summary["provenance_bytes_spilled"]
    print(
        f"\noffline archives (hot tier = 16 entries, log in memory):"
        f"\n  spill log bytes : {spilled:.0f}"
        f"\n  resident bytes  : {resident:.0f} (the log plus "
        f"{resident - spilled:.0f} of hot tier and shared annotations)"
    )
    offline = tiered.query(target, at=source, mode="offline")
    reads = tiered.stats.summary()["spill_reads"]
    print(
        f"  offline traceback of {target.relation}{target.values[:2]}: "
        f"complete={offline.complete}, answered with {reads:.0f} spill reads"
    )
    assert offline.complete and offline.graph.same_structure(answer.graph)


if __name__ == "__main__":
    main()
