"""Provenance memory: the benchmark axis the storage tiers exist for.

The offline archive buys the paper's forensics contract — every derivation
ever made, including retracted and expired ones, stays answerable — and its
cost is memory that grows with *run length*, not network size.  This module
measures that cost and demonstrates the tiered store bounding it:

* ``test_bytes_per_derived_tuple`` — archived bytes per derived tuple as the
  node count sweeps ``REPRO_BENCH_SIZES``, memory vs tiered resident
  footprint side by side;
* ``test_resident_bytes_bounded_by_run_length`` — repeated link-retraction
  churn rounds at ``REPRO_SCALE_N`` nodes: the in-memory archive's footprint
  grows with every round while the tiered store's resident gauge stays flat
  at the hot-tier capacity (history keeps accumulating in the spill log, and
  offline tracebacks of retracted routes still answer — through spill reads).

Knobs: ``REPRO_BENCH_SIZES`` (node sweep), ``REPRO_SCALE_N`` (churn network
size; unset, 24 and 48 under ``REPRO_SCALE_FULL=1``),
``REPRO_BENCH_CHURN_ROUNDS`` (default 3).
"""

from __future__ import annotations

import os

import pytest

from repro.api import Network
from repro.net.events import LinkDown, LinkUp, SoftStateRefresh

from conftest import bench_sizes, scale_n

#: Soft-state TTL for the churn runs: short enough that every churn round
#: decays and rebuilds the remote derived state (the growth mechanism the
#: archive pays for), long enough that convergence completes within it.
CHURN_TTL = 10.0


#: Every churn round decays and rebuilds the whole network (that is the
#: point), so the full size stays below the other scale tests' N: at N=100 a
#: single round costs ~1 CPU-minute.  The acceptance-level run is
#: REPRO_SCALE_N=100 (hot tier 256, see ROADMAP "Storage tiers").
FULL_CHURN_N = 48


def churn_rounds() -> int:
    return int(os.environ.get("REPRO_BENCH_CHURN_ROUNDS", "3"))


def build_and_run(
    node_count: int, tmp_path, store: str, hot: int = 256, **extra
) -> Network:
    options = dict(
        topology=node_count,
        program="best-path",
        provenance="condensed",
        keep_offline_provenance=True,
        seed=0,
        **extra,
    )
    if store == "tiered":
        options.update(
            provenance_store="tiered",
            hot_tier_entries=hot,
            spill_dir=str(tmp_path / f"spill-{node_count}"),
        )
    network = Network.build(**options)
    network.run()
    return network


def archived_entries(network: Network) -> int:
    return sum(
        len(engine.offline_provenance)
        for engine in network.simulator.engines.values()
    )


def churn(network: Network, rounds: int) -> None:
    """Retract-and-restore one link per round, then decay and rebuild.

    Each round retracts a link's base tuple (cascading invalidation),
    restores it, lets the soft state decay past its TTL and fires one
    refresh round — re-deriving (and re-archiving) the network's derived
    state.  This is the run-length growth mechanism the offline archive
    pays for: archived entries scale with rounds, live state does not.
    """
    link = network.topology.links[0]
    for _ in range(rounds):
        now = network.current_time()
        network.schedule(
            LinkDown(
                time=now + 1.0,
                source=link.source,
                destination=link.destination,
                retract=True,
            )
        )
        network.run_until_idle()
        now = network.current_time()
        network.schedule(
            LinkUp(time=now + 1.0, source=link.source, destination=link.destination)
        )
        network.schedule(SoftStateRefresh(time=now + CHURN_TTL + 2.0))
        network.run_until_idle()


@pytest.mark.parametrize("node_count", bench_sizes())
def test_bytes_per_derived_tuple(benchmark, tmp_path, node_count):
    """Archived bytes per derived tuple, memory vs tiered residency."""

    def run():
        memory = build_and_run(node_count, tmp_path, "memory")
        tiered = build_and_run(node_count, tmp_path, "tiered")
        return memory, tiered

    memory, tiered = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    entries = archived_entries(memory)
    assert entries > 0
    assert archived_entries(tiered) == entries

    memory_bytes = memory.stats.summary()["provenance_bytes_resident"]
    tiered_summary = tiered.stats.summary()
    assert memory_bytes > 0
    assert tiered_summary["provenance_bytes_spilled"] > 0

    benchmark.extra_info["node_count"] = node_count
    benchmark.extra_info["derived_entries"] = entries
    benchmark.extra_info["memory_bytes_per_entry"] = memory_bytes / entries
    benchmark.extra_info["tiered_resident_bytes_per_entry"] = (
        tiered_summary["provenance_bytes_resident"] / entries
    )
    benchmark.extra_info["tiered_spilled_bytes_per_entry"] = (
        tiered_summary["provenance_bytes_spilled"] / entries
    )


def test_resident_bytes_bounded_by_run_length(benchmark, tmp_path):
    """Churn grows the in-memory archive but not the tiered resident gauge."""
    nodes = scale_n(FULL_CHURN_N)
    rounds = churn_rounds()
    memory = build_and_run(nodes, tmp_path, "memory", default_ttl=CHURN_TTL)
    tiered = build_and_run(
        nodes, tmp_path, "tiered", hot=256, default_ttl=CHURN_TTL
    )

    baseline_memory = memory.stats.summary()["provenance_bytes_resident"]
    baseline_tiered = tiered.stats.summary()["provenance_bytes_resident"]

    def run():
        churn(memory, rounds)
        churn(tiered, rounds)

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)

    memory_summary = memory.stats.summary()
    tiered_summary = tiered.stats.summary()

    # The unbounded archive pays for history in memory ...
    assert memory_summary["provenance_bytes_resident"] > baseline_memory
    # ... the tiered store pays for it in the spill log: the resident gauge
    # stays within a small factor of its converged baseline (the hot tier
    # turned over, it did not grow with run length).
    assert tiered_summary["provenance_bytes_resident"] <= 2 * baseline_tiered
    assert (
        tiered_summary["provenance_bytes_spilled"]
        > tiered_summary["provenance_bytes_resident"]
    )

    # The history is still answerable: every route at the churned link's
    # source — all retracted and re-derived each round — must trace back
    # offline structurally identical to the unbounded oracle, and the
    # answers must come (at least partly) from the spill log.
    source = memory.topology.links[0].source
    reads_before = tiered.stats.summary()["spill_reads"]
    routes = sorted(memory.node(source).facts("bestPath"), key=lambda f: f.values)
    assert routes
    for target in routes:
        answer = tiered.query(target, at=source, mode="offline")
        oracle = memory.query(target, at=source, mode="offline")
        assert answer.complete and oracle.complete
        assert answer.graph.same_structure(oracle.graph), target
    assert tiered.stats.summary()["spill_reads"] > reads_before

    benchmark.extra_info["node_count"] = nodes
    benchmark.extra_info["churn_rounds"] = rounds
    benchmark.extra_info["memory_resident_bytes"] = memory_summary[
        "provenance_bytes_resident"
    ]
    benchmark.extra_info["tiered_resident_bytes"] = tiered_summary[
        "provenance_bytes_resident"
    ]
    benchmark.extra_info["tiered_spilled_bytes"] = tiered_summary[
        "provenance_bytes_spilled"
    ]
    benchmark.extra_info["spill_reads"] = tiered.stats.summary()["spill_reads"]
