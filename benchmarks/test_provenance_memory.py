"""Provenance memory: the benchmark axis the storage tiers exist for.

The offline archive buys the paper's forensics contract — every derivation
ever made, including retracted and expired ones, stays answerable — and its
cost is memory that grows with *run length*, not network size.  This module
measures that cost and demonstrates the hot tier and spill log bounding it,
comparing two archives: an *unbounded* one (a hot tier larger than the run,
the log in memory) and a *bounded* one (256 hot entries over a log file):

* ``test_bytes_per_derived_tuple`` — archived bytes per derived tuple as the
  node count sweeps ``REPRO_BENCH_SIZES``, unbounded vs bounded resident
  footprint side by side;
* ``test_resident_bytes_bounded_by_run_length`` — repeated link-retraction
  churn rounds at ``REPRO_SCALE_N`` nodes: the unbounded archive's footprint
  grows with every round while the bounded one's resident gauge stays flat
  at the hot-tier capacity (history keeps accumulating in the spill log, and
  offline tracebacks of retracted routes still answer — through spill reads).

Knobs: ``REPRO_BENCH_SIZES`` (node sweep), ``REPRO_SCALE_N`` (churn network
size; unset, 24 and 48 under ``REPRO_SCALE_FULL=1``),
``REPRO_BENCH_CHURN_ROUNDS`` (default 3).
"""

from __future__ import annotations

import os
from typing import Optional

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

#: The bounded archive's hot tier, and one larger than any run here: with
#: it every archived entry stays resident — the unbounded baseline.
BOUNDED_HOT_ENTRIES = 256
UNBOUNDED_HOT_ENTRIES = 1 << 30


def churn_rounds() -> int:
    return int(os.environ.get("REPRO_BENCH_CHURN_ROUNDS", "3"))


def build_and_run(
    node_count: int, spill_dir: Optional[str] = None, **extra
) -> Network:
    """Archive a Best-Path run: bounded (a log file under *spill_dir*) or,
    with no *spill_dir*, unbounded (every entry hot, the log in memory)."""
    network = Network.build(
        topology=node_count,
        program="best-path",
        provenance="condensed",
        keep_offline_provenance=True,
        seed=0,
        hot_tier_entries=(
            UNBOUNDED_HOT_ENTRIES if spill_dir is None else BOUNDED_HOT_ENTRIES
        ),
        spill_dir=spill_dir,
        **extra,
    )
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
    """Archived bytes per derived tuple, unbounded vs bounded residency."""

    def run():
        unbounded = build_and_run(node_count)
        bounded = build_and_run(node_count, str(tmp_path / f"spill-{node_count}"))
        return unbounded, bounded

    unbounded, bounded = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    entries = archived_entries(unbounded)
    assert entries > 0
    assert archived_entries(bounded) == entries

    unbounded_bytes = unbounded.stats.summary()["provenance_bytes_resident"]
    bounded_summary = bounded.stats.summary()
    assert unbounded_bytes > bounded_summary["provenance_bytes_resident"]
    assert bounded_summary["provenance_bytes_spilled"] > 0

    benchmark.extra_info["node_count"] = node_count
    benchmark.extra_info["derived_entries"] = entries
    benchmark.extra_info["unbounded_bytes_per_entry"] = unbounded_bytes / entries
    benchmark.extra_info["bounded_resident_bytes_per_entry"] = (
        bounded_summary["provenance_bytes_resident"] / entries
    )
    benchmark.extra_info["bounded_spilled_bytes_per_entry"] = (
        bounded_summary["provenance_bytes_spilled"] / entries
    )


def test_resident_bytes_bounded_by_run_length(benchmark, tmp_path):
    """Churn grows the unbounded archive but not the bounded resident gauge."""
    nodes = scale_n(FULL_CHURN_N)
    rounds = churn_rounds()
    unbounded = build_and_run(nodes, default_ttl=CHURN_TTL)
    bounded = build_and_run(nodes, str(tmp_path / "spill"), default_ttl=CHURN_TTL)

    baseline_unbounded = unbounded.stats.summary()["provenance_bytes_resident"]
    baseline_bounded = bounded.stats.summary()["provenance_bytes_resident"]

    def run():
        churn(unbounded, rounds)
        churn(bounded, rounds)

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)

    unbounded_summary = unbounded.stats.summary()
    bounded_summary = bounded.stats.summary()

    # The unbounded archive pays for history in memory ...
    assert unbounded_summary["provenance_bytes_resident"] > baseline_unbounded
    # ... the bounded one pays for it in the spill log: the resident gauge
    # stays within a small factor of its converged baseline (the hot tier
    # turned over, it did not grow with run length).
    assert bounded_summary["provenance_bytes_resident"] <= 2 * baseline_bounded
    assert (
        bounded_summary["provenance_bytes_spilled"]
        > bounded_summary["provenance_bytes_resident"]
    )

    # The history is still answerable: every route at the churned link's
    # source — all retracted and re-derived each round — must trace back
    # offline structurally identical to the unbounded archive, and the
    # answers must come (at least partly) from the spill log.
    source = unbounded.topology.links[0].source
    reads_before = bounded.stats.summary()["spill_reads"]
    routes = sorted(unbounded.node(source).facts("bestPath"), key=lambda f: f.values)
    assert routes
    for target in routes:
        answer = bounded.query(target, at=source, mode="offline")
        oracle = unbounded.query(target, at=source, mode="offline")
        assert answer.complete and oracle.complete
        assert answer.graph.same_structure(oracle.graph), target
    assert bounded.stats.summary()["spill_reads"] > reads_before

    benchmark.extra_info["node_count"] = nodes
    benchmark.extra_info["churn_rounds"] = rounds
    benchmark.extra_info["unbounded_resident_bytes"] = unbounded_summary[
        "provenance_bytes_resident"
    ]
    benchmark.extra_info["bounded_resident_bytes"] = bounded_summary[
        "provenance_bytes_resident"
    ]
    benchmark.extra_info["bounded_spilled_bytes"] = bounded_summary[
        "provenance_bytes_spilled"
    ]
    benchmark.extra_info["spill_reads"] = bounded.stats.summary()["spill_reads"]
