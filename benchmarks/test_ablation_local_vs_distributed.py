"""Ablation E6: local versus distributed provenance (Section 4.1).

The trade-off the paper describes: local provenance piggy-backs provenance on
every shipped tuple (communication overhead during normal operation, cheap
queries), while distributed provenance stores only pointers (no shipping
overhead, but answering a provenance query requires a recursive traceback
across nodes).

The benchmark runs the same workload in both modes and reports:

* extra bandwidth the local (condensed, piggy-backed) mode spends up front;
* remote lookups a traceback needs per queried tuple in the distributed mode.
"""

from __future__ import annotations

import pytest

from repro.engine.node_engine import EngineConfig, ProvenanceMode
from repro.net.kernel import SimulationKernel
from repro.net.topology import random_topology
from repro.provenance.distributed import traceback
from repro.queries.best_path import compile_best_path
from repro.security.says import SaysMode

NODE_COUNT = 15
SEED = 0


def _run(provenance_mode: ProvenanceMode):
    topology = random_topology(NODE_COUNT, seed=SEED)
    config = EngineConfig(says_mode=SaysMode.NONE, provenance_mode=provenance_mode)
    return SimulationKernel(topology, compile_best_path(), config).run()


def test_local_vs_distributed_provenance(benchmark, capsys):
    def run_both():
        return _run(ProvenanceMode.CONDENSED), _run(ProvenanceMode.DISTRIBUTED)

    local_result, distributed_result = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # Local provenance pays communication up front.
    local_bytes = local_result.stats.total("bytes_sent")
    distributed_bytes = distributed_result.stats.total("bytes_sent")
    shipping_overhead = local_result.stats.total("provenance_bytes_sent")
    assert shipping_overhead > 0
    assert distributed_result.stats.total("provenance_bytes_sent") == 0
    assert local_bytes > distributed_bytes

    # Distributed provenance pays at query time: count remote lookups needed
    # to reconstruct the provenance of every best path at one node.
    stores = {
        address: engine.provenance
        for address, engine in distributed_result.engines.items()
    }
    source = "n0"
    engine = distributed_result.engines[source]
    lookups = []
    for fact in engine.facts("bestPath"):
        walk = traceback(fact.key(), source, stores.get)
        assert walk.complete
        lookups.append(walk.remote_lookups)
    average_lookups = sum(lookups) / len(lookups)

    benchmark.extra_info.update(
        {
            "local_total_bytes": local_bytes,
            "distributed_total_bytes": distributed_bytes,
            "piggyback_overhead_bytes": shipping_overhead,
            "avg_remote_lookups_per_query": round(average_lookups, 2),
            "queried_tuples": len(lookups),
        }
    )
    with capsys.disabled():
        print(
            "\nAblation: local provenance ships "
            f"{shipping_overhead} extra bytes up front "
            f"({100 * (local_bytes / distributed_bytes - 1):.0f}% more bandwidth); "
            f"distributed provenance instead needs {average_lookups:.1f} remote "
            f"lookups per provenance query ({len(lookups)} queries measured)."
        )

    # The trade-off must actually be a trade-off: queries are not free in the
    # distributed mode.
    assert average_lookups >= 1.0
