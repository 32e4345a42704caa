"""Ablation E5: how much does condensation (Section 4.4) actually save?

The design choice under test: shipping BDD-condensed provenance expressions
instead of raw provenance polynomials (or full derivation trees).  The
benchmark runs the Best-Path query with provenance enabled, collects the
provenance of every best-path tuple at every node, and compares the
serialized sizes of

* the raw (uncondensed) polynomial,
* the condensed polynomial (what SeNDlogProv ships), and
* the full rendered derivation tree (what naive local provenance would ship).
"""

from __future__ import annotations

import pytest

from repro.engine.node_engine import EngineConfig, ProvenanceMode
from repro.net.kernel import SimulationKernel
from repro.net.topology import random_topology
from repro.queries.best_path import compile_best_path
from repro.security.says import SaysMode


def _provenance_sizes(node_count: int = 15, seed: int = 0):
    topology = random_topology(node_count, seed=seed)
    config = EngineConfig(says_mode=SaysMode.NONE, provenance_mode=ProvenanceMode.CONDENSED)
    result = SimulationKernel(topology, compile_best_path(), config).run()

    raw_bytes = 0
    condensed_bytes = 0
    tree_bytes = 0
    tuples = 0
    for address, engine in result.engines.items():
        log = engine.provenance
        for fact in engine.facts("bestPath"):
            key = fact.key()
            graph = log.graph(key)
            raw = graph.to_expression(key)
            condensed = log.annotation(key)
            tuples += 1
            raw_bytes += raw.serialized_size()
            condensed_bytes += condensed.serialized_size()
            tree_bytes += len(graph.render(key).encode("utf-8"))
    return {
        "tuples": tuples,
        "raw_bytes": raw_bytes,
        "condensed_bytes": condensed_bytes,
        "tree_bytes": tree_bytes,
    }


def test_condensation_ablation(benchmark, capsys):
    sizes = benchmark.pedantic(_provenance_sizes, rounds=1, iterations=1)
    assert sizes["tuples"] > 0
    # Condensed annotations never exceed the raw polynomial, and are far
    # smaller than shipping the whole derivation tree.
    assert sizes["condensed_bytes"] <= sizes["raw_bytes"]
    assert sizes["condensed_bytes"] < sizes["tree_bytes"] / 2

    benchmark.extra_info.update(
        {
            "tuples": sizes["tuples"],
            "avg_condensed_bytes": round(sizes["condensed_bytes"] / sizes["tuples"], 1),
            "avg_raw_bytes": round(sizes["raw_bytes"] / sizes["tuples"], 1),
            "avg_tree_bytes": round(sizes["tree_bytes"] / sizes["tuples"], 1),
        }
    )
    with capsys.disabled():
        per = sizes["tuples"]
        print(
            "\nAblation: per-tuple provenance size (bytes) — "
            f"condensed {sizes['condensed_bytes'] / per:.1f}, "
            f"raw polynomial {sizes['raw_bytes'] / per:.1f}, "
            f"full derivation tree {sizes['tree_bytes'] / per:.1f}"
        )
