"""Serial vs sharded wall clock at 1 ms links.

The Best-Path NDlog workload once on ``backend="serial"`` and once on
``backend="sharded"`` (multiprocessing workers) over the same ≥200-node
topology at the default 1 ms link latency — the regime where per-window
coordination eats the speedup.  Equivalence (identical derived-fact counts,
identical integer/byte statistics) is asserted always; the speedup target
only where it is physically attainable (enough cores, or
``REPRO_SHARD_ASSERT=1``).  The measurement, coordination ledger included,
is written to ``BENCH_shard.json`` in the working directory,
unconditionally.

Environment knobs::

    REPRO_SCALE_N=200        topology size (unset: 24, the smoke size, and
                             200 under REPRO_SCALE_FULL=1)
    REPRO_SHARD_COUNT=4      shard / worker count
    REPRO_SHARD_ASSERT=1     force the speedup assertion on (0 forces off)
    REPRO_SHARD_TARGET=1.5   required speedup

The 1 ms latency makes the conservative lookahead window — and with it the
number of barrier windows — 50x tighter than the old 50 ms WAN figure;
simulated *results* are latency-scaled but backend-identical either way.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.engine.node_engine import EngineConfig
from repro.net.kernel import SimulationKernel
from repro.net.sharding import ShardedSimulator
from repro.net.stats import COORDINATION_KEYS
from repro.net.topology import random_topology
from repro.queries.best_path import compile_best_path

from conftest import scale_full, scale_n

#: Link and linkless (reverse-link) latency: the conservative lookahead
#: window.  1 ms — the coordination-bound regime this benchmark measures.
BENCH_LATENCY = 0.001

#: Measurement artifact, written unconditionally in the working directory.
ARTIFACT = "BENCH_shard.json"


def shard_count() -> int:
    return int(os.environ.get("REPRO_SHARD_COUNT", "4"))


def speedup_target() -> float:
    return float(os.environ.get("REPRO_SHARD_TARGET", "1.5"))


def assert_speedup() -> bool:
    forced = os.environ.get("REPRO_SHARD_ASSERT")
    if forced is not None:
        return forced not in ("", "0")
    # A speedup is only meaningful at the full size.
    return scale_full() and (os.cpu_count() or 1) >= shard_count()


def _write_artifact(record) -> None:
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump({"wall_clock": record}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _assert_summaries_equal(serial, sharded) -> None:
    serial_summary, sharded_summary = serial.summary(), sharded.summary()
    for key in serial_summary:
        if key in COORDINATION_KEYS:
            continue  # the ledger describes coordination, not the network
        if key == "completion_time_s" and serial_summary[key] != sharded_summary[key]:
            continue  # live snapshots carry it only after finish()
        if key == "cpu_seconds":
            assert serial_summary[key] == pytest.approx(
                sharded_summary[key], rel=1e-12
            )
        else:
            assert serial_summary[key] == sharded_summary[key], key


def test_shard_scaling(benchmark):
    node_count = scale_n(200)
    shards = shard_count()
    topology = random_topology(node_count, seed=0, latency=BENCH_LATENCY)
    compiled = compile_best_path()

    started = time.perf_counter()
    serial = SimulationKernel(
        topology, compiled, EngineConfig(), default_latency=BENCH_LATENCY
    ).run()
    serial_seconds = time.perf_counter() - started
    assert serial.converged

    def run_sharded():
        return ShardedSimulator(
            topology,
            compiled,
            EngineConfig(),
            default_latency=BENCH_LATENCY,
            shards=shards,
            shard_mode="processes",
        ).run()

    started = time.perf_counter()
    sharded = benchmark.pedantic(run_sharded, rounds=1, iterations=1, warmup_rounds=0)
    sharded_seconds = time.perf_counter() - started
    assert sharded.converged

    # The backends' contract, always enforced: identical facts and
    # integer/byte statistics (floats agree up to summation order).
    _assert_summaries_equal(serial.stats, sharded.stats)
    expected_paths = node_count * (node_count - 1)
    assert len(serial.all_facts("bestPath")) == expected_paths
    assert len(sharded.all_facts("bestPath")) == expected_paths

    speedup = serial_seconds / sharded_seconds if sharded_seconds else float("inf")
    ledger = {
        key: int(sharded.stats.summary()[key]) for key in sorted(COORDINATION_KEYS)
    }
    record = {
        "node_count": node_count,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "latency_s": BENCH_LATENCY,
        "serial_wall_s": round(serial_seconds, 3),
        "sharded_wall_s": round(sharded_seconds, 3),
        "speedup": round(speedup, 3),
        "speedup_asserted": assert_speedup(),
        "ledger": ledger,
    }
    benchmark.extra_info.update(record)
    _write_artifact(record)
    print(
        f"\nshard scaling N={node_count} shards={shards} latency=1ms: "
        f"serial {serial_seconds:.2f}s, sharded {sharded_seconds:.2f}s, "
        f"speedup {speedup:.2f}x (cores: {os.cpu_count()}), "
        f"rounds={ledger['coordination_rounds']}"
    )

    if assert_speedup():
        assert speedup >= speedup_target(), (
            f"sharded backend reached only {speedup:.2f}x over serial at "
            f"N={node_count}, shards={shards} (target {speedup_target()}x); "
            "set REPRO_SHARD_ASSERT=0 to measure without asserting"
        )
