"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figure 3, Figure 4, the Section 6 overhead percentages, plus two ablations).
The node-count sweep defaults to a subset of the paper's 10..100 so that
``pytest benchmarks/ --benchmark-only`` finishes in minutes; set

    REPRO_BENCH_SIZES=10,20,30,40,50,60,70,80,90,100

to run the full sweep the paper uses.

The three scale benchmarks (``test_scaling_topology``, ``test_shard_scaling``,
``test_resident_bytes_bounded_by_run_length``) make the same functional
assertions at any size, so tier-1 collects them at their smoke size; set
``REPRO_SCALE_FULL=1`` for the N=200 (N=48 churn) points, or pin a size with
``REPRO_SCALE_N``.
"""

from __future__ import annotations

import json
import os
from typing import Tuple

import pytest

from repro.harness.experiments import sweep

#: Node counts benchmarked by default (subset of the paper's sweep).
DEFAULT_BENCH_SIZES: Tuple[int, ...] = (10, 20, 30)


#: Node count of the scale benchmarks unless ``REPRO_SCALE_FULL=1`` (or an
#: explicit ``REPRO_SCALE_N``) asks for more — the size ``make bench-smoke``
#: has always pinned.
SMOKE_SCALE_N = 24


def scale_full() -> bool:
    return os.environ.get("REPRO_SCALE_FULL", "") not in ("", "0")


def scale_n(full: int) -> int:
    """``REPRO_SCALE_N`` when set; else *full* under ``REPRO_SCALE_FULL=1``
    and the smoke size otherwise."""
    pinned = os.environ.get("REPRO_SCALE_N")
    if pinned:
        return int(pinned)
    return full if scale_full() else SMOKE_SCALE_N


def write_artifact(path: str, section: str, payload) -> None:
    """Store *payload* as *section* of the JSON artifact at *path*.

    The other sections already in the file are kept, so the tests that
    share an artifact can run in any order or alone; an unreadable file
    starts over.
    """
    data = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def bench_sizes() -> Tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_SIZES")
    if not raw:
        return DEFAULT_BENCH_SIZES
    return tuple(int(part) for part in raw.split(",") if part.strip())


@pytest.fixture(scope="session")
def evaluation_sweep():
    """One full sweep shared by the figure/overhead benchmarks' reporting."""
    return sweep(node_counts=bench_sizes(), seeds=(0,))
