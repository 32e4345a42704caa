"""Figure 4: bandwidth utilisation for the Best-Path query.

Same sweep as Figure 3, measuring the total combined bandwidth usage (MB)
across all nodes for the three configurations.
"""

from __future__ import annotations

import pytest

from repro.api import Network
from repro.harness.experiments import figure4_series, render_series
from repro.queries.best_path import compile_best_path

from conftest import bench_sizes

CONFIGURATIONS = ("NDLog", "SeNDLog", "SeNDLogProv")
BENCH_N = bench_sizes()[-1]


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_fig4_bandwidth(benchmark, configuration):
    """One Figure 4 data point per configuration at the largest benchmarked N."""
    compiled = compile_best_path()

    def run():
        return Network.build(
            topology=BENCH_N, program=compiled, provenance=configuration, seed=0
        ).run()

    row = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert row.converged
    benchmark.extra_info["configuration"] = configuration
    benchmark.extra_info["node_count"] = BENCH_N
    benchmark.extra_info["bandwidth_mb"] = row.bandwidth_mb
    benchmark.extra_info["total_messages"] = row.total_messages
    benchmark.extra_info["security_bytes"] = row.security_bytes
    benchmark.extra_info["provenance_bytes"] = row.provenance_bytes


def test_fig4_report(benchmark, evaluation_sweep, capsys):
    """Print the full Figure 4 series (bandwidth vs N, three configurations)."""
    series = benchmark(figure4_series, evaluation_sweep)
    text = render_series(
        series,
        "Figure 4: bandwidth utilisation (MB) for the Best-Path query",
        "total MB across all nodes",
        precision=3,
    )
    with capsys.disabled():
        print("\n" + text)
    for index in range(len(series["NDLog"])):
        assert (
            series["NDLog"][index][1]
            < series["SeNDLog"][index][1]
            < series["SeNDLogProv"][index][1]
        )
