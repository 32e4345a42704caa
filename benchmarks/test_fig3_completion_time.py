"""Figure 3: query completion time for the Best-Path query.

For each configuration (NDlog, SeNDlog, SeNDlogProv) the benchmark runs the
Best-Path query over the evaluation workload and records the *simulated*
query completion time (the paper's metric) in ``extra_info``, alongside the
wall-clock time pytest-benchmark measures for the simulation itself.

The full per-N series — the actual Figure 3 data — is printed by
``test_fig3_report`` at the end of the run.
"""

from __future__ import annotations

import pytest

from repro.api import Network
from repro.harness.experiments import figure3_series, render_series
from repro.queries.best_path import compile_best_path

from conftest import bench_sizes

CONFIGURATIONS = ("NDLog", "SeNDLog", "SeNDLogProv")
BENCH_N = bench_sizes()[-1]


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_fig3_completion_time(benchmark, configuration):
    """One Figure 3 data point per configuration at the largest benchmarked N."""
    compiled = compile_best_path()

    def run():
        return Network.build(
            topology=BENCH_N, program=compiled, provenance=configuration, seed=0
        ).run()

    row = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert row.converged
    benchmark.extra_info["configuration"] = configuration
    benchmark.extra_info["node_count"] = BENCH_N
    benchmark.extra_info["simulated_completion_time_s"] = row.completion_time_s
    benchmark.extra_info["best_paths"] = row.count("bestPath")


def test_fig3_report(benchmark, evaluation_sweep, capsys):
    """Print the full Figure 3 series (completion time vs N, three configurations)."""
    series = benchmark(figure3_series, evaluation_sweep)
    text = render_series(
        series,
        "Figure 3: query completion time (s) for the Best-Path query",
        "simulated seconds to distributed fixpoint",
    )
    with capsys.disabled():
        print("\n" + text)
    # The paper's qualitative result: NDlog < SeNDlog < SeNDlogProv at every N.
    for index in range(len(series["NDLog"])):
        assert (
            series["NDLog"][index][1]
            < series["SeNDLog"][index][1]
            < series["SeNDLogProv"][index][1]
        )
