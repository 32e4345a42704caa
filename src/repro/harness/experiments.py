"""Regenerating the paper's figures and reported overheads.

* :func:`figure3_series` — query completion time vs number of nodes for the
  three configurations (Figure 3);
* :func:`figure4_series` — bandwidth utilisation vs number of nodes
  (Figure 4);
* :func:`overhead_table` — the overhead percentages quoted in the Section 6
  text ("SeNDlog overhead" and "Condensed provenance overhead", on average
  and at the largest N);
* ablation helpers for condensation (E5) and local-vs-distributed
  provenance (E6).

Run from the command line::

    python -m repro.harness.experiments fig3 --sizes 10,20,30,40,50
    python -m repro.harness.experiments fig4
    python -m repro.harness.experiments overheads
    python -m repro.harness.experiments all --sizes 10,30,50 --seeds 2
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.network import Network
from repro.api.results import RunResult
from repro.queries.best_path import compile_best_path

#: Default sweep used by the benchmarks: a subset of the paper's 10..100 so a
#: full run finishes in minutes on a laptop.  Pass ``--sizes`` for the full
#: sweep.
DEFAULT_NODE_COUNTS: Tuple[int, ...] = (10, 20, 30, 40, 50)
DEFAULT_SEEDS: Tuple[int, ...] = (0,)
CONFIGURATION_ORDER: Tuple[str, ...] = ("NDLog", "SeNDLog", "SeNDLogProv")


@dataclass
class SweepResult:
    """All rows of one sweep, indexed by (configuration, node count).

    Rows are the unified :class:`~repro.api.results.RunResult` objects the
    facade returns (every metric is a flat attribute).
    """

    rows: List[RunResult] = field(default_factory=list)

    def add(self, row: RunResult) -> None:
        self.rows.append(row)

    def configurations(self) -> Tuple[str, ...]:
        return tuple(
            name
            for name in CONFIGURATION_ORDER
            if any(row.configuration == name for row in self.rows)
        )

    def node_counts(self) -> Tuple[int, ...]:
        return tuple(sorted({row.node_count for row in self.rows}))

    def mean(self, configuration: str, node_count: int, metric: str) -> float:
        values = [
            float(getattr(row, metric))
            for row in self.rows
            if row.configuration == configuration and row.node_count == node_count
        ]
        if not values:
            raise KeyError(f"no rows for {configuration} at N={node_count}")
        return sum(values) / len(values)

    def series(self, metric: str) -> Dict[str, List[Tuple[int, float]]]:
        """Per-configuration series of (node count, mean metric value)."""
        result: Dict[str, List[Tuple[int, float]]] = {}
        for configuration in self.configurations():
            points = [
                (node_count, self.mean(configuration, node_count, metric))
                for node_count in self.node_counts()
            ]
            result[configuration] = points
        return result


def sweep(
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    configurations: Sequence[str] = CONFIGURATION_ORDER,
    progress: bool = False,
    batching: bool = False,
) -> SweepResult:
    """Run the Best-Path evaluation sweep and collect every data point.

    The sweep reproduces the paper's Figures 3/4, whose bandwidth metric
    charges a full header per shipped tuple — so it defaults to the per-tuple
    wire format (``batching=False``) rather than the simulator's batched
    default.  Pass ``batching=True`` to measure the amortized wire path.

    Each point is one :meth:`Network.build` run on the paper's random
    workload (N nodes, out-degree three, topology drawn from the seed).
    """
    compiled = compile_best_path()
    result = SweepResult()
    for node_count in node_counts:
        for seed in seeds:
            for configuration in configurations:
                if progress:
                    print(
                        f"running {configuration} N={node_count} seed={seed} ...",
                        file=sys.stderr,
                        flush=True,
                    )
                row = Network.build(
                    topology=node_count,
                    program=compiled,
                    provenance=configuration,
                    seed=seed,
                    batching=batching,
                ).run()
                # Rows keep the caller's spelling ("NDLog", not the preset
                # "ndlog") so the tables print the paper's labels.
                row.configuration = configuration
                # The sweep aggregates scalars only; dropping the per-node
                # engines frees each finished simulation instead of keeping
                # every sweep point's full state alive simultaneously.
                row.engines = {}
                result.add(row)
    return result


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def figure3_series(result: SweepResult) -> Dict[str, List[Tuple[int, float]]]:
    """Figure 3: query completion time (s) vs number of nodes."""
    return result.series("completion_time_s")


def figure4_series(result: SweepResult) -> Dict[str, List[Tuple[int, float]]]:
    """Figure 4: bandwidth utilisation (MB) vs number of nodes."""
    return result.series("bandwidth_mb")


def render_series(
    series: Mapping[str, List[Tuple[int, float]]],
    title: str,
    value_label: str,
    precision: int = 2,
) -> str:
    """Render one figure's data as an aligned text table (rows = N)."""
    configurations = [name for name in CONFIGURATION_ORDER if name in series]
    node_counts = sorted({n for points in series.values() for n, _ in points})
    header = ["N"] + configurations
    lines = [title, "  ".join(f"{h:>14s}" for h in header)]
    for node_count in node_counts:
        cells = [f"{node_count:>14d}"]
        for configuration in configurations:
            value = dict(series[configuration]).get(node_count)
            cells.append(
                f"{value:>14.{precision}f}" if value is not None else f"{'-':>14s}"
            )
        lines.append("  ".join(cells))
    lines.append(f"(values are {value_label})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Overhead tables (Section 6 text)
# ---------------------------------------------------------------------------

def _overhead(base: float, loaded: float) -> float:
    if base == 0:
        return 0.0
    return 100.0 * (loaded / base - 1.0)


def overhead_table(result: SweepResult) -> Dict[str, Dict[str, float]]:
    """The overhead percentages quoted in the Section 6 text.

    Returns, for both comparisons (SeNDlog vs NDlog; SeNDlogProv vs SeNDlog),
    the average overhead across the sweep and the overhead at the largest N,
    in both completion time and bandwidth.
    """
    node_counts = result.node_counts()
    largest = node_counts[-1]

    def overhead_series(base: str, loaded: str, metric: str) -> List[float]:
        return [
            _overhead(
                result.mean(base, node_count, metric),
                result.mean(loaded, node_count, metric),
            )
            for node_count in node_counts
        ]

    table: Dict[str, Dict[str, float]] = {}
    comparisons = {
        "SeNDLog_vs_NDLog": ("NDLog", "SeNDLog"),
        "SeNDLogProv_vs_SeNDLog": ("SeNDLog", "SeNDLogProv"),
    }
    for label, (base, loaded) in comparisons.items():
        time_overheads = overhead_series(base, loaded, "completion_time_s")
        bandwidth_overheads = overhead_series(base, loaded, "bandwidth_mb")
        table[label] = {
            "avg_time_overhead_pct": sum(time_overheads) / len(time_overheads),
            "avg_bandwidth_overhead_pct": sum(bandwidth_overheads) / len(bandwidth_overheads),
            "largest_n": float(largest),
            "largest_n_time_overhead_pct": time_overheads[-1],
            "largest_n_bandwidth_overhead_pct": bandwidth_overheads[-1],
        }
    return table


def render_overhead_table(table: Mapping[str, Mapping[str, float]]) -> str:
    """Render :func:`overhead_table` next to the numbers the paper reports."""
    paper = {
        "SeNDLog_vs_NDLog": (53.0, 36.0, 44.0, 17.0),
        "SeNDLogProv_vs_SeNDLog": (41.0, 54.0, 6.0, 10.0),
    }
    lines = [
        "Overheads (percent)                         measured        paper",
    ]
    for label, row in table.items():
        p = paper.get(label, (float("nan"),) * 4)
        pretty = label.replace("_vs_", " vs ")
        lines.append(
            f"{pretty:<30s} avg time     {row['avg_time_overhead_pct']:>10.0f}%   {p[0]:>8.0f}%"
        )
        lines.append(
            f"{'':<30s} avg bandwidth{row['avg_bandwidth_overhead_pct']:>10.0f}%   {p[1]:>8.0f}%"
        )
        lines.append(
            f"{'':<30s} largest-N time{row['largest_n_time_overhead_pct']:>9.0f}%   {p[2]:>8.0f}%"
        )
        lines.append(
            f"{'':<30s} largest-N bw {row['largest_n_bandwidth_overhead_pct']:>10.0f}%   {p[3]:>8.0f}%"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command-line entry point
# ---------------------------------------------------------------------------

def _parse_sizes(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation figures and tables."
    )
    parser.add_argument(
        "experiment",
        choices=("fig3", "fig4", "overheads", "all"),
        help="which experiment to regenerate",
    )
    parser.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=DEFAULT_NODE_COUNTS,
        help="comma-separated node counts (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, help="number of random seeds to average over"
    )
    arguments = parser.parse_args(argv)

    result = sweep(
        node_counts=arguments.sizes,
        seeds=tuple(range(arguments.seeds)),
        progress=True,
    )

    if arguments.experiment in ("fig3", "all"):
        print(
            render_series(
                figure3_series(result),
                "Figure 3: query completion time for the Best-Path query",
                "simulated seconds to distributed fixpoint",
            )
        )
        print()
    if arguments.experiment in ("fig4", "all"):
        print(
            render_series(
                figure4_series(result),
                "Figure 4: bandwidth utilisation for the Best-Path query",
                "total MB across all nodes",
            )
        )
        print()
    if arguments.experiment in ("overheads", "all"):
        print(render_overhead_table(overhead_table(result)))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
