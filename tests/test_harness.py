"""Tests for the experiment harness (workload, sweep points, figures,
overhead tables)."""

from __future__ import annotations

import inspect

import pytest

from repro.api import Network
from repro.api.options import PROVENANCE_PRESETS, NetOptions, resolve_preset
from repro.harness.experiments import (
    CONFIGURATION_ORDER,
    DEFAULT_NODE_COUNTS,
    figure3_series,
    figure4_series,
    overhead_table,
    render_overhead_table,
    render_series,
    sweep,
)
from repro.net.kernel import as_facts, shape_link_keys
from repro.net.topology import random_topology


def evaluation_topology(node_count, seed):
    """The topology a sweep point at *node_count* nodes runs on."""
    return Network.build(topology=node_count, provenance="ndlog", seed=seed).topology


def sweep_point(configuration, node_count, compiled, seed=0):
    return Network.build(
        topology=node_count, program=compiled, provenance=configuration, seed=seed
    ).run()


class TestWorkload:
    def test_paper_sweep_definition(self):
        # "link tables for N nodes with average outdegree of three, and vary
        # the size of N from 10 to 100": out-degree three is the default of
        # the random workload a bare node count builds.
        defaults = inspect.signature(random_topology).parameters
        assert defaults["average_outdegree"].default == 3.0
        assert all(10 <= n <= 100 for n in DEFAULT_NODE_COUNTS)

    def test_evaluation_topology_parameters(self):
        topology = evaluation_topology(20, seed=1)
        assert topology.node_count == 20
        assert abs(topology.average_outdegree() - 3.0) < 0.3
        assert topology.links == random_topology(20, seed=1).links

    def test_workload_places_links_at_their_source(self):
        topology = evaluation_topology(10, seed=1)
        workload = as_facts(shape_link_keys(topology, "link", 3))
        assert sum(len(facts) for facts in workload.values()) == topology.link_count
        for node, facts in workload.items():
            assert all(fact.values[0] == node for fact in facts)


class TestRunner:
    def test_configuration_names(self):
        # The harness's paper spellings resolve onto the presets the facade owns.
        assert CONFIGURATION_ORDER == ("NDLog", "SeNDLog", "SeNDLogProv")
        resolved = [resolve_preset(name) for name in CONFIGURATION_ORDER]
        assert resolved == ["ndlog", "sendlog", "sendlog-prov"]
        assert set(resolved) <= set(PROVENANCE_PRESETS)

    def test_engine_config_mapping(self):
        from repro.engine.node_engine import ProvenanceMode
        from repro.security.says import SaysMode

        engine_config = NetOptions().engine_config
        assert engine_config("NDLog").says_mode is SaysMode.NONE
        assert engine_config("NDLog").provenance_mode is ProvenanceMode.NONE
        assert engine_config("SeNDLog").says_mode is SaysMode.SIGNED
        prov = engine_config("SeNDLogProv")
        assert prov.says_mode is SaysMode.SIGNED
        assert prov.provenance_mode is ProvenanceMode.CONDENSED
        with pytest.raises(ValueError):
            engine_config("Unknown")

    def test_run_network_row(self, compiled_best_path):
        row = sweep_point("NDLog", 8, compiled_best_path, seed=1)
        assert row.converged
        assert row.count("bestPath") == 8 * 7
        assert row.completion_time_s > 0
        assert row.bandwidth_mb > 0
        assert row.security_bytes == 0 and row.provenance_bytes == 0
        assert set(row.as_dict()) >= {"configuration", "node_count", "bandwidth_mb"}

    def test_secure_configuration_records_overhead_bytes(self, compiled_best_path):
        row = sweep_point("SeNDLogProv", 8, compiled_best_path, seed=1)
        assert row.security_bytes > 0
        assert row.provenance_bytes > 0


class TestExperiments:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return sweep(node_counts=(6, 10), seeds=(0,))

    def test_sweep_covers_all_points(self, small_sweep):
        assert len(small_sweep.rows) == 2 * 3
        assert small_sweep.node_counts() == (6, 10)
        assert small_sweep.configurations() == ("NDLog", "SeNDLog", "SeNDLogProv")

    def test_figure3_series_shape(self, small_sweep):
        series = figure3_series(small_sweep)
        assert set(series) == {"NDLog", "SeNDLog", "SeNDLogProv"}
        for points in series.values():
            assert [n for n, _ in points] == [6, 10]
            assert all(value > 0 for _, value in points)

    def test_figure3_ordering_matches_paper(self, small_sweep):
        series = figure3_series(small_sweep)
        for i in range(2):
            assert series["NDLog"][i][1] < series["SeNDLog"][i][1] < series["SeNDLogProv"][i][1]

    def test_figure4_ordering_matches_paper(self, small_sweep):
        series = figure4_series(small_sweep)
        for i in range(2):
            assert series["NDLog"][i][1] < series["SeNDLog"][i][1] < series["SeNDLogProv"][i][1]

    def test_completion_time_and_bandwidth_grow_with_n(self, small_sweep):
        for series in (figure3_series(small_sweep), figure4_series(small_sweep)):
            for points in series.values():
                assert points[1][1] > points[0][1]

    def test_overhead_table_structure(self, small_sweep):
        table = overhead_table(small_sweep)
        assert set(table) == {"SeNDLog_vs_NDLog", "SeNDLogProv_vs_SeNDLog"}
        for row in table.values():
            assert row["avg_time_overhead_pct"] > 0
            assert row["avg_bandwidth_overhead_pct"] > 0

    def test_render_series_text(self, small_sweep):
        text = render_series(figure3_series(small_sweep), "Figure 3", "seconds")
        assert "Figure 3" in text
        assert "NDLog" in text and "SeNDLogProv" in text

    def test_render_overhead_table_text(self, small_sweep):
        text = render_overhead_table(overhead_table(small_sweep))
        assert "SeNDLog vs NDLog" in text
        assert "%" in text

    def test_mean_unknown_point_raises(self, small_sweep):
        with pytest.raises(KeyError):
            small_sweep.mean("NDLog", 999, "bandwidth_mb")
