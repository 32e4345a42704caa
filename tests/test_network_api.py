"""The `repro.api` facade: Network.build, NetOptions validation, RunResult,
and the scenario/harness integration."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Network, NetOptions, PROVENANCE_PRESETS, RunResult, resolve_preset
from repro.engine.node_engine import EngineConfig, ProvenanceMode
from repro.net.kernel import CostModel, KernelOptions, SimulationKernel
from repro.net.topology import Topology, line_topology, random_topology
from repro.provenance.pruning import ProvenanceSampler
from repro.queries.best_path import compile_best_path
from repro.security.says import SaysMode
from repro.service import AdmissionControl, CacheConfig


class TestPresets:
    def test_paper_configurations_resolve(self):
        assert resolve_preset("ndlog") == "ndlog"
        assert resolve_preset("NDLog") == "ndlog"
        assert resolve_preset("SeNDLog") == "sendlog"
        assert resolve_preset("SeNDLogProv") == "sendlog-prov"
        assert resolve_preset("sendlog-prov") == "sendlog-prov"

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ValueError, match="sendlog-prov"):
            resolve_preset("turbo")

    def test_presets_map_to_engine_modes(self):
        options = NetOptions()
        config = options.engine_config("sendlog-prov")
        assert config.says_mode is SaysMode.SIGNED
        assert config.provenance_mode is ProvenanceMode.CONDENSED
        config = options.engine_config("distributed")
        assert config.says_mode is SaysMode.NONE
        assert config.provenance_mode is ProvenanceMode.DISTRIBUTED

    def test_option_overrides_reach_engine_config(self):
        options = NetOptions(
            default_ttl=12.0, track_dependencies=True, keep_offline_provenance=True
        )
        config = options.engine_config("ndlog")
        assert config.default_ttl == 12.0
        assert config.track_dependencies is True
        assert config.keep_offline_provenance is True

    def test_engine_config_applies_exactly_the_engine_overrides(self, tmp_path):
        # One list: whatever engine_overrides() names is what engine_config()
        # sets, and every name is a real EngineConfig field.
        sampler = ProvenanceSampler(0.5)
        options = NetOptions(
            rederivation=True,
            default_ttl=12.0,
            track_dependencies=True,
            keep_offline_provenance=True,
            sampler=sampler,
            hot_tier_entries=32,
            spill_dir=str(tmp_path),
        )
        overrides = options.engine_overrides()
        assert len(overrides) == 7
        assert set(overrides) <= {f.name for f in dataclasses.fields(EngineConfig)}
        config = options.engine_config("condensed")
        assert {name: getattr(config, name) for name in overrides} == overrides
        assert NetOptions().engine_overrides() == {}
        assert NetOptions().engine_config("condensed") == EngineConfig(
            provenance_mode=ProvenanceMode.CONDENSED
        )

    def test_option_records_have_exactly_these_fields(self):
        # Every knob has a caller: adding or deleting an option is a
        # reviewable diff of these tuples.
        def names(record):
            return tuple(field.name for field in dataclasses.fields(record))

        assert names(NetOptions) == (
            "backend",
            "shards",
            "shard_mode",
            "batching",
            "key_bits",
            "max_events",
            "default_latency",
            "link_relation",
            "lint",
            "admission_rate",
            "admission_burst",
            "query_cache",
            "query_cache_entries",
            "cost_model",
            "seed",
            "rederivation",
            "default_ttl",
            "track_dependencies",
            "keep_offline_provenance",
            "sampler",
            "hot_tier_entries",
            "spill_dir",
        )
        assert len(names(NetOptions)) == 22
        assert names(KernelOptions) == (
            "cost_model",
            "key_bits",
            "max_events",
            "default_latency",
            "batching",
            "link_relation",
            "admission",
            "query_cache",
        )
        assert len(names(KernelOptions)) == 8
        assert names(EngineConfig) == (
            "says_mode",
            "provenance_mode",
            "sampler",
            "keep_offline_provenance",
            "hot_tier_entries",
            "spill_dir",
            "default_ttl",
            "track_dependencies",
            "rederivation",
        )
        assert len(names(EngineConfig)) == 9
        assert names(AdmissionControl) == ("rate", "burst")
        assert names(CacheConfig) == ("capacity",)

    def test_tiered_store_knobs_reach_engine_config(self, tmp_path):
        options = NetOptions(
            keep_offline_provenance=True,
            hot_tier_entries=32,
            spill_dir=str(tmp_path),
        )
        config = options.engine_config("ndlog")
        assert config.hot_tier_entries == 32
        assert config.spill_dir == str(tmp_path)


class TestNetOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"key_bits": 4}, "key_bits"),
            ({"max_events": 0}, "max_events"),
            ({"admission_rate": -1.0}, "admission_rate"),
            ({"default_latency": -1.0}, "default_latency"),
            ({"default_ttl": -1.0}, "default_ttl"),
            ({"link_relation": ""}, "link_relation"),
            ({"admission_burst": -1.0}, "admission_burst"),
            ({"hot_tier_entries": 0}, "hot_tier_entries"),
            ({"spill_dir": ""}, "spill_dir"),
            # Above the old floor of 16 and below generate_keypair's: one
            # floor (rsa.MIN_KEY_BITS) refuses it here, not deep in a run.
            ({"key_bits": 32}, "key_bits must be >= 64"),
        ],
    )
    def test_bad_values_name_their_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            NetOptions(**kwargs)
        if set(kwargs) <= {spec.name for spec in dataclasses.fields(EngineConfig)}:
            # A hand-built EngineConfig refuses the same value the same way.
            with pytest.raises(ValueError, match=message):
                EngineConfig(**kwargs)

    def test_unknown_override_lists_fields(self):
        with pytest.raises(ValueError, match="frobnicate"):
            NetOptions().merged(frobnicate=True)

    @pytest.mark.parametrize(
        "removed",
        [
            {"shard_pipeline": True},
            {"transport": "shm"},
            {"batch_receive": False},
            {"keep_online_provenance": True},
            {"maintenance_mode": "reactive"},
            {"provenance_store": "memory"},
            {"offline_retention": 60.0},
            {"admission_policy": "retry"},
            {"admission_retries": 3},
            {"admission_retry_delay": 0.05},
            {"query_cache_ttl": 2.0},
            {"query_timeout": 30.0},
            {"refresh_mode": "wheel"},
            {"refresh_interval": 10.0},
            {"refresh_rate": 2.0},
            {"refresh_burst": 4.0},
            {"default_bandwidth": 1e6},
            {"config": EngineConfig()},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_removed_options_are_unknown_to_build(self, removed):
        # The deleted coordination / transport / receive modes, the two
        # dead provenance switches, the second archive representation and
        # the knobs only tests set (archive aging, admission retries, the
        # cache TTL, the run-wide query timeout), the timer-wheel refresh
        # plane's four knobs, the linkless-send bandwidth and a hand-built
        # EngineConfig in place of the preset are not silently accepted:
        # they fail like any other misspelt option.
        with pytest.raises(ValueError, match="unknown NetOptions field.*valid fields"):
            Network.build(topology=4, provenance="ndlog", **removed)

    def test_merged_applies_overrides(self):
        merged = NetOptions().merged(batching=False, key_bits=128)
        assert merged.batching is False and merged.key_bits == 128


class TestNetworkBuild:
    def test_int_topology_uses_paper_workload(self):
        network = Network.build(topology=10, provenance="ndlog", seed=1)
        assert network.topology.node_count == 10
        assert abs(network.topology.average_outdegree() - 3.0) < 0.5

    def test_explicit_topology_is_used_verbatim(self):
        topology = line_topology(4)
        network = Network.build(topology=topology, provenance="ndlog")
        assert network.topology is topology

    def test_program_from_source_text(self):
        source = """
            materialize(link, infinity, infinity, keys(1,2)).
            materialize(reachable, infinity, infinity, keys(1,2)).
            r1 reachable(@S, D) :- link(@S, D).
        """
        network = Network.build(
            topology=line_topology(3), program=source, provenance="ndlog"
        )
        result = network.run()
        assert result.count("reachable") == network.topology.link_count

    def test_unknown_program_name(self):
        with pytest.raises(ValueError, match="best-path"):
            Network.build(topology=4, program="wat", provenance="ndlog")

    def test_bad_types_raise(self):
        with pytest.raises(TypeError):
            Network.build(topology=4.5, provenance="ndlog")
        with pytest.raises(TypeError):
            Network.build(topology=4, program=123, provenance="ndlog")


    def test_base_facts_match_catalog_arity(self):
        best_path = Network.build(topology=line_topology(3), provenance="ndlog")
        reachable = Network.build(
            topology=line_topology(3), program="reachable", provenance="ndlog"
        )
        assert all(
            len(fact.values) == 3
            for facts in best_path.link_facts().values()
            for fact in facts
        )
        assert all(
            len(fact.values) == 2
            for facts in reachable.link_facts().values()
            for fact in facts
        )

    def test_legacy_simulator_default_workload_matches_facade(self):
        """SimulationKernel.run() with no base facts injects the same catalog-shaped
        workload the facade does — a bare reachability run just works."""
        from repro.engine.node_engine import EngineConfig
        from repro.queries import compile_reachable

        topology = line_topology(3)
        legacy = SimulationKernel(topology, compile_reachable(), EngineConfig()).run()
        assert legacy.converged
        assert legacy.all_facts("reachable")
        facade = Network.build(
            topology=line_topology(3), program="reachable", provenance="ndlog"
        ).run()
        assert facade.summary() == legacy.stats.summary()

    def test_facade_delegates_to_simulator(self):
        network = Network.build(topology=line_topology(3), provenance="ndlog")
        assert network.link_is_up("n0", "n1")
        assert network.node_is_up("n0")
        assert network.options.kernel_options() == network.simulator.options


class TestRunResult:
    @pytest.fixture(scope="class")
    def facade_run(self):
        topology = random_topology(8, seed=1)
        network = Network.build(
            topology=topology, provenance="SeNDLogProv", seed=1
        )
        return network.run()

    def test_metrics_are_flat_attributes(self, facade_run):
        assert facade_run.converged
        assert facade_run.completion_time_s > 0
        assert facade_run.bandwidth_mb > 0
        assert facade_run.security_bytes > 0
        assert facade_run.provenance_bytes > 0
        assert facade_run.query_bytes == 0 and facade_run.query_messages == 0
        assert facade_run.node_count == 8

    def test_as_dict_includes_coordinates_and_summary(self, facade_run):
        row = facade_run.as_dict()
        assert row["configuration"] == "sendlog-prov"
        assert row["node_count"] == 8
        assert "query_bytes" in row and "completion_time_s" in row

    def test_facade_matches_legacy_simulator_byte_for_byte(self):
        """The facade is a veneer: same topology/config => identical stats."""
        topology = random_topology(8, seed=2)
        legacy_config = EngineConfig(
            says_mode=SaysMode.SIGNED, provenance_mode=ProvenanceMode.CONDENSED
        )
        legacy = SimulationKernel(topology, compile_best_path(), legacy_config).run()
        facade = Network.build(topology=topology, provenance="sendlog-prov").run()
        assert facade.summary() == legacy.stats.summary()


class TestRunNetwork:
    def test_run_network_records_sweep_coordinates(self, compiled_best_path):
        run = Network.build(
            topology=6, program=compiled_best_path, provenance="SeNDLog", seed=3
        ).run()
        assert isinstance(run, RunResult)
        assert run.configuration == "sendlog"
        assert run.node_count == 6
        assert run.seed == 3

    def test_custom_cost_model_passes_through(self, compiled_best_path):
        topology = random_topology(6, seed=0)

        def run(**options):
            return Network.build(
                topology=topology,
                program=compiled_best_path,
                provenance="NDLog",
                **options,
            ).run()

        free = run(cost_model=CostModel(seconds_per_rule_firing=0.0))
        default = run()
        assert free.converged and default.converged
        assert free.stats.summary()["cpu_seconds"] < default.stats.summary()["cpu_seconds"]


class TestScenarioFacadeIntegration:
    def test_builders_return_networks(self):
        from repro.harness.scenarios import link_failure_scenario, run_scenario

        scenario, network = link_failure_scenario(node_count=10, seed=3)
        assert isinstance(network, Network)
        report = run_scenario(scenario, network)
        assert report.converged
        assert report.simulator is network.simulator
        for row in report.rows:
            assert row.query_messages == 0
            assert row.query_kilobytes == 0.0
            assert "query_messages" in row.as_dict()

    def test_run_scenario_accepts_bare_simulator(self):
        from repro.harness.scenarios import retraction_scenario, run_scenario

        scenario, network = retraction_scenario(node_count=4)
        report = run_scenario(scenario, network.simulator)
        assert report.converged

    def test_the_api_does_not_import_the_harness(self):
        """The harness sits on the facade, never under it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        import repro.api as api

        probe = (
            "import sys, repro.api; "
            "assert not [m for m in sys.modules if m.startswith('repro.harness')]"
        )
        source = Path(repro.__file__).resolve().parent.parent
        subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(source)),
            check=True,
            timeout=120,
        )

        for gone in ("PhaseRow", "ScenarioReport"):
            assert not hasattr(api, gone)
        for gone in ("from_simulator", "run_scenario"):
            assert not hasattr(Network, gone)


class TestSweepIntegration:
    def test_sweep_rows_are_run_results(self):
        from repro.harness.experiments import figure3_series, sweep

        result = sweep(node_counts=(6,), seeds=(0,), configurations=("NDLog",))
        assert len(result.rows) == 1
        assert isinstance(result.rows[0], RunResult)
        assert result.rows[0].configuration == "NDLog"
        series = figure3_series(result)
        assert set(series) == {"NDLog"}
