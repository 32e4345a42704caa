"""The dynamic-network scenario subsystem.

Each built-in script must run deterministically under the event scheduler,
converge in every phase, and show the dynamics it claims: rerouting after a
link failure, healing and recovery around node churn, and provenance-
invalidating retraction splitting reachability.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.scenarios import (
    DEFAULT_SCENARIO_TTL,
    SCENARIO_OPTIONS,
    SCENARIOS,
    churn_scenario,
    link_failure_scenario,
    main,
    render_phase_table,
    retraction_scenario,
    run_scenario,
)


def best_path_costs(simulator):
    costs = {}
    for engine in simulator.engines.values():
        for fact in engine.facts("bestPath"):
            costs[(fact.values[0], fact.values[1])] = fact.values[3]
    return costs


class TestLinkFailureScenario:
    @pytest.fixture(scope="class")
    def report(self):
        scenario, simulator = link_failure_scenario(node_count=10, seed=3)
        return run_scenario(scenario, simulator), simulator

    def test_converges_in_every_phase(self, report):
        result, _ = report
        assert result.converged
        assert [row.phase for row in result.rows] == [
            "converge",
            "fail",
            "reroute",
        ]

    def test_traffic_reroutes_around_the_failed_link(self, report):
        result, simulator = report
        source, destination = result.scenario.details["failed_link"]
        # The failed link was redundant, so the pair stays connected ...
        rerouted = best_path_costs(simulator)
        assert (source, destination) in rerouted
        # ... but the direct one-hop route is gone: the repaired best path
        # is a detour, strictly more expensive than the link itself.
        failed_cost = next(
            link.cost
            for link in simulator.topology.links
            if (link.source, link.destination) == (source, destination)
        )
        assert rerouted[(source, destination)] > failed_cost

    def test_every_pair_remains_routable(self, report):
        result, _ = report
        first, last = result.rows[0], result.rows[-1]
        assert last.probe_facts == first.probe_facts > 0

    def test_failure_phase_retracts_the_link_and_its_dependents(self, report):
        result, simulator = report
        fail_row = result.row("fail")
        assert fail_row.facts_retracted > 0
        # The refresh expands at fire time, after the LinkDown: the dead
        # link's tuple must NOT have been re-asserted at the source.
        source, destination = result.scenario.details["failed_link"]
        assert not any(
            f.values[0] == source and f.values[1] == destination
            for f in simulator.engines[source].facts("link")
        )

    def test_deterministic_across_runs(self):
        def rows():
            scenario, simulator = link_failure_scenario(node_count=10, seed=3)
            return [
                row.as_dict() for row in run_scenario(scenario, simulator).rows
            ]

        assert rows() == rows()


class TestChurnScenario:
    @pytest.fixture(scope="class")
    def report(self):
        scenario, simulator = churn_scenario(node_count=8, seed=0)
        return run_scenario(scenario, simulator), simulator

    def test_converges_in_every_phase(self, report):
        result, _ = report
        assert result.converged

    def test_crash_loses_the_victims_state(self, report):
        result, simulator = report
        victim = result.scenario.details["crashed_node"]
        converge, crash = result.row("converge"), result.row("crash")
        assert crash.probe_facts < converge.probe_facts

    def test_soft_state_repair_restores_reachability(self, report):
        result, _ = report
        converge, recover = result.row("converge"), result.row("recover")
        assert recover.probe_facts == converge.probe_facts

    def test_deterministic_across_runs(self):
        def rows():
            scenario, simulator = churn_scenario(node_count=8, seed=0)
            return [
                row.as_dict() for row in run_scenario(scenario, simulator).rows
            ]

        assert rows() == rows()


class TestRetractionScenario:
    @pytest.fixture(scope="class")
    def report(self):
        scenario, simulator = retraction_scenario(node_count=8)
        return run_scenario(scenario, simulator), simulator

    def test_converges_in_every_phase(self, report):
        result, _ = report
        assert result.converged

    def test_bridge_retraction_splits_reachability(self, report):
        result, _ = report
        converge = result.row("converge")
        retract, refresh = result.row("retract"), result.row("refresh")
        # An 8-node bidirectional line has every pair (and, via back-and-
        # forth cycles, every self-pair) reachable: 64 facts.  Split into
        # two 4-node halves that is 2 * 16 — and the split is visible in
        # the retract phase itself: anti-deltas chase the remote copies,
        # no phase waits out the TTL.
        assert converge.probe_facts == 64
        assert retract.probe_facts == 32
        assert refresh.probe_facts == 32

    def test_one_fixpoint_repair_beats_ttl_decay(self, report):
        result, _ = report
        retract = result.row("retract")
        assert retract.anti_delta_messages > 0
        # The retraction repairs in wire time, not TTL time: the whole
        # scenario (converge + retract + refresh) finishes well before a
        # single soft-state lifetime would have elapsed.
        assert retract.completion_time - retract.start_time < 1.0
        assert result.rows[-1].completion_time < DEFAULT_SCENARIO_TTL

    def test_retraction_invalidates_provenance_at_the_retractors(self, report):
        result, simulator = report
        for address, fact in result.scenario.details["retracted"]:
            log = simulator.engines[address].provenance
            assert fact.key() not in log.keys()
            assert not log.knows(fact.key())

    def test_retraction_phase_reports_the_cascade(self, report):
        result, _ = report
        retract_row = result.row("retract")
        assert retract_row.facts_retracted >= 2

    def test_deterministic_across_runs(self):
        def rows():
            scenario, simulator = retraction_scenario(node_count=8)
            return [
                row.as_dict() for row in run_scenario(scenario, simulator).rows
            ]

        assert rows() == rows()


class TestScenarioMachinery:
    def test_registry_lists_the_three_scripts(self):
        assert set(SCENARIOS) == {"link-failure", "churn", "retraction"}

    def test_refresh_skips_down_nodes(self):
        scenario, simulator = churn_scenario(node_count=6, seed=0)
        run_scenario(scenario, simulator)
        victim = scenario.details["crashed_node"]
        # After the full scenario the victim recovered; crash it again and
        # check a refresh round leaves it silent and empty.
        from repro.net.events import NodeCrash, SoftStateRefresh

        simulator.schedule(NodeCrash(time=1e6, address=victim))
        simulator.schedule(SoftStateRefresh(time=1e6 + 1))
        assert simulator.run_until_idle()
        assert simulator.engines[victim].facts("link") == ()
        assert simulator.engines[victim].facts("reachable") == ()

    def test_same_instant_failure_is_visible_to_the_refresh(self):
        # SoftStateRefresh expands when the event fires, so a LinkDown
        # scheduled at the same instant (earlier sequence) already holds.
        scenario, simulator = link_failure_scenario(node_count=10, seed=3)
        source, destination = scenario.details["failed_link"]
        run_scenario(scenario, simulator)
        remembered = simulator.live_base_facts(source)
        assert not any(
            f.values[0] == source and f.values[1] == destination
            for f in remembered
        )

    def test_phase_gap_advances_simulated_time(self):
        scenario, simulator = churn_scenario(node_count=6, seed=0)
        report = run_scenario(scenario, simulator)
        heal = report.row("heal")
        assert heal.start_time >= DEFAULT_SCENARIO_TTL

    def test_render_phase_table_is_aligned(self):
        scenario, simulator = retraction_scenario(node_count=6)
        report = run_scenario(scenario, simulator)
        rendered = report.render()
        lines = rendered.splitlines()
        assert lines[0] == scenario.description
        assert "phase" in lines[1]
        assert len(lines) == 2 + len(report.rows)
        assert len({len(line) for line in lines[2:]}) == 1  # aligned rows

    def test_cli_runs_all_scenarios(self, capsys):
        assert main(["all", "--nodes", "6"]) == 0
        out = capsys.readouterr().out
        for name in ("Best-Path", "Reachability"):
            assert name in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["churn", "--nodes", "1"],
            ["retraction", "--nodes", "2"],
            ["churn", "--backend", "sharded", "--shards", "-1"],
            ["churn", "--nodes", "8", "--ttl", "-1"],
        ],
        ids=["one-node", "short-line", "negative-shards", "negative-ttl"],
    )
    def test_cli_rejects_bad_values_as_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_module_loads_once(self):
        # The harness package imports none of its submodules, so running
        # one with -m does not find it already in sys.modules.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.harness.scenarios",
                "churn",
                "--nodes",
                "4",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_probe_series_matches_rows(self):
        scenario, simulator = retraction_scenario(node_count=6)
        report = run_scenario(scenario, simulator)
        assert report.probe_series() == [
            (row.phase, row.probe_facts) for row in report.rows
        ]


# -- pinned phase tables ------------------------------------------------------------

SCENARIO_GOLDEN = Path(__file__).parent / "golden" / "scenario_rows.json"

#: The runs whose phase rows are pinned: every built-in script at N=8, seed 0,
#: serial and inline-sharded at three shards, plus link-failure serving a
#: query workload under admission control.
PINNED_RUNS = {
    "serial": (tuple(SCENARIOS), SCENARIO_OPTIONS, {}),
    "inline-sharded-3": (
        tuple(SCENARIOS),
        SCENARIO_OPTIONS.merged(backend="sharded", shards=3, shard_mode="inline"),
        {},
    ),
    "link-failure-served": (
        ("link-failure",),
        SCENARIO_OPTIONS.merged(admission_rate=2),
        {"query_rate": 3, "clients": 1},
    ),
}


def row_digests(run: str):
    names, options, kwargs = PINNED_RUNS[run]
    digests = {}
    for name in names:
        scenario, network = SCENARIOS[name](
            node_count=8, seed=0, options=options, **kwargs
        )
        digests[name] = [
            [
                row.phase,
                hashlib.sha256(
                    json.dumps(row.as_dict(), sort_keys=True).encode()
                ).hexdigest(),
            ]
            for row in run_scenario(scenario, network).rows
        ]
    return digests


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_phase_rows_match_the_golden_file(run):
    """Every phase row, byte for byte, as a sha256 of its ``as_dict()``.

    Regenerate with ``REPRO_UPDATE_GOLDEN=1 pytest tests/test_scenarios.py``
    only for a change meant to move a scenario's numbers.
    """
    digests = row_digests(run)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden = (
            json.loads(SCENARIO_GOLDEN.read_text(encoding="utf-8"))
            if SCENARIO_GOLDEN.exists()
            else {}
        )
        golden[run] = digests
        SCENARIO_GOLDEN.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    expected = json.loads(SCENARIO_GOLDEN.read_text(encoding="utf-8"))[run]
    assert digests == expected
