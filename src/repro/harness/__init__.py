"""Experiment harness reproducing the paper's evaluation (Section 6)."""

from repro.harness.workload import best_path_workload, evaluation_topology
from repro.harness.runner import run_network
from repro.harness.experiments import (
    figure3_series,
    figure4_series,
    overhead_table,
    render_series,
    sweep,
)
from repro.harness.scenarios import (
    SCENARIOS,
    PhaseRow,
    Scenario,
    ScenarioReport,
    churn_scenario,
    link_failure_scenario,
    render_phase_table,
    retraction_scenario,
    run_scenario,
)

__all__ = [
    "PhaseRow",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "best_path_workload",
    "churn_scenario",
    "evaluation_topology",
    "figure3_series",
    "figure4_series",
    "link_failure_scenario",
    "overhead_table",
    "render_phase_table",
    "render_series",
    "retraction_scenario",
    "run_network",
    "run_scenario",
    "sweep",
]
