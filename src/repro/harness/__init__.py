"""Experiment harness reproducing the paper's evaluation (Section 6).

Import from the submodules: :mod:`repro.harness.runner` (``run_network``),
:mod:`repro.harness.experiments` (the Figure 3/4 sweeps),
:mod:`repro.harness.scenarios` (dynamic-network scripts) and
:mod:`repro.harness.workload` (the evaluation topology).  The package
imports none of them, so ``python -m repro.harness.scenarios`` and
``python -m repro.harness.experiments`` load their module once.
"""
