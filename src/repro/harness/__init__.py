"""Experiment harness reproducing the paper's evaluation (Section 6).

Import from the submodules: :mod:`repro.harness.experiments` (the Figure
3/4 sweeps and the overhead table) and :mod:`repro.harness.scenarios`
(dynamic-network scripts).  Both build every run through
:meth:`repro.api.Network.build`.  The package imports neither, so
``python -m repro.harness.scenarios`` and ``python -m
repro.harness.experiments`` load their module once.
"""
