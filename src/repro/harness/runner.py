"""Running the three evaluated configurations.

The paper's Section 6 compares:

* **NDlog** — no authentication, no provenance;
* **SeNDlog** — per-tuple RSA authentication, no provenance;
* **SeNDlogProv** — authentication plus condensed provenance (absorption to
  the minimal DNF).

:func:`run_network` is the sweep point: it builds the run through
:class:`repro.api.Network` and returns the unified
:class:`~repro.api.results.RunResult` shared by the harness, the scenario
subsystem and the benchmarks.  The configuration names resolve through
:func:`repro.api.options.resolve_preset`, which owns the presets.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.api.network import Network
from repro.api.options import NetOptions
from repro.api.results import RunResult
from repro.datalog.planner import CompiledProgram
from repro.net.kernel import CostModel
from repro.net.topology import Topology
from repro.queries.best_path import compile_best_path
from repro.harness.workload import evaluation_topology


def run_network(
    configuration: str,
    topology: Union[Topology, int],
    seed: int = 0,
    compiled: Optional[CompiledProgram] = None,
    cost_model: Optional[CostModel] = None,
    key_bits: int = 256,
    batching: bool = True,
    backend: str = "serial",
    shards: int = 0,
    shard_mode: str = "processes",
) -> RunResult:
    """One facade-built Best-Path run in a named paper configuration.

    *topology* is a :class:`Topology` or a node count (resolved through the
    paper's random workload).  This is the primitive every sweep point and
    benchmark goes through; the returned :class:`RunResult` carries the
    sweep coordinates plus the full statistics, query traffic included.

    ``backend="sharded"`` (with ``shards``/``shard_mode``) runs the sweep
    point on the parallel execution backend; derived facts and integer/byte
    statistics are identical to the serial backend, so sweep tables built
    either way agree.
    """
    if isinstance(topology, int):
        topology = evaluation_topology(topology, seed=seed)
    network = Network.build(
        topology=topology,
        program=compiled if compiled is not None else compile_best_path(),
        provenance=configuration,
        options=NetOptions(
            batching=batching,
            cost_model=cost_model,
            key_bits=key_bits,
            seed=seed,
            backend=backend,
            shards=shards,
            shard_mode=shard_mode,
        ),
    )
    # network.base_facts() shapes the link workload to the program's catalog:
    # for Best-Path, one link(@S, D, C) tuple per topology link at its source.
    run = network.run()
    # Report the row under the caller's configuration spelling ("NDLog", not
    # the canonical preset "ndlog") so sweep tables keep their labels.
    run.configuration = configuration
    return run
