"""Per-node NDlog / SeNDlog evaluation engine.

This subpackage is the Python analogue of a single P2 process: it stores
soft-state tables, evaluates compiled rule plans in a delta-driven
(semi-naive) fashion, applies aggregates, and hands derived tuples destined
for other nodes to the network layer.
"""

from repro.engine.tuples import Fact, fact_key
from repro.engine.table import Table
from repro.engine.database import Database
from repro.engine.builtins import BUILTIN_FUNCTIONS, call_builtin
from repro.engine.aggregates import AggregateState, aggregate_better, aggregate_init
from repro.engine.seminaive import evaluate_plan_with_delta


def __getattr__(name: str):
    """Lazily expose the node engine.

    ``node_engine`` depends on the provenance and security packages, which in
    turn depend on :mod:`repro.engine.tuples`; importing it lazily keeps
    ``import repro.provenance`` free of circular imports.
    """
    if name in ("EngineConfig", "NodeEngine", "ProvenanceMode"):
        from repro.engine import node_engine

        return getattr(node_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AggregateState",
    "BUILTIN_FUNCTIONS",
    "Database",
    "EngineConfig",
    "Fact",
    "NodeEngine",
    "Table",
    "aggregate_better",
    "aggregate_init",
    "call_builtin",
    "evaluate_plan_with_delta",
    "fact_key",
]
