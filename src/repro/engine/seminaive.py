"""Delta-driven (semi-naive) rule evaluation.

One entry point, :func:`evaluate_plan_with_delta`: given a newly arrived or
newly derived fact (the *delta*), evaluate one rule plan with the delta
bound to one body occurrence and all other atoms joined against the node's
stored tables.  This is what the per-node engine calls for every delta, and
is the direct analogue of P2's delta-rule dataflows: the join itself is the
function :mod:`repro.datalog.codegen` generated for that (rule, delta
position), with the rule's variables as locals.  :func:`bind_strand` binds
the plans a relation's deltas drive to one database, once.

The single-site fixpoint evaluator and the generic literal interpreter the
generated functions are held to live in ``tests/oracle.py``: no run calls
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.datalog.errors import EvaluationError
from repro.datalog.planner import CompiledProgram, RulePlan
from repro.engine.database import Database
from repro.engine.table import Table
from repro.engine.tuples import Fact


@dataclass(eq=False, slots=True)
class RuleFiring:
    """One successful rule firing: the head values plus the joined antecedents.

    Created once per firing on the hottest derivation path, so it is a plain
    slotted dataclass rather than a frozen one (frozen construction pays an
    ``object.__setattr__`` call per field).
    """

    plan: RulePlan
    head_values: Tuple[object, ...]
    destination: Optional[object]
    antecedents: Tuple[Fact, ...]


#: A :class:`~repro.datalog.planner.Strand` bound to one database: its
#: ``(plan, delta position)`` pairs and the probed :class:`Table` objects.
BoundStrand = Tuple[Tuple[Tuple[RulePlan, int], ...], Tuple[Table, ...]]


def bind_strand(
    compiled: CompiledProgram, relation: str, database: Database
) -> BoundStrand:
    """Bind *relation*'s strand to *database*, building every probed index.

    Called once per (database, relation) by the node engine's delta loop,
    which keeps the result: indexes are maintained incrementally once built
    (and rebuilt by the first probe after a table is cleared), and a
    database never replaces a table, so the loop holds the tables it expires
    instead of resolving them per delta.
    """
    strand = compiled.strand(relation)
    tables = []
    for name, arity, indexes in strand.probes:
        table = database.table(name, arity=arity)
        for columns in indexes:
            table.ensure_index(columns)
        tables.append(table)
    return strand.pairs, tuple(tables)


def evaluate_plan_with_delta(
    plan: RulePlan,
    database: Database,
    delta: Fact,
    delta_index: int,
    now: Optional[float] = None,
    collect_antecedents: bool = True,
) -> List[RuleFiring]:
    """Evaluate *plan* with *delta* bound to body position *delta_index*.

    Returns every rule firing produced by joining the delta against the
    node's stored tables: the remaining atoms in the planner's bound-aware
    join order (most-bound-first), each probed through its precomputed
    :class:`~repro.datalog.planner.ProbeSpec`, expression literals applied as
    soon as their variables are bound, negated atoms checked last
    (stratified semantics).  All of that is the plan's generated function
    (``DeltaPlan.fire``); this is the single door to it.

    ``now`` expires the probed tables once, up front.  The delta loops (the
    node engine, the single-site oracle) expire the tables of their bound
    strand per delta instead and pass ``None`` here.

    ``collect_antecedents=False`` makes every firing report an empty
    antecedent tuple.  Antecedents feed only the provenance layer and
    retraction dependency tracking; configurations that maintain neither
    (plain NDlog / SeNDlog) skip building them.
    """
    delta_plan = plan.delta_plans.get(delta_index)
    if delta_plan is None:
        # compile_rule fills every valid position: a miss is a bad index or a
        # hand-built plan, and only then are the guards worth their cost.
        body = plan.body_atoms
        if delta_index < 0 or delta_index >= len(body):
            raise EvaluationError(
                f"rule {plan.label}: delta index {delta_index} out of range"
            )
        if body[delta_index].negated:
            raise EvaluationError(
                f"rule {plan.label}: cannot use a negated atom as the delta"
            )
        delta_plan = plan.delta_plan(delta_index)

    if now is not None:
        for step in delta_plan.steps + delta_plan.negated:
            atom = step.atom_plan.atom
            database.table(atom.name, arity=atom.arity).expire(now)

    return delta_plan.fire(database, delta, collect_antecedents)
