"""Delta-driven (semi-naive) rule evaluation.

Two entry points:

* :func:`evaluate_plan_with_delta` — the distributed building block: given a
  newly arrived or newly derived fact (the *delta*), evaluate one rule plan
  with the delta bound to one body occurrence and all other atoms joined
  against the node's stored tables.  This is what the per-node engine calls
  for every delta, and is the direct analogue of P2's delta-rule dataflows:
  the join itself is the function :mod:`repro.datalog.codegen` generated
  for that (rule, delta position), with the rule's variables as locals.

* :func:`evaluate_program` — a single-site fixpoint evaluator that runs a
  whole program to fixpoint over one database.  It is used by tests, by the
  provenance examples that do not need the network simulator, and as a
  reference implementation the distributed results are checked against.

The generic :func:`unify_atom` / :func:`unify_term` /
:func:`apply_expression` / :func:`evaluate_term` below interpret one literal
under a bindings dict.  Nothing on the hot path calls them; they are the
slow reference ``tests/test_rule_compiler.py`` holds the generated functions
to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.datalog.ast import (
    Aggregate,
    Assignment,
    Atom,
    Comparison,
    Constant,
    FunctionCall,
    Term,
    Variable,
)
from repro.datalog.errors import EvaluationError
from repro.datalog.planner import CompiledProgram, RulePlan
from repro.engine.aggregates import AggregateState
from repro.engine.builtins import call_builtin
from repro.engine.database import Database
from repro.engine.table import Table
from repro.engine.tuples import Derivation, Fact

Bindings = Dict[str, object]


# ---------------------------------------------------------------------------
# Terms and expressions
# ---------------------------------------------------------------------------

def evaluate_term(term: Term, bindings: Bindings) -> object:
    """Evaluate *term* to a value under *bindings*."""
    if isinstance(term, Variable):
        try:
            return bindings[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name}") from None
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, FunctionCall):
        args = [evaluate_term(arg, bindings) for arg in term.args]
        return call_builtin(term.name, args)
    if isinstance(term, Aggregate):
        return evaluate_term(term.variable, bindings)
    raise EvaluationError(f"cannot evaluate term {term!r}")


def term_is_bound(term: Term, bindings: Bindings) -> bool:
    """True when *term* can be evaluated under *bindings*."""
    if isinstance(term, Constant):
        return True
    if isinstance(term, Variable):
        return term.name in bindings
    if isinstance(term, FunctionCall):
        return all(term_is_bound(arg, bindings) for arg in term.args)
    if isinstance(term, Aggregate):
        return term.variable.name in bindings
    return False


def unify_term(term: Term, value: object, bindings: Bindings) -> Optional[Bindings]:
    """Unify *term* against a concrete *value*; return extended bindings or None."""
    if isinstance(term, Variable):
        existing = bindings.get(term.name, _UNSET)
        if existing is _UNSET:
            extended = dict(bindings)
            extended[term.name] = value
            return extended
        return bindings if existing == value else None
    if isinstance(term, Constant):
        return bindings if term.value == value else None
    if isinstance(term, (FunctionCall, Aggregate)):
        if term_is_bound(term, bindings):
            return bindings if evaluate_term(term, bindings) == value else None
        return None
    return None


def unify_atom(atom: Atom, fact: Fact, bindings: Bindings) -> Optional[Bindings]:
    """Unify every term of *atom* against the values of *fact*.

    Copies *bindings* at most once regardless of how many variables the atom
    binds (this is the innermost loop of every join probe).
    """
    if atom.name != fact.relation or atom.arity != len(fact.values):
        return None
    current = bindings
    copied = False
    for term, value in zip(atom.terms, fact.values):
        if isinstance(term, Variable):
            existing = current.get(term.name, _UNSET)
            if existing is _UNSET:
                if not copied:
                    current = dict(current)
                    copied = True
                current[term.name] = value
            elif existing != value:
                return None
        elif isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            result = unify_term(term, value, current)
            if result is None:
                return None
            current = result
    return current


_UNSET = object()

#: The rule compiler's operator table (``repro.datalog.codegen``) lists the
#: same operators; ``tests/test_rule_compiler.py`` runs each through both.
_COMPARATORS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def apply_expression(expression: object, bindings: Bindings) -> Optional[Bindings]:
    """Apply a comparison or assignment; return updated bindings or None if it fails."""
    if isinstance(expression, Comparison):
        left = evaluate_term(expression.left, bindings)
        right = evaluate_term(expression.right, bindings)
        comparator = _COMPARATORS.get(expression.operator)
        if comparator is None:
            raise EvaluationError(f"unknown comparison operator {expression.operator!r}")
        return bindings if comparator(left, right) else None
    if isinstance(expression, Assignment):
        value = evaluate_term(expression.expression, bindings)
        existing = bindings.get(expression.target.name, _UNSET)
        if existing is not _UNSET:
            return bindings if existing == value else None
        extended = dict(bindings)
        extended[expression.target.name] = value
        return extended
    raise EvaluationError(f"unsupported expression literal {expression!r}")


# ---------------------------------------------------------------------------
# Join evaluation
# ---------------------------------------------------------------------------

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

    Called once per (database, relation) by the delta loops below and in the
    node engine, which keep the result: indexes are maintained incrementally
    once built (and rebuilt by the first probe after a table is cleared), and
    a database never replaces a table, so the loop holds the tables it
    expires instead of resolving them per delta.
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
    node engine, :func:`evaluate_program`) expire the tables of their bound
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


# ---------------------------------------------------------------------------
# Single-site fixpoint evaluation
# ---------------------------------------------------------------------------

@dataclass
class FixpointResult:
    """Result of a single-site fixpoint run."""

    database: Database
    derivations: List[Derivation]
    iterations: int

    def facts(self, relation: str) -> Tuple[Fact, ...]:
        return self.database.facts(relation)


def evaluate_program(
    compiled: CompiledProgram,
    database: Database,
    base_facts: Iterable[Fact],
    now: float = 0.0,
    default_ttl: Optional[float] = None,
) -> FixpointResult:
    """Run *compiled* to fixpoint over *database* seeded with *base_facts*.

    Aggregate heads are refined monotonically: a derived aggregate tuple only
    replaces the stored one when it improves the aggregate (e.g. a cheaper
    path for ``min``), which guarantees termination of recursive aggregate
    programs such as Best-Path.

    Soft-state semantics match the distributed path this is the reference
    implementation for: base and derived facts without an explicit TTL pick
    up their relation's ``materialize`` lifetime, falling back to
    *default_ttl*.
    """
    aggregates: Dict[str, AggregateState] = {}
    derivations: List[Derivation] = []
    queue: Deque[Fact] = deque()
    ttl_cache: Dict[str, Optional[float]] = {}

    def ttl_for(relation: str) -> Optional[float]:
        if relation in ttl_cache:
            return ttl_cache[relation]
        ttl = default_ttl
        if relation in database.catalog:
            lifetime = database.catalog.schema(relation).lifetime
            if lifetime is not None:
                ttl = lifetime
        ttl_cache[relation] = ttl
        return ttl

    for fact in base_facts:
        if fact.ttl is None:
            ttl = ttl_for(fact.relation)
            if ttl is not None:
                fact = fact.with_metadata(ttl=ttl)
        result = database.insert(fact, now=now)
        if result.inserted:
            derivations.append(
                Derivation(fact=fact, rule_label="base", node=fact.origin, timestamp=now)
            )
            queue.append(fact)

    iterations = 0
    strands: Dict[str, BoundStrand] = {}
    while queue:
        delta = queue.popleft()
        iterations += 1
        relation = delta.relation
        if relation in strands:
            pairs, probes = strands[relation]
        else:
            pairs, probes = strands[relation] = bind_strand(
                compiled, relation, database
            )
        for table in probes:
            if table._soft_count and now >= table._next_expiry:
                table.expire(now)
        for plan, delta_index in pairs:
            for firing in evaluate_plan_with_delta(plan, database, delta, delta_index):
                derived = _make_fact(plan, firing, now, ttl_for(plan.head.predicate))
                accepted = _accept_firing(plan, firing, derived, database, aggregates, now)
                if accepted is not None:
                    derivations.append(
                        Derivation(
                            fact=accepted,
                            rule_label=plan.label,
                            node=accepted.origin,
                            antecedents=firing.antecedents,
                            timestamp=now,
                        )
                    )
                    queue.append(accepted)

    return FixpointResult(database=database, derivations=derivations, iterations=iterations)


def _make_fact(
    plan: RulePlan, firing: RuleFiring, now: float, ttl: Optional[float] = None
) -> Fact:
    origin = str(firing.destination) if firing.destination is not None else None
    return Fact(
        relation=plan.head.predicate,
        values=firing.head_values,
        timestamp=now,
        ttl=ttl,
        origin=origin,
    )


def _accept_firing(
    plan: RulePlan,
    firing: RuleFiring,
    derived: Fact,
    database: Database,
    aggregates: Dict[str, AggregateState],
    now: float,
) -> Optional[Fact]:
    """Insert a derived fact, honouring head aggregates.

    Returns the fact actually stored (its aggregate column may differ from
    the firing's raw value), or ``None`` when the firing did not change the
    database.
    """
    head = plan.head
    if head.has_aggregate:
        state = aggregates.setdefault(
            f"{plan.label}:{head.predicate}", AggregateState(head.aggregate.function)
        )
        group = tuple(firing.head_values[i] for i in head.group_by_indexes)
        value = firing.head_values[head.aggregate_index]
        changed = state.update(group, value, contribution_key=firing.head_values)
        if changed is None:
            return None
        updated_values = list(firing.head_values)
        updated_values[head.aggregate_index] = changed
        derived = Fact(
            relation=derived.relation,
            values=tuple(updated_values),
            timestamp=now,
            ttl=derived.ttl,
            origin=derived.origin,
        )
    result = database.insert(derived, now=now)
    return derived if result.inserted else None
