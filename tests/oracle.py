"""The single-site evaluator: the slow reference the engine is held to.

Two pieces, both reached by tests only:

* :func:`unify_atom` / :func:`unify_term` / :func:`apply_expression` /
  :func:`evaluate_term` interpret one literal under a bindings dict.
  ``tests/test_rule_compiler.py`` holds the generated join functions of
  :mod:`repro.datalog.codegen` to them.

* :func:`evaluate_program` runs a whole program to fixpoint over one
  database, with the same delta loop the per-node engine runs
  (:func:`~repro.engine.seminaive.bind_strand` plus
  :func:`~repro.engine.seminaive.evaluate_plan_with_delta`) but no network:
  the reference distributed results are checked against.  It records one
  :class:`Derivation` per inserted fact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
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
from repro.engine.seminaive import (
    BoundStrand,
    RuleFiring,
    bind_strand,
    evaluate_plan_with_delta,
)
from repro.engine.tuples import Fact

Bindings = Dict[str, object]


@dataclass(frozen=True)
class Derivation:
    """A single application of a rule that produced a fact.

    The derived fact, the rule label, the node where the rule fired, and the
    antecedent facts that were joined (in body order).  Base facts are
    represented as derivations with an empty antecedent tuple and
    ``rule_label="base"``.
    """

    fact: Fact
    rule_label: str
    node: Optional[str]
    antecedents: Tuple[Fact, ...] = ()
    timestamp: float = 0.0

    @property
    def is_base(self) -> bool:
        return not self.antecedents

    def __str__(self) -> str:
        if self.is_base:
            return f"{self.fact} [base @ {self.node}]"
        children = "; ".join(str(a) for a in self.antecedents)
        return f"{self.fact} <-[{self.rule_label} @ {self.node}]- {children}"


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
    binds.
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
                fact = replace(fact, ttl=ttl)
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
