"""Compilation of localized rules into executable plans.

A :class:`RulePlan` is the engine-facing representation of one rule: the
ordered body atoms to join, the expression literals (comparisons and
assignments) to apply, head-construction metadata (including aggregates and
the shipping destination), and the SeNDlog principal requirements implied by
``says`` literals.

The engine evaluates plans in a delta-driven (semi-naive) fashion: whenever a
new tuple of predicate *p* appears, every plan containing *p* in its body is
triggered once per occurrence of *p*, with the new tuple bound to that
occurrence and the remaining atoms joined against the stored tables.

For each (rule, delta position) pair the compiler also builds a
:class:`DeltaPlan`: the remaining body atoms greedily ordered by
bound-variable coverage (most-bound-first, constants counted), a
:class:`ProbeSpec` per atom giving the statically bound columns its table
probe can use, and a static schedule of which expression literals to apply
after each join step.  :mod:`repro.datalog.codegen` then writes each
:class:`DeltaPlan` out as one generated Python function
(:attr:`DeltaPlan.fire`, text in :attr:`DeltaPlan.source`) — the only
evaluator of the hot path; nothing about a rule is interpreted per tuple.
The functions are instance state of the plans of one
:class:`CompiledProgram`, shared by every node engine running it, and never
pickled: spawned shard workers recompile from the program AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.datalog.ast import (
    Aggregate,
    Assignment,
    Atom,
    Comparison,
    Constant,
    FunctionCall,
    Program,
    Rule,
    SaysAtom,
    Term,
    Variable,
)
from repro.datalog.codegen import generate_fire
from repro.datalog.errors import PlanError
from repro.datalog.rewrite import is_localized


@dataclass(frozen=True)
class BodyAtomPlan:
    """One relational body atom of a compiled rule.

    ``says_principal`` is set for SeNDlog ``P says atom`` literals: matching
    tuples must have been asserted (signed) by a principal that unifies with
    the term.
    """

    atom: Atom
    says_principal: Optional[Term] = None

    @property
    def predicate(self) -> str:
        return self.atom.name

    @property
    def negated(self) -> bool:
        return self.atom.negated


@dataclass(frozen=True)
class HeadPlan:
    """Head-construction metadata for a compiled rule.

    Attributes
    ----------
    atom:
        The head atom (terms may include one :class:`Aggregate`).
    aggregate_index:
        Position of the aggregate term in the head, or ``None``.
    aggregate:
        The aggregate itself, when present.
    group_by_indexes:
        Head positions that form the aggregate group (all non-aggregate
        positions).
    destination:
        The term giving the node the derived tuple must be shipped to: the
        head's ``@`` location specifier for NDlog, or the trailing ``@Loc``
        ship-to annotation for SeNDlog.  ``None`` means the tuple stays local.
    """

    atom: Atom
    aggregate_index: Optional[int]
    aggregate: Optional[Aggregate]
    group_by_indexes: Tuple[int, ...]
    destination: Optional[Term]

    @property
    def predicate(self) -> str:
        return self.atom.name

    @property
    def has_aggregate(self) -> bool:
        return self.aggregate is not None


@dataclass(frozen=True)
class ProbeSpec:
    """Precomputed bound-column probe for one body atom at one join position.

    ``columns`` are the atom argument positions that are statically guaranteed
    to be bound when the atom is probed (constants, plus variables bound by
    the delta, by earlier atoms in the join order, or by assignments whose
    inputs are bound by then).  ``terms`` holds the :class:`Constant` or
    :class:`Variable` at each such column, so the evaluator can build the
    lookup key with one pass over the bindings instead of re-deriving the
    bound columns per candidate probe.
    """

    columns: Tuple[int, ...]
    terms: Tuple[Term, ...]


@dataclass(frozen=True)
class JoinStep:
    """One atom of an optimized join order, with its probe spec."""

    body_index: int
    atom_plan: BodyAtomPlan
    probe: ProbeSpec


@dataclass(frozen=True)
class DeltaPlan:
    """The optimized join pipeline for one (rule, delta position) pair.

    ``steps`` are the remaining positive body atoms, greedily reordered
    most-bound-first; ``negated`` are the negated atoms (always checked last,
    stratified semantics) with probe specs computed from the full bound set.

    ``expression_batches`` has ``len(steps) + 1`` entries: batch ``i`` holds
    the expression literals (in dependency order) that first become fully
    bound after unifying the delta (``i == 0``) or join step ``i - 1``.
    Which variables are bound at each position is static, so the evaluator
    applies exactly these batches instead of re-scanning every expression
    for readiness at every position.  ``safe`` is False when some expression
    never becomes evaluable — the rule can produce no firing from this delta
    position.

    ``fire(database, delta, collect)`` is the function generated from all of
    the above and ``source`` its text (see :mod:`repro.datalog.codegen`); it
    reports antecedents in body order (each step keeps its ``body_index``),
    so provenance structure is independent of the join order picked here.
    Both are ``None`` on a bare :func:`build_delta_plan` result, which does
    not know the rule's head; :meth:`RulePlan.delta_plan` fills them in.
    """

    delta_index: int
    steps: Tuple[JoinStep, ...]
    negated: Tuple[JoinStep, ...]
    expression_batches: Tuple[Tuple[object, ...], ...]
    safe: bool
    source: Optional[str] = field(default=None, compare=False, repr=False)
    fire: Optional[Callable] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RulePlan:
    """A fully compiled, localized rule ready for delta evaluation."""

    rule: Rule
    head: HeadPlan
    body_atoms: Tuple[BodyAtomPlan, ...]
    expressions: Tuple[object, ...]  # Comparison | Assignment, in source order
    delta_plans: Dict[int, DeltaPlan] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def label(self) -> str:
        return self.rule.label

    @property
    def context(self) -> Optional[Term]:
        return self.rule.context

    @cached_property
    def aggregate_key(self) -> str:
        """Stable key for this rule's aggregate state (hot path: per firing)."""
        return f"{self.label}:{self.head.predicate}"

    def positive_atoms(self) -> Tuple[BodyAtomPlan, ...]:
        return tuple(b for b in self.body_atoms if not b.negated)

    def negative_atoms(self) -> Tuple[BodyAtomPlan, ...]:
        return tuple(b for b in self.body_atoms if b.negated)

    def trigger_indexes(self, predicate: str) -> Tuple[int, ...]:
        """Indexes of positive body atoms over *predicate* (delta positions)."""
        return tuple(
            i
            for i, b in enumerate(self.body_atoms)
            if b.predicate == predicate and not b.negated
        )

    def delta_plan(self, delta_index: int) -> DeltaPlan:
        """The join pipeline for *delta_index* with its generated function.

        Cached on this instance (never at module level): every engine that
        runs the same :class:`CompiledProgram` shares one function per
        (rule, delta position).
        """
        plan = self.delta_plans.get(delta_index)
        if plan is None:
            plan = build_delta_plan(self.body_atoms, self.expressions, delta_index)
            source, fire = generate_fire(self, plan)
            plan = replace(plan, source=source, fire=fire)
            self.delta_plans[delta_index] = plan
        return plan


#: (relation, arity, index column sets) — a table a strand's joins probe and
#: every hash index they probe it through.
ProbeTable = Tuple[str, int, Tuple[Tuple[int, ...], ...]]


@dataclass(frozen=True)
class Strand:
    """What one delta of a relation sets off, flattened for the delta loop.

    ``pairs`` is every ``(plan, delta position)`` the delta is evaluated at,
    in plan order then body order.  ``probes`` is every table those joins
    read — the soft-state expiry set of the delta — each with the hash
    indexes to build before the first join.  Built once per
    :class:`CompiledProgram`; the node engine and ``evaluate_program`` bind it
    to their database's tables and walk the same record.
    """

    pairs: Tuple[Tuple[RulePlan, int], ...] = ()
    probes: Tuple[ProbeTable, ...] = ()


_NO_STRAND = Strand()


@dataclass(frozen=True)
class CompiledProgram:
    """All rule plans of a program, indexed for delta-driven evaluation."""

    program: Program
    plans: Tuple[RulePlan, ...]
    triggers: Dict[str, Tuple[RulePlan, ...]] = field(default_factory=dict)
    #: One :class:`Strand` per body relation, derived from ``triggers``.
    strands: Dict[str, Strand] = field(
        init=False, default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        for relation, plans in self.triggers.items():
            self.strands[relation] = _build_strand(relation, plans)

    def plans_for_head(self, predicate: str) -> Tuple[RulePlan, ...]:
        return tuple(p for p in self.plans if p.head.predicate == predicate)

    def plans_triggered_by(self, predicate: str) -> Tuple[RulePlan, ...]:
        return self.triggers.get(predicate, ())

    def strand(self, relation: str) -> Strand:
        """The :class:`Strand` of *relation*; empty when no rule reads it."""
        return self.strands.get(relation, _NO_STRAND)


def _build_strand(relation: str, plans: Sequence[RulePlan]) -> Strand:
    pairs: List[Tuple[RulePlan, int]] = []
    indexes: Dict[Tuple[str, int], List[Tuple[int, ...]]] = {}
    for plan in plans:
        for delta_index in plan.trigger_indexes(relation):
            pairs.append((plan, delta_index))
            delta_plan = plan.delta_plan(delta_index)
            for step in delta_plan.steps + delta_plan.negated:
                atom = step.atom_plan.atom
                columns = indexes.setdefault((atom.name, atom.arity), [])
                if step.probe.columns and step.probe.columns not in columns:
                    columns.append(step.probe.columns)
    return Strand(
        pairs=tuple(pairs),
        probes=tuple(
            (name, arity, tuple(columns))
            for (name, arity), columns in indexes.items()
        ),
    )


def compile_rule(rule: Rule) -> RulePlan:
    """Compile a single localized rule into a :class:`RulePlan`."""
    if not is_localized(rule):
        raise PlanError(
            f"rule {rule.label} is not localized; run the localization rewrite first"
        )

    body_atoms: List[BodyAtomPlan] = []
    expressions: List[object] = []
    for literal in rule.body:
        if isinstance(literal, Atom):
            body_atoms.append(BodyAtomPlan(atom=literal))
        elif isinstance(literal, SaysAtom):
            body_atoms.append(
                BodyAtomPlan(atom=literal.atom, says_principal=literal.principal)
            )
        elif isinstance(literal, (Comparison, Assignment)):
            expressions.append(literal)
        else:  # pragma: no cover - parser cannot produce other literal types
            raise PlanError(f"rule {rule.label}: unsupported literal {literal!r}")

    plan = RulePlan(
        rule=rule,
        head=_compile_head(rule),
        body_atoms=tuple(body_atoms),
        expressions=tuple(expressions),
    )
    for index, atom_plan in enumerate(plan.body_atoms):
        if not atom_plan.negated:
            plan.delta_plan(index)
    return plan


def compile_program(program: Program) -> CompiledProgram:
    """Compile every rule of a (localized) program and build trigger indexes."""
    plans = tuple(compile_rule(rule) for rule in program.rules if not rule.is_fact())
    triggers: Dict[str, List[RulePlan]] = {}
    for plan in plans:
        for body_atom in plan.positive_atoms():
            triggers.setdefault(body_atom.predicate, [])
            if plan not in triggers[body_atom.predicate]:
                triggers[body_atom.predicate].append(plan)
    return CompiledProgram(
        program=program,
        plans=plans,
        triggers={name: tuple(plans_) for name, plans_ in triggers.items()},
    )


# ---------------------------------------------------------------------------
# Bound-aware join ordering
# ---------------------------------------------------------------------------

def build_delta_plan(
    body_atoms: Tuple[BodyAtomPlan, ...],
    expressions: Tuple[object, ...],
    delta_index: int,
) -> DeltaPlan:
    """Order the non-delta body atoms greedily by bound-variable coverage.

    Starting from the variables the delta occurrence binds, repeatedly pick
    the remaining positive atom with the most bound argument positions
    (constants count as bound; ties broken by body order, keeping the
    optimizer deterministic).  After each pick, the atom's variables — plus
    any assignment targets that become computable — join the bound set, and
    each atom's :class:`ProbeSpec` records the columns bound at its probe
    time so the evaluator can hit :meth:`Table.lookup` directly.
    """
    if not (0 <= delta_index < len(body_atoms)):
        raise PlanError(f"delta index {delta_index} out of range")
    delta_atom = body_atoms[delta_index]
    if delta_atom.negated:
        raise PlanError("cannot use a negated atom as the delta")

    bound = _atom_bound_variables(delta_atom)
    applied: Set[int] = set()
    batches: List[Tuple[object, ...]] = [_ready_batch(expressions, applied, bound)]
    remaining = [
        (index, atom_plan)
        for index, atom_plan in enumerate(body_atoms)
        if index != delta_index and not atom_plan.negated
    ]

    steps: List[JoinStep] = []
    while remaining:
        index, atom_plan = max(
            remaining,
            key=lambda item: (_bound_column_count(item[1].atom, bound), -item[0]),
        )
        remaining.remove((index, atom_plan))
        steps.append(
            JoinStep(
                body_index=index,
                atom_plan=atom_plan,
                probe=_probe_spec(atom_plan.atom, bound),
            )
        )
        bound |= _atom_bound_variables(atom_plan)
        batches.append(_ready_batch(expressions, applied, bound))

    negated = tuple(
        JoinStep(
            body_index=index,
            atom_plan=atom_plan,
            probe=_probe_spec(atom_plan.atom, bound),
        )
        for index, atom_plan in enumerate(body_atoms)
        if atom_plan.negated
    )
    return DeltaPlan(
        delta_index=delta_index,
        steps=tuple(steps),
        negated=negated,
        expression_batches=tuple(batches),
        safe=len(applied) == len(expressions),
    )


def _atom_bound_variables(atom_plan: BodyAtomPlan) -> Set[str]:
    """Variables a successful unification against *atom_plan* binds."""
    names = {
        term.name for term in atom_plan.atom.terms if isinstance(term, Variable)
    }
    if isinstance(atom_plan.says_principal, Variable):
        names.add(atom_plan.says_principal.name)
    return names


def _term_variables(term: Term) -> Set[str]:
    if isinstance(term, Variable):
        return {term.name}
    if isinstance(term, FunctionCall):
        names: Set[str] = set()
        for arg in term.args:
            names |= _term_variables(arg)
        return names
    if isinstance(term, Aggregate):
        return {term.variable.name}
    return set()


def _ready_batch(
    expressions: Sequence[object], applied: Set[int], bound: Set[str]
) -> Tuple[object, ...]:
    """Expressions that first become fully bound under *bound*, in order.

    Mutates *applied* (indexes scheduled so far) and *bound* (assignment
    targets become bound), cascading until no further expression is ready —
    the static mirror of the evaluator's old per-binding readiness scan.
    """
    batch: List[object] = []
    progress = True
    while progress:
        progress = False
        for index, expression in enumerate(expressions):
            if index in applied:
                continue
            if isinstance(expression, Assignment):
                if _term_variables(expression.expression) <= bound:
                    applied.add(index)
                    bound.add(expression.target.name)
                    batch.append(expression)
                    progress = True
            elif isinstance(expression, Comparison):
                if (
                    _term_variables(expression.left) | _term_variables(expression.right)
                ) <= bound:
                    applied.add(index)
                    batch.append(expression)
                    progress = True
    return tuple(batch)


def _bound_column_count(atom: Atom, bound: Set[str]) -> int:
    """Argument positions of *atom* bound under *bound* (constants count)."""
    count = 0
    for term in atom.terms:
        if isinstance(term, Constant):
            count += 1
        elif isinstance(term, Variable) and term.name in bound:
            count += 1
    return count


def _probe_spec(atom: Atom, bound: Set[str]) -> ProbeSpec:
    columns: List[int] = []
    terms: List[Term] = []
    for index, term in enumerate(atom.terms):
        if isinstance(term, Constant) or (
            isinstance(term, Variable) and term.name in bound
        ):
            columns.append(index)
            terms.append(term)
    return ProbeSpec(columns=tuple(columns), terms=tuple(terms))


def _compile_head(rule: Rule) -> HeadPlan:
    aggregate_index: Optional[int] = None
    aggregate: Optional[Aggregate] = None
    for index, term in enumerate(rule.head.terms):
        if isinstance(term, Aggregate):
            if aggregate is not None:
                raise PlanError(
                    f"rule {rule.label}: at most one aggregate per head is supported"
                )
            aggregate_index = index
            aggregate = term

    group_by = tuple(
        i for i in range(len(rule.head.terms)) if i != aggregate_index
    )

    destination: Optional[Term] = None
    if rule.head.ship_to is not None:
        destination = rule.head.ship_to
    elif rule.head.location_term is not None:
        destination = rule.head.location_term

    return HeadPlan(
        atom=rule.head,
        aggregate_index=aggregate_index,
        aggregate=aggregate,
        group_by_indexes=group_by,
        destination=destination,
    )
