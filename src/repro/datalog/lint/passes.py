"""The individual analysis passes of the NDlog / SeNDlog linter.

Every pass is a generator ``(LintContext) -> Iterator[Diagnostic]`` over one
parsed :class:`~repro.datalog.ast.Program`; passes never mutate the program
and never raise on bad input — a finding is always a
:class:`~repro.datalog.diagnostics.Diagnostic` with a stable code, so one
run reports *all* defects instead of dying on the first (the way
``stratify`` / ``Catalog.from_program`` do).

The pass registry and the code reference table live in
:mod:`repro.datalog.lint` (the package ``__init__``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.datalog.analysis import iter_safety_violations, stratify
from repro.datalog.ast import (
    Aggregate,
    Assignment,
    Atom,
    Comparison,
    Constant,
    Program,
    Rule,
    SaysAtom,
    Variable,
    span_of,
    term_variables,
)
from repro.datalog.diagnostics import Diagnostic, Severity
from repro.datalog.errors import SafetyError

#: Aggregate functions whose argument must be numeric.
NUMERIC_AGGREGATES = {"sum", "avg"}

#: Comparison operators the unsatisfiability pass can evaluate on constants.
_COMPARATORS = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class LintContext:
    """Everything a pass may consult: the program plus optional environment.

    ``keystore`` (a :class:`repro.security.keystore.KeyStore`) enables the
    authentication-coverage checks (NDL302 / NDL303); without one they are
    skipped, since key possession cannot be judged statically.
    ``link_relation`` names the connectivity relation the link-restriction
    pass (NDL105) treats as the physical topology.
    """

    program: Program
    keystore: Optional[object] = None
    link_relation: str = "link"
    source_name: Optional[str] = None
    #: Inferred constant type per (relation, column); computed once.
    _column_types: Optional[Dict[Tuple[str, int], Tuple[str, object]]] = (
        dataclass_field(default=None, repr=False)
    )

    def diagnostic(
        self,
        code: str,
        severity: Severity,
        message: str,
        node: object = None,
        rule: Optional[Rule] = None,
        suggestion: Optional[str] = None,
    ) -> Diagnostic:
        """Build a diagnostic anchored at *node*'s span (rule span fallback)."""
        span = span_of(node) if node is not None else None
        if span is None and rule is not None:
            span = span_of(rule)
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            line=span.line if span else 0,
            column=span.column if span else 0,
            end_line=span.end_line if span else 0,
            end_column=span.end_column if span else 0,
            rule_label=rule.label if rule is not None else None,
            suggestion=suggestion,
            source=self.source_name,
        )

    def column_types(self) -> Dict[Tuple[str, int], Tuple[str, object]]:
        """Constant-derived type per relation column: ``"number"`` or ``"string"``.

        The first constant seen for a column fixes its type (and is recorded
        for the conflict message); conflicting later constants are reported
        by the schema pass rather than re-inferred here.
        """
        if self._column_types is None:
            types: Dict[Tuple[str, int], Tuple[str, object]] = {}
            for rule in self.program.rules:
                for atom in (rule.head, *rule.body_atoms()):
                    for index, term in enumerate(atom.terms):
                        if not isinstance(term, Constant):
                            continue
                        kind = _constant_kind(term)
                        types.setdefault((atom.name, index), (kind, term))
            self._column_types = types
        return self._column_types


def _constant_kind(constant: Constant) -> str:
    return "number" if isinstance(constant.value, (int, float)) else "string"


def _evaluation_rules(program: Program) -> List[Rule]:
    return [rule for rule in program.rules if not rule.is_fact()]


# ---------------------------------------------------------------------------
# Structural / safety passes (NDL1xx)
# ---------------------------------------------------------------------------

def safety_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL101 / NDL102 / NDL103 / NDL107 — the classic Datalog safety rules."""
    for rule in _evaluation_rules(ctx.program):
        for violation in iter_safety_violations(rule):
            suggestion = None
            if violation.code == "NDL101":
                suggestion = (
                    f"bind {violation.variable} in a positive body atom or "
                    "an assignment"
                )
            yield ctx.diagnostic(
                violation.code,
                Severity.ERROR,
                violation.message,
                node=violation,
                rule=rule,
                suggestion=suggestion,
            )


def stratification_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL104 — the program's negation must be stratifiable."""
    try:
        stratify(ctx.program)
    except SafetyError as exc:
        anchor = None
        for rule in ctx.program.rules:
            for atom in rule.body_atoms():
                if atom.negated:
                    anchor = atom
                    break
            if anchor is not None:
                break
        yield ctx.diagnostic(
            "NDL104",
            Severity.ERROR,
            str(exc),
            node=anchor,
            suggestion="break the cycle through the negated predicate",
        )


def duplicate_label_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL106 — rule labels must be unique (they key provenance annotations)."""
    seen: Dict[str, Rule] = {}
    for rule in ctx.program.rules:
        first = seen.get(rule.label)
        if first is None:
            seen[rule.label] = rule
            continue
        first_span = span_of(first)
        where = f" (first defined at line {first_span.line})" if first_span else ""
        yield ctx.diagnostic(
            "NDL106",
            Severity.ERROR,
            f"duplicate rule label {rule.label!r}{where}; provenance "
            "annotations record the deriving rule by label, so duplicates "
            "corrupt attribution",
            node=rule,
            rule=rule,
            suggestion="rename one of the rules",
        )


def link_restriction_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL105 — the NDlog shipping rule, checked pre-localization.

    When a rule's body spans several locations, the localization rewrite
    ships intermediate tuples between those locations, and a real deployment
    can only ship along physical links: every pair of body location
    specifiers must be connected through ``link`` atoms *in the same body*
    (Loo et al.'s link-restricted condition).  Bodies whose locations are
    not so connected still execute in the simulator, hence a warning rather
    than an error.
    """
    link_name = ctx.link_relation
    for rule in _evaluation_rules(ctx.program):
        located: List[Atom] = []
        for atom in rule.body_atoms():
            if not atom.negated and atom.location_term is not None:
                located.append(atom)
        names = []
        for atom in located:
            name = str(atom.location_term)
            if name not in names:
                names.append(name)
        if len(names) <= 1:
            continue

        parent: Dict[str, str] = {}

        def find(item: str) -> str:
            parent.setdefault(item, item)
            while parent[item] != item:
                parent[item] = parent[parent[item]]
                item = parent[item]
            return item

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        for atom in located:
            if atom.name != link_name:
                continue
            anchor = str(atom.location_term)
            for index, term in enumerate(atom.terms):
                if index == atom.location_index:
                    continue
                if isinstance(term, (Variable, Constant)):
                    union(anchor, str(term))

        root = find(names[0])
        disconnected = [name for name in names[1:] if find(name) != root]
        if not disconnected:
            continue
        offender = next(
            atom for atom in located if str(atom.location_term) in disconnected
        )
        yield ctx.diagnostic(
            "NDL105",
            Severity.WARNING,
            f"rule {rule.label}: body locations {{{', '.join(names)}}} are not "
            f"connected through {link_name!r} atoms; the localization rewrite "
            "will ship tuples between nodes that share no physical link",
            node=offender,
            rule=rule,
            suggestion=(
                f"join the locations through a {link_name!r} atom or "
                "co-locate the body"
            ),
        )


# ---------------------------------------------------------------------------
# Schema / type passes (NDL2xx)
# ---------------------------------------------------------------------------

def schema_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL201 / NDL202 / NDL203 — catalog-driven schema checks."""
    arities: Dict[str, Tuple[int, Atom]] = {}
    for rule in ctx.program.rules:
        for atom in (rule.head, *rule.body_atoms()):
            known = arities.get(atom.name)
            if known is None:
                arities[atom.name] = (atom.arity, atom)
            elif known[0] != atom.arity:
                first_span = span_of(known[1])
                where = f" (line {first_span.line})" if first_span else ""
                yield ctx.diagnostic(
                    "NDL201",
                    Severity.ERROR,
                    f"relation {atom.name!r} used with arity {atom.arity} but "
                    f"first used with arity {known[0]}{where}",
                    node=atom,
                    rule=rule,
                )

    for decl in ctx.program.materialized:
        known = arities.get(decl.name)
        if known is None:
            yield ctx.diagnostic(
                "NDL202",
                Severity.WARNING,
                f"materialize declaration for relation {decl.name!r}, which no "
                "rule mentions",
                node=decl,
                suggestion="delete the declaration or fix the relation name",
            )
            continue
        arity = known[0]
        for key in decl.keys:
            if key < 1 or key > arity:
                yield ctx.diagnostic(
                    "NDL203",
                    Severity.ERROR,
                    f"materialize({decl.name}, ...): key column {key} out of "
                    f"range for arity {arity} (keys are 1-based)",
                    node=decl,
                )


def type_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL204 / NDL205 — constant-vs-column and aggregate-argument types."""
    types = ctx.column_types()
    for rule in ctx.program.rules:
        for atom in (rule.head, *rule.body_atoms()):
            for index, term in enumerate(atom.terms):
                if not isinstance(term, Constant):
                    continue
                kind = _constant_kind(term)
                declared, first = types[(atom.name, index)]
                if first is term or kind == declared:
                    continue
                first_span = span_of(first)
                where = f" at line {first_span.line}" if first_span else ""
                yield ctx.diagnostic(
                    "NDL204",
                    Severity.ERROR,
                    f"column {index + 1} of {atom.name!r} holds a {kind} "
                    f"constant here but a {declared} constant "
                    f"({first}){where}",
                    node=term,
                    rule=rule,
                )

    for rule in _evaluation_rules(ctx.program):
        for term in rule.head.terms:
            if not isinstance(term, Aggregate):
                continue
            if term.function not in NUMERIC_AGGREGATES:
                continue
            bad = _aggregate_string_binding(rule, term.variable.name, types)
            if bad is not None:
                relation, column = bad
                yield ctx.diagnostic(
                    "NDL205",
                    Severity.ERROR,
                    f"rule {rule.label}: {term.function}<{term.variable}> "
                    f"aggregates column {column + 1} of {relation!r}, whose "
                    "constants are strings; "
                    f"{term.function} needs a numeric argument",
                    node=term,
                    rule=rule,
                )


def _aggregate_string_binding(
    rule: Rule,
    variable: str,
    types: Dict[Tuple[str, int], Tuple[str, object]],
) -> Optional[Tuple[str, int]]:
    """The (relation, column) binding *variable* to a string column, if any."""
    for atom in rule.body_atoms():
        if atom.negated:
            continue
        for index, term in enumerate(atom.terms):
            if isinstance(term, Variable) and term.name == variable:
                inferred = types.get((atom.name, index))
                if inferred is not None and inferred[0] == "string":
                    return (atom.name, index)
    return None


# ---------------------------------------------------------------------------
# SeNDlog authentication coverage (NDL3xx)
# ---------------------------------------------------------------------------

def says_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL301 / NDL302 / NDL303 — ``says`` usage and key coverage.

    Unverifiable imports are exactly where fabricated-provenance attacks
    enter (arXiv 1703.03835), so a ``says`` import whose asserting principal
    has no verifying key in the keystore is an error, not a style issue.
    """
    keystore = ctx.keystore
    for rule in ctx.program.rules:
        for literal in rule.body:
            if not isinstance(literal, SaysAtom):
                continue
            if rule.context is None:
                yield ctx.diagnostic(
                    "NDL301",
                    Severity.ERROR,
                    f"rule {rule.label}: '{literal}' uses 'says' outside a "
                    "principal context; the says rewrite needs to know which "
                    "principal imports the tuple",
                    node=literal,
                    rule=rule,
                    suggestion="declare the rule inside an 'At <Principal>:' block",
                )
            if keystore is not None and isinstance(literal.principal, Constant):
                principal = str(literal.principal.value)
                if not keystore.has_public_key(principal):
                    yield ctx.diagnostic(
                        "NDL302",
                        Severity.ERROR,
                        f"rule {rule.label}: tuples imported from principal "
                        f"{principal!r} cannot be verified — the keystore "
                        "holds no public key for it",
                        node=literal,
                        rule=rule,
                        suggestion=(
                            f"register {principal!r}'s public key before "
                            "evaluating the program"
                        ),
                    )
        if (
            keystore is not None
            and rule.context is not None
            and isinstance(rule.context, Constant)
            and rule.head.ship_to is not None
        ):
            exporter = str(rule.context.value)
            if not keystore.has_private_key(exporter):
                yield ctx.diagnostic(
                    "NDL303",
                    Severity.ERROR,
                    f"rule {rule.label}: the head is exported to "
                    f"'{rule.head.ship_to}' but context principal "
                    f"{exporter!r} has no signing keypair — receivers cannot "
                    "verify the export",
                    node=rule.head,
                    rule=rule,
                    suggestion=f"create a keypair for {exporter!r} in the keystore",
                )


# ---------------------------------------------------------------------------
# Quality / performance passes (NDL4xx)
# ---------------------------------------------------------------------------

def dead_predicate_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL401 — a derived predicate nothing reads and nothing materializes.

    ``materialize`` marks a table as an externally visible query output, so
    only underived *and* undeclared predicates are dead weight: their rules
    burn evaluation and bandwidth for tuples no one can observe.
    """
    first_rule: Dict[str, Rule] = {}
    for rule in ctx.program.rules:
        first_rule.setdefault(rule.head.name, rule)
    read: Set[str] = set()
    for rule in ctx.program.rules:
        read.update(rule.body_predicates())
    declared = {decl.name for decl in ctx.program.materialized}
    for name, rule in first_rule.items():
        if name in read or name in declared:
            continue
        yield ctx.diagnostic(
            "NDL401",
            Severity.WARNING,
            f"derived predicate {name!r} is never read by any rule body and "
            "is not materialized; its derivations are unobservable",
            node=rule.head,
            rule=rule,
            suggestion=(
                f"materialize({name}, ...) if it is a query output, or delete "
                "the rules deriving it"
            ),
        )


def unused_variable_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL402 — a variable bound once and never used (non-``_`` singleton).

    A says-import principal used once (``W says reachable(S, Y)`` — import
    from *any* principal) is the paper's own idiom and is exempt; so are
    wildcard variables spelled with a leading underscore.
    """
    for rule in _evaluation_rules(ctx.program):
        occurrences: Dict[str, List[Tuple[Variable, str]]] = {}

        def record(variable: Variable, kind: str) -> None:
            occurrences.setdefault(variable.name, []).append((variable, kind))

        for term in rule.head.terms:
            for variable in term_variables(term):
                record(variable, "head")
        if rule.head.ship_to is not None:
            for variable in term_variables(rule.head.ship_to):
                record(variable, "head")
        if isinstance(rule.context, Variable):
            record(rule.context, "context")
        for literal in rule.body:
            if isinstance(literal, SaysAtom):
                for variable in term_variables(literal.principal):
                    record(variable, "says_principal")
                for term in literal.atom.terms:
                    for variable in term_variables(term):
                        record(variable, "body_atom")
            elif isinstance(literal, Atom):
                kind = "negated_atom" if literal.negated else "body_atom"
                for variable in literal.variables():
                    record(variable, kind)
            elif isinstance(literal, Assignment):
                record(literal.target, "assign_target")
                for variable in term_variables(literal.expression):
                    record(variable, "expression")
            elif isinstance(literal, Comparison):
                for variable in literal.variables():
                    record(variable, "expression")

        for name, uses in occurrences.items():
            if len(uses) != 1 or name.startswith("_"):
                continue
            variable, kind = uses[0]
            if kind not in ("body_atom", "assign_target"):
                continue
            yield ctx.diagnostic(
                "NDL402",
                Severity.WARNING,
                f"rule {rule.label}: variable {name} is bound but never used",
                node=variable,
                rule=rule,
                suggestion=f"rename it _{name} to mark the binding intentional",
            )


def cartesian_join_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL403 — positive body atoms that share no variables.

    Such a join enumerates the full cross product of the two relations; on a
    distributed soft-state engine that is almost always an authoring
    mistake, and always a performance hazard.
    """
    for rule in _evaluation_rules(ctx.program):
        atoms: List[Atom] = [a for a in rule.body_atoms() if not a.negated]
        with_vars = [
            atom for atom in atoms if any(True for _ in atom.variables())
        ]
        if len(with_vars) < 2:
            continue

        parent: Dict[int, int] = {i: i for i in range(len(with_vars))}

        def find(item: int) -> int:
            while parent[item] != item:
                parent[item] = parent[parent[item]]
                item = parent[item]
            return item

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        var_home: Dict[str, int] = {}
        for index, atom in enumerate(with_vars):
            for variable in atom.variables():
                home = var_home.setdefault(variable.name, index)
                union(home, index)

        # Expression literals relate the variables they mention: a comparison
        # or assignment chaining two atoms' variables turns the cross product
        # into a theta-join, which is constrained and not reported.
        for literal in rule.body:
            if isinstance(literal, (Comparison, Assignment)):
                homes = [
                    var_home[v.name]
                    for v in literal.variables()
                    if v.name in var_home
                ]
                for home in homes[1:]:
                    union(homes[0], home)

        root = find(0)
        for index in range(1, len(with_vars)):
            if find(index) != root:
                first, second = with_vars[0], with_vars[index]
                yield ctx.diagnostic(
                    "NDL403",
                    Severity.WARNING,
                    f"rule {rule.label}: atoms '{first}' and '{second}' share "
                    "no variables; the join enumerates their full cross "
                    "product",
                    node=second,
                    rule=rule,
                    suggestion="join the atoms through a shared variable",
                )
                break


def unsatisfiable_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """NDL404 — constant constraints that can never hold together."""
    for rule in _evaluation_rules(ctx.program):
        bindings: Dict[str, object] = {}
        conflict: Optional[Diagnostic] = None

        def resolve(term: object) -> Tuple[bool, object]:
            if isinstance(term, Constant):
                return True, term.value
            if isinstance(term, Variable) and term.name in bindings:
                return True, bindings[term.name]
            return False, None

        for literal in rule.body:
            if isinstance(literal, Assignment) and isinstance(
                literal.expression, Constant
            ):
                bindings[literal.target.name] = literal.expression.value
                continue
            if not isinstance(literal, Comparison):
                continue
            operator = literal.operator
            left_known, left = resolve(literal.left)
            right_known, right = resolve(literal.right)
            if left_known and right_known:
                result = _evaluate_comparison(operator, left, right)
                if result is False:
                    conflict = ctx.diagnostic(
                        "NDL404",
                        Severity.WARNING,
                        f"rule {rule.label}: '{literal}' is always false given "
                        "the rule's constant constraints; the rule can never "
                        "fire",
                        node=literal,
                        rule=rule,
                        suggestion="remove the rule or fix the constants",
                    )
                    break
                continue
            # An equality between a variable and a constant pins the variable.
            if operator in ("=", "=="):
                if (
                    isinstance(literal.left, Variable)
                    and right_known
                    and literal.left.name not in bindings
                ):
                    bindings[literal.left.name] = right
                elif (
                    isinstance(literal.right, Variable)
                    and left_known
                    and literal.right.name not in bindings
                ):
                    bindings[literal.right.name] = left

        if conflict is not None:
            yield conflict


def _evaluate_comparison(operator: str, left: object, right: object) -> Optional[bool]:
    """Evaluate a constant comparison; ``None`` when the types don't compare."""
    comparator = _COMPARATORS.get(operator)
    if comparator is None:
        return None
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    textual = isinstance(left, str) and isinstance(right, str)
    if operator in ("=", "==", "!="):
        if not (numeric or textual):
            # Cross-type equality is decidable: a number never equals a string.
            return operator == "!="
        return bool(comparator(left, right))
    if not (numeric or textual):
        return None
    return bool(comparator(left, right))
