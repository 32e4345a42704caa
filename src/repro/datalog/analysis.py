"""Static analysis of NDlog / SeNDlog programs.

Provides the predicate dependency graph, stratification and the rule safety
conditions.  The linter (:mod:`repro.datalog.lint`) is their one caller and
reports every violation as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.datalog.ast import (
    Assignment,
    Atom,
    Comparison,
    Program,
    Rule,
    SaysAtom,
    Span,
    span_of,
    term_variables,
)
from repro.datalog.errors import SafetyError


@dataclass
class DependencyGraph:
    """Predicate-level dependency graph of a program.

    ``edges[p]`` is the set of predicates that ``p`` depends on (appears in
    the body of some rule deriving ``p``); ``negative_edges`` is the subset of
    those dependencies that occur under negation.
    """

    edges: Dict[str, Set[str]] = field(default_factory=dict)
    negative_edges: Dict[str, Set[str]] = field(default_factory=dict)

    def add_dependency(self, head: str, body: str, negated: bool = False) -> None:
        self.edges.setdefault(head, set()).add(body)
        self.edges.setdefault(body, set())
        if negated:
            self.negative_edges.setdefault(head, set()).add(body)

    def predicates(self) -> Tuple[str, ...]:
        return tuple(self.edges)


def build_dependency_graph(program: Program) -> DependencyGraph:
    """Construct the predicate dependency graph of *program*."""
    graph = DependencyGraph()
    for rule in program.rules:
        graph.edges.setdefault(rule.head.name, set())
        for literal in rule.body:
            if isinstance(literal, Atom):
                graph.add_dependency(rule.head.name, literal.name, literal.negated)
            elif isinstance(literal, SaysAtom):
                graph.add_dependency(rule.head.name, literal.atom.name, False)
    return graph


def stratify(program: Program) -> Tuple[Tuple[str, ...], ...]:
    """Compute a stratification of *program*'s predicates.

    Raises :class:`SafetyError` when a predicate depends on its own negation
    (the program is then not stratifiable).
    """
    graph = build_dependency_graph(program)
    strata: Dict[str, int] = {name: 0 for name in graph.predicates()}

    changed = True
    iterations = 0
    limit = len(strata) * len(strata) + 10
    while changed:
        changed = False
        iterations += 1
        if iterations > limit:
            raise SafetyError(
                "program is not stratifiable (negative cycle)", code="NDL104"
            )
        for head, bodies in graph.edges.items():
            for body in bodies:
                negated = body in graph.negative_edges.get(head, set())
                required = strata[body] + 1 if negated else strata[body]
                if strata[head] < required:
                    strata[head] = required
                    changed = True

    if not strata:
        return ()
    max_level = max(strata.values())
    grouped: List[List[str]] = [[] for _ in range(max_level + 1)]
    for name in sorted(strata):
        grouped[strata[name]].append(name)
    return tuple(tuple(level) for level in grouped if level)


@dataclass(frozen=True)
class SafetyViolation:
    """One violated safety condition of a rule.

    ``code`` is the stable diagnostic code (``NDL101`` head variable,
    ``NDL102`` negated-atom variable, ``NDL103`` comparison variable,
    ``NDL107`` ship-to variable); ``span`` points at the offending variable
    when the rule was parsed from source (``None`` for hand-built rules).
    """

    code: str
    message: str
    span: Optional[Span] = None
    variable: Optional[str] = None


def iter_safety_violations(rule: Rule) -> Iterable[SafetyViolation]:
    """Yield every safety violation of *rule* (empty when the rule is safe).

    The conditions checked:

    * every head variable must be bound by a positive body atom or an
      assignment (``NDL101``);
    * every variable of a negated atom must be bound positively (``NDL102``);
    * every variable of a comparison must be bound (``NDL103``);
    * a head ship-to variable must be bound (or be the rule's principal
      context) (``NDL107``).
    """
    bound: Set[str] = set()
    for literal in rule.body:
        if isinstance(literal, (Atom, SaysAtom)):
            atom = literal.atom if isinstance(literal, SaysAtom) else literal
            if not atom.negated:
                for variable in literal.variables():
                    bound.add(variable.name)
        elif isinstance(literal, Assignment):
            bound.add(literal.target.name)

    for literal in rule.body:
        if isinstance(literal, Atom) and literal.negated:
            for variable in literal.variables():
                if variable.name not in bound:
                    yield SafetyViolation(
                        code="NDL102",
                        message=(
                            f"rule {rule.label}: variable {variable.name} of negated "
                            f"atom {literal.name} is not bound positively"
                        ),
                        span=span_of(variable) or span_of(literal),
                        variable=variable.name,
                    )
        elif isinstance(literal, Comparison):
            for variable in literal.variables():
                if variable.name not in bound:
                    yield SafetyViolation(
                        code="NDL103",
                        message=(
                            f"rule {rule.label}: comparison variable {variable.name} "
                            "is not bound by the body"
                        ),
                        span=span_of(variable) or span_of(literal),
                        variable=variable.name,
                    )

    for term in rule.head.terms:
        for variable in term_variables(term):
            if variable.name not in bound:
                yield SafetyViolation(
                    code="NDL101",
                    message=(
                        f"rule {rule.label}: head variable {variable.name} "
                        "is not bound by the body"
                    ),
                    span=span_of(variable) or span_of(rule.head),
                    variable=variable.name,
                )
    if rule.head.ship_to is not None:
        for variable in term_variables(rule.head.ship_to):
            if variable.name not in bound and (
                rule.context is None or str(rule.context) != variable.name
            ):
                yield SafetyViolation(
                    code="NDL107",
                    message=(
                        f"rule {rule.label}: ship-to variable {variable.name} "
                        "is not bound by the body"
                    ),
                    span=span_of(variable) or span_of(rule.head),
                    variable=variable.name,
                )
