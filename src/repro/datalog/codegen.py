"""The rule compiler: one generated Python function per (rule, delta position).

P2 compiles every rule into a delta-rule dataflow strand; this module does
the same for a :class:`~repro.datalog.planner.DeltaPlan`.  The planner has
already decided, statically, the join order, the probe columns and which
variable is bound at every position, so :func:`generate_fire` writes that
decision out as straight-line Python — ``fire(database, delta, collect)`` —
and ``exec``s it once.  Every NDlog variable is a local, every join step one
``for`` loop over ``Table.lookup``, every unification and expression an
``if ...: continue`` or an assignment; nothing is interpreted per tuple.

**The source text is built from a closed alphabet.**  No string that comes
from a program or a tuple is ever spliced into it: variables are named by
slot index (``v0``, ``v1``, ...), facts and their value rows by body
position (``f2`` / ``r2``), and every constant, relation name, column tuple,
builtin callable and error message is bound by generated name (``K0``,
``K1``, ...) in the function's globals.  The only other fragments are
integers the generator computed itself and the operator tokens of
:data:`_OPERATORS`.  The rule label appears only in the code object's file
name.  This is the one module under ``src/repro`` allowed to call ``exec`` /
``compile`` (``tools/check_invariants.py``, INV007).

Semantics are those of the generic literal interpreter in
``tests/oracle.py`` (one atom, expression or term under a bindings dict),
which ``tests/test_rule_compiler.py`` runs side by side with the generated
code: every equality is a ``!=`` test against the fact's value even where
the index probe already matched it (``nan`` and ``1`` / ``True`` / ``1.0``
keys make dict identity and ``==`` differ), function-call terms inside an
atom unify after the atom's own variable slots, and an unknown function
symbol or unbound head variable raises its :class:`EvaluationError` when a
binding reaches that point, never at generation time.

To read what was generated: ``plan.delta_plan(i).source`` is the text,
``plan.delta_plan(i).fire.__globals__`` maps each ``K<n>`` to its value.
"""

from __future__ import annotations

import linecache
import zlib
from typing import TYPE_CHECKING, Callable, Dict, List, NoReturn, Tuple

from repro.datalog.ast import (
    Aggregate,
    Assignment,
    Constant,
    FunctionCall,
    Term,
    Variable,
    term_variables,
)
from repro.datalog.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - the planner imports this module
    from repro.datalog.planner import BodyAtomPlan, DeltaPlan, JoinStep, RulePlan

#: NDlog comparison operator -> Python operator token: the only table that
#: turns program text into source text, and it can only yield these tokens.
_OPERATORS = {
    "<": "<", ">": ">", "<=": "<=", ">=": ">=", "==": "==", "=": "==", "!=": "!=",
}

#: NDlog variable name -> the local holding its value at this point.
Bound = Dict[str, str]


def _raise(message: str) -> NoReturn:
    """Raise from expression position, in evaluation order."""
    raise EvaluationError(message)


class _FireWriter:
    """Accumulates the lines and the ``K<n>`` globals of one ``fire`` function."""

    def __init__(self, builtins: Dict[str, Callable]) -> None:
        self.builtins = builtins
        self.lines: List[str] = ["def fire(database, delta, collect):"]
        self.globals: Dict[str, object] = {}
        self.indent = 1
        self.fail = "return []"
        self.slots = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fail_if(self, condition: str) -> None:
        self.emit(f"if {condition}:")
        self.emit("    " + self.fail)

    def const(self, value: object) -> str:
        name = f"K{len(self.globals)}"
        self.globals[name] = value
        return name

    def throw(self, message: str) -> str:
        return f"{self.const(_raise)}({self.const(message)})"

    def expr(self, term: Term, bound: Bound) -> str:
        """Source of an expression evaluating *term* under *bound*."""
        if isinstance(term, Aggregate):
            term = term.variable
        if isinstance(term, Variable):
            local = bound.get(term.name)
            return local or self.throw(f"unbound variable {term.name}")
        if isinstance(term, Constant):
            return self.const(term.value)
        if isinstance(term, FunctionCall):
            function = self.builtins.get(term.name)
            if function is None:
                return self.throw(f"unknown function symbol {term.name!r}")
            args = ", ".join(self.expr(arg, bound) for arg in term.args)
            return f"{self.const(function)}({args})"
        return self.throw(f"cannot evaluate term {term!r}")

    def bind(self, name: str, value: str, bound: Bound) -> None:
        """Unify variable *name* with *value*: a new local, or an equality check."""
        if name in bound:
            self.fail_if(f"{bound[name]} != {value}")
        else:
            bound[name] = f"v{self.slots}"
            self.slots += 1
            self.emit(f"{bound[name]} = {value}")

    def unify_general(self, term: Term, value: str, bound: Bound) -> None:
        """A function-call term matches only once all its variables are bound."""
        if {variable.name for variable in term_variables(term)} <= bound.keys():
            self.fail_if(f"not ({self.expr(term, bound)} == {value})")
        else:
            self.emit(self.fail)

    def unify(
        self, atom_plan: BodyAtomPlan, index: int, fact: str, bound: Bound,
        guard: bool = False,
    ) -> None:
        """Unify *fact* (a local) against the atom at body position *index*."""
        terms = atom_plan.atom.terms
        row = f"r{index}"
        self.emit(f"{row} = {fact}.values")
        if guard:
            relation = self.const(atom_plan.atom.name)
            self.fail_if(f"{fact}.relation != {relation} or len({row}) != {len(terms)}")
        for column, term in enumerate(terms):
            if isinstance(term, Constant):
                self.fail_if(f"{row}[{column}] != {self.const(term.value)}")
        principal = atom_plan.says_principal
        if isinstance(principal, Constant):
            self.fail_if(f"{fact}.asserted_by != {self.const(principal.value)}")
        elif principal is not None:
            self.emit(f"a{index} = {fact}.asserted_by")
            self.fail_if(f"a{index} is None")
            if isinstance(principal, Variable):
                self.bind(principal.name, f"a{index}", bound)
            else:
                self.unify_general(principal, f"a{index}", bound)
        for column, term in enumerate(terms):
            if isinstance(term, Variable):
                self.bind(term.name, f"{row}[{column}]", bound)
        for column, term in enumerate(terms):
            if not isinstance(term, (Constant, Variable)):
                self.unify_general(term, f"{row}[{column}]", bound)

    def batch(self, expressions: Tuple[object, ...], bound: Bound) -> None:
        """Apply the expression literals that become ready at this position."""
        for expression in expressions:
            if isinstance(expression, Assignment):
                value = self.expr(expression.expression, bound)
                self.bind(expression.target.name, value, bound)
                continue
            operator = _OPERATORS.get(expression.operator)
            if operator is None:
                message = f"unknown comparison operator {expression.operator!r}"
                self.emit(self.throw(message))
                continue
            left = self.expr(expression.left, bound)
            right = self.expr(expression.right, bound)
            self.fail_if(f"not ({left} {operator} {right})")

    def loop(self, step: JoinStep, bound: Bound) -> str:
        """Open the probe loop of *step*; returns the local naming each fact."""
        atom = step.atom_plan.atom
        name = self.const(atom.name)
        # A subscript when the table exists (the engine binds every probed
        # table before the first join); Database.table only creates.
        table = (
            f"(tables[{name}] if {name} in tables"
            f" else database.table({name}, {len(atom.terms)}))"
        )
        if step.probe.columns:
            key = _tuple([self.expr(term, bound) for term in step.probe.terms])
            probe = f"{table}.lookup({self.const(step.probe.columns)}, {key})"
        else:
            probe = f"{table}.facts()"
        fact = f"f{step.body_index}"
        self.emit(f"for {fact} in {probe}:")
        self.indent += 1
        self.fail = "continue"
        return fact

    def veto(self, step: JoinStep, bound: Bound) -> None:
        """Probe a negated atom: any match skips what follows (``for``/``else``).

        Its bindings go to a scratch copy of *bound*: nothing leaks out.
        """
        outer = self.fail
        fact = self.loop(step, bound)
        self.unify(step.atom_plan, step.body_index, fact, dict(bound))
        self.emit("break")
        self.indent -= 1
        self.fail = outer
        self.emit("else:")
        self.indent += 1


def _tuple(items: List[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def generate_fire(plan: RulePlan, delta_plan: DeltaPlan) -> Tuple[str, Callable]:
    """Generate and ``exec`` the join function of *delta_plan*; ``(source, fire)``.

    ``fire(database, delta, collect)`` returns the list of
    :class:`~repro.engine.seminaive.RuleFiring` that *delta*, bound to the
    plan's delta position, produces against the tables of *database*;
    antecedents are reported in body order, or as ``()`` when *collect* is
    false.
    """
    # Imported here: the engine layer imports the planner at load time.
    from repro.engine.builtins import BUILTIN_FUNCTIONS
    from repro.engine.seminaive import RuleFiring

    writer = _FireWriter(BUILTIN_FUNCTIONS)
    bound: Bound = {}
    index = delta_plan.delta_index
    writer.unify(plan.body_atoms[index], index, "delta", bound, guard=True)
    if not delta_plan.safe:
        # Some expression never becomes evaluable from this delta position.
        writer.emit("return []")
        return _finish(writer, plan, index)
    loops = delta_plan.steps + delta_plan.negated
    writer.batch(delta_plan.expression_batches[0], bound)
    if loops:
        writer.emit("tables = database.by_name")
        writer.emit("firings = []")
    relation = plan.body_atoms[index].atom.name
    for position, step in enumerate(delta_plan.steps, start=1):
        fact = writer.loop(step, bound)
        if step.body_index < index and step.atom_plan.atom.name == relation:
            # A self-join finds a firing that binds the delta at two body
            # positions from the first of them only: an earlier position
            # joins the table as it was before the delta.
            writer.fail_if(f"{fact} is delta")
        writer.unify(step.atom_plan, step.body_index, fact, bound)
        writer.batch(delta_plan.expression_batches[position], bound)
    for step in delta_plan.negated:
        writer.veto(step, bound)
    head = _tuple([writer.expr(term, bound) for term in plan.head.atom.terms])
    destination = plan.head.destination
    ship_to = "None" if destination is None else writer.expr(destination, bound)
    facts = {index: "delta"}
    for step in delta_plan.steps:
        facts[step.body_index] = f"f{step.body_index}"
    antecedents = _tuple([facts[body_index] for body_index in sorted(facts)])
    firing = (
        f"{writer.const(RuleFiring)}({writer.const(plan)}, {head}, {ship_to}, "
        f"{antecedents} if collect else ())"
    )
    if loops:
        writer.emit(f"firings.append({firing})")
        writer.indent = 1
        writer.emit("return firings")
    else:
        writer.emit(f"return [{firing}]")
    return _finish(writer, plan, index)


def _finish(writer: _FireWriter, plan: RulePlan, index: int) -> Tuple[str, Callable]:
    source = "\n".join(writer.lines) + "\n"
    # One file name per function (cProfile keys by file, line and name), and
    # the digest keeps equally labelled rules of two programs apart.
    digest = zlib.crc32(source.encode("ascii"))
    filename = f"<ndlog {plan.label} delta {index} {digest:08x}>"
    exec(compile(source, filename, "exec"), writer.globals)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return source, writer.globals["fire"]
