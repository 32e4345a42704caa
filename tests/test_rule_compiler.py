"""The rule compiler against the reference interpreter.

``repro.datalog.codegen`` generates one Python function per (rule, delta
position); the generic ``unify_term`` / ``apply_expression`` /
``evaluate_term`` of ``tests/oracle.py`` interpret the same literals
under a bindings dict.  The oracle below enumerates the body in *source*
order, by full scans, with those generic functions — a scan at a body
position before the delta's skips the delta itself, so a self-join finds a
firing that binds the delta twice once — and for every delta position the
generated function must return the same multiset of ``(head values,
destination, antecedents in body order)``.

Below that: the closed alphabet of the generated text, error parity, what
the generated code looks like from outside (``.source``, file names,
tracebacks, the golden file), and the exact work budget of a Best-Path run.
"""

from __future__ import annotations

import difflib
import linecache
import math
import os
import pickle
import re
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import apply_expression, evaluate_term, term_is_bound, unify_term

import repro.datalog.planner as planner_module
import repro.engine.node_engine as node_engine_module
from repro.api import Network
from repro.datalog.ast import (
    Assignment,
    Atom,
    Comparison,
    Constant,
    FunctionCall,
    Rule,
    SaysAtom,
    Variable,
)
from repro.datalog.catalog import Catalog
from repro.datalog.errors import EvaluationError
from repro.datalog.parser import parse_rule
from repro.datalog.planner import RulePlan, build_delta_plan, compile_rule
from repro.engine.database import Database
from repro.engine.seminaive import RuleFiring, evaluate_plan_with_delta
from repro.engine.table import Table
from repro.engine.tuples import Fact
from repro.net.kernel import CostModel
from repro.queries.best_path import compile_best_path

GOLDEN = Path(__file__).parent / "golden" / "best_path_rules.txt"

# -- the oracle ------------------------------------------------------------------


def match(atom_plan, fact, bindings):
    """Unify *fact* with *atom_plan*: principal, own variable slots, then calls."""
    atom = atom_plan.atom
    if fact.relation != atom.name or len(fact.values) != atom.arity:
        return None
    pairs = list(zip(atom.terms, fact.values))
    simple = [p for p in pairs if isinstance(p[0], (Variable, Constant))]
    calls = [p for p in pairs if not isinstance(p[0], (Variable, Constant))]
    if atom_plan.says_principal is not None:
        if fact.asserted_by is None:
            return None
        simple.insert(0, (atom_plan.says_principal, fact.asserted_by))
    for term, value in simple + calls:
        bindings = unify_term(term, value, bindings)
        if bindings is None:
            return None
    return bindings


def reference_firings(plan, database, delta, delta_index):
    """Every firing of *plan* with *delta* at *delta_index*, by brute force."""
    body = plan.body_atoms
    others = [i for i, b in enumerate(body) if not b.negated and i != delta_index]
    firings = []

    def finish(bindings, antecedents):
        pending = list(plan.expressions)
        progress = True
        while progress and pending:
            progress = False
            for expression in list(pending):
                inputs = (
                    [expression.expression]
                    if isinstance(expression, Assignment)
                    else [expression.left, expression.right]
                )
                if all(term_is_bound(term, bindings) for term in inputs):
                    pending.remove(expression)
                    progress = True
                    bindings = apply_expression(expression, bindings)
                    if bindings is None:
                        return
        if pending:
            return  # unsafe: some literal never becomes evaluable
        for atom_plan in body:
            if atom_plan.negated and any(
                match(atom_plan, fact, bindings) is not None
                for fact in database.facts(atom_plan.predicate)
            ):
                return
        head = tuple(evaluate_term(term, bindings) for term in plan.head.atom.terms)
        ship_to = plan.head.destination
        destination = None if ship_to is None else evaluate_term(ship_to, bindings)
        before = sum(1 for index in others if index < delta_index)
        firings.append(
            (head, destination, antecedents[:before] + (delta,) + antecedents[before:])
        )

    def join(position, bindings, antecedents):
        if position == len(others):
            finish(bindings, antecedents)
            return
        atom_plan = body[others[position]]
        earlier = others[position] < delta_index
        for fact in database.facts(atom_plan.predicate):
            if earlier and fact is delta:
                continue  # an earlier position joins the table without the delta
            unified = match(atom_plan, fact, bindings)
            if unified is not None:
                join(position + 1, unified, antecedents + (fact,))

    initial = match(body[delta_index], delta, {})
    if initial is not None:
        join(0, initial, ())
    return firings


def normal(value):
    """Equal numbers alike, nan equal to itself.

    Which of ``1`` / ``True`` / ``1.0`` a head carries depends on which atom
    bound the variable first, that is on the join order; *which facts joined*
    does not, and antecedents are compared by identity.
    """
    if isinstance(value, tuple):
        return tuple(normal(element) for element in value)
    if isinstance(value, (bool, int, float)):
        return "nan" if value != value else float(value)
    return value


def canonical(head, destination, antecedents):
    return (repr(normal((head, destination))), tuple(id(fact) for fact in antecedents))


def assert_same_firings(plan, database, deltas):
    for delta_index, atom_plan in enumerate(plan.body_atoms):
        if atom_plan.negated:
            continue
        for delta in deltas:
            expected = sorted(
                canonical(*firing)
                for firing in reference_firings(plan, database, delta, delta_index)
            )
            compiled = evaluate_plan_with_delta(plan, database, delta, delta_index)
            assert all(firing.plan is plan for firing in compiled)
            assert expected == sorted(
                canonical(f.head_values, f.destination, f.antecedents) for f in compiled
            ), (plan.delta_plan(delta_index).source, delta)
            bare = evaluate_plan_with_delta(
                plan, database, delta, delta_index, collect_antecedents=False
            )
            assert sorted(e[0] for e in expected) == sorted(
                canonical(f.head_values, f.destination, ())[0] for f in bare
            )
            assert all(firing.antecedents == () for firing in bare)


def database_of(facts):
    database = Database(Catalog())
    for fact in facts:
        database.insert(fact)
    return database


# -- explicit shapes -------------------------------------------------------------

NAN = math.nan
WEIRD = (0, 1, True, 1.0, 2, NAN)


def grid(relation, arity, values=WEIRD, **metadata):
    facts = [Fact(relation, (v,) * arity, **metadata) for v in values]
    facts += [
        Fact(relation, tuple(values[(i + k) % len(values)] for k in range(arity)), **metadata)
        for i in range(len(values))
    ]
    return facts


SHAPES = {
    "constants in atoms": (
        'r h(X) :- p(X, 1), q("a", X).',
        grid("p", 2) + [Fact("q", ("a", v)) for v in WEIRD] + [Fact("q", ("b", 1))],
    ),
    "repeated variable inside and across atoms": (
        "r h(X, Y) :- p(X, X), q(X, Y), q(Y, Y).",
        grid("p", 2) + grid("q", 2),
    ),
    "self join": (
        "r h(X, Z) :- p(X, Y), p(Y, Z).",
        grid("p", 2),
    ),
    "says variable, constant and unsigned": (
        "r h(W, X, Y)@W :- W says p(X, Y), alice says q(Y), W says s(X).",
        grid("p", 2, asserted_by="alice")
        + grid("p", 2, values=(5, 6), asserted_by="bob")
        + grid("p", 2, values=(7,))
        + grid("q", 1, values=WEIRD + (5, 7), asserted_by="alice")
        + grid("q", 1, values=(6,), asserted_by="bob")
        + grid("q", 1, values=(8,))
        + grid("s", 1, asserted_by="alice")
        + grid("s", 1, values=(5, 6), asserted_by="bob")
        + grid("s", 1, values=(7,)),
    ),
    "negation sharing a name with a positive atom": (
        "r h(X, Y) :- p(X, Y), !p(Y, X), !q(X, Z, Z).",
        grid("p", 2) + [Fact("q", (0, 1, 2)), Fact("q", (2, 3, 3))],
    ),
    "negated atoms keep their bindings to themselves": (
        "r h(X) :- p(X), !q(X, Z), !s(Z, X).",
        grid("p", 1, values=(0, 1, 2, 3))
        + [Fact("q", (0, 5)), Fact("s", (5, 1)), Fact("s", (9, 2))],
    ),
    "batches ready at different depths": (
        "r h(X, Y, Z, S) :- p(X, A), X < 2, q(Y, B), S := A + B, S >= 2, "
        "p(Z, C), T := S + C, T != 3, X <= Z.",
        grid("p", 2, values=(0, 1, 2, 3)) + grid("q", 2, values=(0, 1, 2)),
    ),
    "assignment to an already bound target": (
        "r h(X, Y) :- p(X, Y), Y := X + 1, q(Z, Y), Z := Y.",
        grid("p", 2) + [Fact("p", (1, 2)), Fact("p", (NAN, NAN))] + grid("q", 2),
    ),
    "call term mentioning a variable bound later in the same atom": (
        "r h(X, Y) :- p(X + 1, X), q(f_init(Y, X), Y).",
        [Fact("p", (2, 1)), Fact("p", (1, 1)), Fact("p", (2.0, True)), Fact("p", (NAN, NAN))]
        + [Fact("q", ((3, 1), 3)), Fact("q", ((3, 2), 3)), Fact("q", ((4, True), 4))],
    ),
    "zero-column probe": (
        "r h(X, Y, Z) :- p(X), q(Y), s(Z).",
        grid("p", 1) + grid("q", 1, values=(3, 4)) + grid("s", 1, values=(5,)),
    ),
    "unsafe plan": (
        "r h(X) :- p(X), X < Unbound, Y := Unbound2 + 1.",
        grid("p", 1),
    ),
    "every comparison operator": (
        "r h(X, Y) :- p(X, Y), q(A, B), X < A, Y > B, X <= B, Y >= A, X == X, "
        "A = A, X != Y.",
        grid("p", 2) + grid("q", 2) + [Fact("q", (1, 0)), Fact("q", (2, 0.5))],
    ),
    "aggregate head and constant head terms": (
        'r h(X, min<C>, "k", f_init(X, C)) :- p(X, C).',
        grid("p", 2),
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_matches_the_reference(name):
    source, facts = SHAPES[name]
    plan = compile_rule(parse_rule(source))
    strays = [Fact("p", (1, 2, 3)), Fact("elsewhere", (1, 1))]
    assert_same_firings(plan, database_of(facts), facts + strays)


def test_shapes_fire_at_all():
    """The table above must not agree with the oracle by never firing."""
    silent = {"unsafe plan"}
    for name, (source, facts) in SHAPES.items():
        plan = compile_rule(parse_rule(source))
        database = database_of(facts)
        fired = sum(
            len(evaluate_plan_with_delta(plan, database, delta, 0)) for delta in facts
        )
        assert (fired == 0) == (name in silent), name


# -- random rules ----------------------------------------------------------------

ARITY = {"p": 2, "q": 2, "s": 1}
NAMES = st.sampled_from(sorted(ARITY))
VALUES = st.sampled_from(WEIRD)
NUMBERS = [Variable(name) for name in "XYZU"]
PRINCIPALS = st.sampled_from(
    [None] * 10 + [Variable("W"), Variable("W"), Variable("V"), Constant("a"), Constant("b")]
)
SIGNERS = st.sampled_from(["a", "a", "a", None, "b"])


def terms_over(variables, weight=5):
    """Mostly variables: every constant is one more way not to fire."""
    return st.one_of(*[st.sampled_from(variables)] * weight, VALUES.map(Constant))


@st.composite
def atoms(draw, negated=False):
    name = draw(NAMES)
    # A negated atom that matches anything vetoes everything: keep it picky.
    terms = [draw(terms_over(NUMBERS, 1 if negated else 5)) for _ in range(ARITY[name])]
    column = draw(st.integers(0, len(terms) - 1))
    own = [t for t in terms[:column] + terms[column + 1:] if isinstance(t, Variable)]
    if own and draw(st.integers(0, 2)) == 1:
        # A call term only over this atom's own variable slots: anything
        # wider would make the result depend on the join order.
        call = FunctionCall("+", (draw(st.sampled_from(own)), Constant(draw(VALUES))))
        terms[column] = call
    atom = Atom(name, tuple(terms), negated=negated)
    principal = draw(PRINCIPALS)
    return atom if principal is None else SaysAtom(principal, atom)


@st.composite
def expressions(draw, variables):
    def operand():
        term = draw(terms_over(variables))
        if draw(st.integers(0, 3)) == 2:
            term = FunctionCall(draw(st.sampled_from("+-*")), (term, draw(terms_over(variables))))
        return term

    if draw(st.booleans()):
        return Assignment(draw(st.sampled_from(NUMBERS + [Variable("T")])), operand())
    operator = draw(st.sampled_from(["<", ">", "<=", ">=", "==", "=", "!="]))
    return Comparison(operator, operand(), operand())


@st.composite
def facts_for(draw, name):
    values = tuple(draw(VALUES) for _ in range(ARITY[name]))
    return Fact(name, values, asserted_by=draw(SIGNERS))


def slot_variables(literal):
    """The variables a positive literal binds: its own slots and its principal."""
    atom = literal.atom if isinstance(literal, SaysAtom) else literal
    slots = list(atom.terms) + [getattr(literal, "principal", None)]
    return [term for term in slots if isinstance(term, Variable)]


@st.composite
def rules_with_data(draw):
    positive = draw(st.lists(atoms(), min_size=1, max_size=3))
    negative = draw(st.lists(atoms(negated=True), max_size=2))
    joined = sorted({v for literal in positive for v in slot_variables(literal)}, key=str)
    numbers = [v for v in joined if v in NUMBERS]
    # One draw in eight reads a variable nothing binds: an unsafe plan.
    readable = NUMBERS if not numbers or draw(st.integers(0, 7)) == 3 else numbers
    filters = draw(st.lists(expressions(readable), max_size=2))
    literals = draw(st.permutations(positive + negative + filters))
    bound = joined + [lit.target for lit in filters if isinstance(lit, Assignment)]
    head_terms = draw(st.lists(st.sampled_from(bound), max_size=3)) if bound else []
    ship_to = draw(st.sampled_from(bound)) if bound and draw(st.booleans()) else None
    rule = Rule("r", Atom("h", tuple(head_terms), ship_to=ship_to), tuple(literals))
    stored = [
        fact
        for name in sorted(ARITY)
        for fact in draw(st.lists(facts_for(name), min_size=6, max_size=12))
    ]
    return rule, stored


@settings(max_examples=300, deadline=None)
@given(rules_with_data())
def test_random_rules_match_the_reference(case):
    rule, stored = case
    plan = compile_rule(rule)
    database = database_of(stored)
    live = [fact for name in sorted(ARITY) for fact in database.facts(name)]
    assert_same_firings(plan, database, live + [Fact("p", (1,)), Fact("s", (NAN,))])


# -- the closed alphabet ---------------------------------------------------------

HOSTILE = [
    '"); import os #',
    "x'\"\"\"\\",
    "line\nbreak\r\n    indented",
    "ünï-码",
    "class",
    "None",
    "__import__('os').system('true')",
    "K0",
    "v0",
]

WORDS = {
    "def", "fire", "database", "delta", "collect", "firings", "values", "relation",
    "asserted_by", "table", "tables", "by_name", "lookup", "facts", "append", "len",
    "if", "not", "or",
    "is", "None", "return", "for", "in", "continue", "break", "else",
}


def assert_closed_alphabet(source):
    assert source.isascii()
    assert set(re.sub(r"\w+", "", source)) <= set("()[].,:=!<> \n")
    for word in re.findall(r"\w+", source):
        assert word in WORDS or re.fullmatch(r"[Kvfra]\d+|\d+", word), word


def test_hostile_names_never_reach_the_source_text():
    a, b, c, d, e, f, g, h, i = HOSTILE
    X, Y, Z = Variable(d), Variable(e), Variable(f)
    rule = Rule(
        label=c + a,
        head=Atom(g, (X, Constant(a), FunctionCall("f_init", (Y, Constant(b)))), ship_to=Z),
        body=(
            SaysAtom(Z, Atom(a, (X, Constant(b), Y))),
            Atom(c, (Y, X)),
            Atom(b, (Constant(c), X), negated=True),
            Comparison("!=", X, Constant(g)),
            Assignment(Variable(h), FunctionCall("f_init", (X, Constant(i)))),
            SaysAtom(Constant(g), Atom(e, (Variable(h),))),
        ),
    )
    plan = compile_rule(rule)
    stored = [
        Fact(a, (x, b, y), asserted_by=who)
        for x in HOSTILE[:3]
        for y in HOSTILE[2:5]
        for who in (a, None)
    ]
    stored += [Fact(c, (y, x)) for x in HOSTILE[:3] for y in HOSTILE[3:6]]
    stored += [Fact(b, (c, HOSTILE[1])), Fact(b, (a, HOSTILE[0]))]
    stored += [Fact(e, ((x, i),), asserted_by=g) for x in HOSTILE[:2]]
    database = database_of(stored)
    assert_same_firings(plan, database, stored)
    assert any(
        evaluate_plan_with_delta(plan, database, delta, 0) for delta in stored
    )
    assert sorted(plan.delta_plans) == [0, 1, 3]
    for delta_plan in plan.delta_plans.values():
        assert_closed_alphabet(delta_plan.source)
        # The label is in the file name, and only there.
        assert delta_plan.fire.__code__.co_filename.startswith(f"<ndlog {c + a} delta")
        bound_names = delta_plan.fire.__globals__
        assert {a, b, c, g} <= {v for v in bound_names.values() if isinstance(v, str)}


def test_every_generated_function_of_the_suite_stays_in_the_alphabet():
    for source, _facts in SHAPES.values():
        plan = compile_rule(parse_rule(source))
        for delta_plan in plan.delta_plans.values():
            assert_closed_alphabet(delta_plan.source)


# -- error parity ----------------------------------------------------------------


def fire(source, *values, relation="q", stored=()):
    plan = compile_rule(parse_rule(source))
    return evaluate_plan_with_delta(
        plan, database_of(stored), Fact(relation, values), 0
    )


class TestErrorsSurfaceWhenABindingReachesThem:
    def test_unknown_function_symbol(self):
        source = "r p(X, Y) :- q(X), X > 1, Y := f_nope(X)."
        assert fire(source, 1) == []
        assert fire(source, 2, relation="other") == []
        with pytest.raises(EvaluationError, match=r"^unknown function symbol 'f_nope'$"):
            fire(source, 2)

    def test_builtin_rejecting_its_argument(self):
        source = "r p(X, P) :- q(X, Y), P := f_concat(X, Y)."
        assert fire(source, "a", ("b",))[0].head_values == ("a", ("a", "b"))
        with pytest.raises(EvaluationError, match=r"^f_concat expects a path, got 3$"):
            fire(source, "a", 3)

    def test_arithmetic_type_error_keeps_its_message(self):
        source = "r p(X, S) :- q(X, Y), S := X + Y."
        with pytest.raises(EvaluationError, match=r"^cannot apply '\+' to 'a' and 3$"):
            fire(source, "a", 3)

    def test_unbound_head_variable(self):
        # What lint="off" lets through: the planner accepts it, a firing trips it.
        source = "r p(X, Y)@Z :- q(X), s(X)."
        assert fire(source, 1) == []
        with pytest.raises(EvaluationError, match=r"^unbound variable Y$"):
            fire(source, 1, stored=[Fact("s", (1,))])

    def test_unbound_ship_to(self):
        source = "r p(X)@Z :- q(X)."
        with pytest.raises(EvaluationError, match=r"^unbound variable Z$"):
            fire(source, 1)

    def test_delta_position_guards(self):
        plan = compile_rule(parse_rule("r p(X) :- q(X), !s(X)."))
        database = database_of(())
        with pytest.raises(EvaluationError, match="delta index 2 out of range"):
            evaluate_plan_with_delta(plan, database, Fact("q", (1,)), 2)
        with pytest.raises(EvaluationError, match="negated atom as the delta"):
            evaluate_plan_with_delta(plan, database, Fact("s", (1,)), 1)


# -- seeing what was generated -----------------------------------------------------


def test_plans_expose_source_and_the_bare_planner_result_does_not():
    plan = compile_rule(parse_rule("r h(X, Y) :- p(X, Z), q(Z, Y), !s(Y)."))
    assert sorted(plan.delta_plans) == [0, 1]
    for delta_index, delta_plan in plan.delta_plans.items():
        assert delta_plan.source.startswith("def fire(database, delta, collect):\n")
        assert delta_plan.fire.__code__.co_name == "fire"
        assert delta_plan is plan.delta_plan(delta_index)
    bare = build_delta_plan(plan.body_atoms, plan.expressions, 0)
    assert bare.source is None and bare.fire is None
    assert bare == plan.delta_plan(0)  # the generated members stay out of equality


def test_file_names_are_unique_and_registered_with_linecache():
    compiled = compile_best_path()
    other = compile_rule(parse_rule("p1 path(@S, D, C) :- link(@S, D, C)."))
    functions = [
        delta_plan
        for plan in compiled.plans + (other,)
        for _index, delta_plan in sorted(plan.delta_plans.items())
    ]
    names = [delta_plan.fire.__code__.co_filename for delta_plan in functions]
    assert len(set(names)) == len(names) == 8
    assert names[0].startswith("<ndlog p1 delta 0 ")
    assert names[-1].startswith("<ndlog p1 delta 0 ") and names[-1] != names[0]
    for name, delta_plan in zip(names, functions):
        assert "".join(linecache.getlines(name)) == delta_plan.source
    # Generation is deterministic: same program, same text, same file name.
    again = [
        plan.delta_plan(index).fire.__code__.co_filename
        for plan in compile_best_path().plans
        for index in sorted(plan.delta_plans)
    ]
    assert again == names[:7]


def test_a_traceback_out_of_a_builtin_shows_the_generated_line():
    source = "r p(X, P) :- q(X, Y), P := f_concat(X, Y)."
    try:
        fire(source, "a", 3)
    except EvaluationError:
        rendered = traceback.format_exc()
    assert re.search(r'File "<ndlog r delta 0 [0-9a-f]{8}>", line \d+, in fire', rendered)
    assert re.search(r"\n\s+v2 = K\d+\(v0, v1\)\n", rendered)


def render_best_path():
    """The seven Best-Path functions, each under a legend of its globals."""

    def show(value):
        if isinstance(value, RulePlan):
            return f"<plan {value.label}>"
        if value is RuleFiring:
            return "RuleFiring"
        return getattr(value, "__qualname__", None) or repr(value)

    chunks = []
    for plan in compile_best_path().plans:
        for delta_index, delta_plan in sorted(plan.delta_plans.items()):
            legend = [
                f"#   {name} = {show(value)}"
                for name, value in delta_plan.fire.__globals__.items()
                if re.fullmatch(r"K\d+", name)
            ]
            header = f"# {plan.label}/{delta_index}: {plan.rule}"
            chunks.append("\n".join([header, *legend, delta_plan.source]))
    return "\n".join(chunks)


def test_a_join_over_a_table_nobody_bound_creates_it_and_finds_nothing():
    # Outside an engine nothing binds the probed tables first: the generated
    # subscript misses and falls back to Database.table, as it always did.
    plan = compile_rule(parse_rule("r h(X, Z) :- p(X, Y), q(Y, Z), !s(Z)."))
    database = Database(Catalog())
    delta = Fact("p", (1, 2))
    assert evaluate_plan_with_delta(plan, database, delta, 0) == []
    assert database.relations() == ("q",)
    database.insert(Fact("q", (2, 3)))
    (firing,) = evaluate_plan_with_delta(plan, database, delta, 0)
    assert firing.head_values == (1, 3)
    assert database.relations() == ("q", "s")


def test_best_path_functions_match_the_golden_file():
    """A generator change shows up as a reviewable diff of this file.

    Regenerate with ``REPRO_UPDATE_GOLDEN=1 pytest tests/test_rule_compiler.py``.
    """
    rendered = render_best_path()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(rendered, encoding="utf-8")
    expected = GOLDEN.read_text(encoding="utf-8")
    assert rendered == expected, "".join(
        difflib.unified_diff(
            expected.splitlines(True), rendered.splitlines(True), "golden", "generated"
        )
    )


# -- what does not travel ------------------------------------------------------------


def test_a_pickled_kernel_carries_no_generated_function():
    network = Network.build(topology=6, program="best-path", provenance="ndlog", seed=3)
    network.run()
    kernel = network.simulator
    blob = pickle.dumps(kernel)
    assert b"ndlog p" not in blob and b"fire" not in blob
    restored = pickle.loads(blob)
    assert restored.compiled is None
    restored.attach_program(compile_best_path())
    engine = next(iter(restored.engines.values()))
    assert engine.compiled.plans[0].delta_plan(0).fire is not None
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        pickle.dumps(kernel.compiled.plans[0].delta_plan(0).fire)


# -- the work budget -------------------------------------------------------------------

#: Best-Path, 12 nodes, seed 3, serial, provenance off.  The first four are
#: work the compiler must neither skip nor repeat (re-measured when the
#: engine began to find each firing once); the last is what the compiler is
#: for: Python-level calls (``sys.setprofile`` "call" events) in ``run()``,
#: measured at the commit before the rule compiler (the closure interpreter).
DELTA_EVALS = 1394
TABLE_LOOKUPS = 854
TABLE_INSERTS = 890
RULE_FIRINGS = 1152
INTERPRETED_CALLS = 80851

SEVEN = ["p1/0", "p2a/0", "p2b/0", "p2b/1", "p3/0", "p4/0", "p4/1"]


def count_generator_runs(monkeypatch):
    generated = []
    generate = planner_module.generate_fire

    def counted(plan, delta_plan):
        generated.append(f"{plan.label}/{delta_plan.delta_index}")
        return generate(plan, delta_plan)

    monkeypatch.setattr(planner_module, "generate_fire", counted)
    return generated


def best_path_network(nodes=12):
    return Network.build(topology=nodes, program="best-path", provenance="ndlog", seed=3)


def test_best_path_does_exactly_the_parents_work(monkeypatch):
    generated = count_generator_runs(monkeypatch)
    network = best_path_network()
    assert generated == SEVEN

    counts = {
        "evals": 0, "firings": 0, "reported": 0, "lookups": 0, "inserts": 0,
        "tables resolved by a join": 0,
    }
    evaluate = node_engine_module.evaluate_plan_with_delta
    lookup, insert, cpu_seconds = Table.lookup, Table.insert, CostModel.cpu_seconds
    table = Database.table

    def counted_table(self, relation, arity=None):
        # The engine binds every probed table before the first join, so the
        # generated functions subscript ``database.by_name`` and never get
        # as far as this call.
        caller = sys._getframe(1).f_code.co_filename
        counts["tables resolved by a join"] += caller.startswith("<ndlog ")
        return table(self, relation, arity=arity)

    def counted_evaluate(*args, **kwargs):
        firings = evaluate(*args, **kwargs)
        counts["evals"] += 1
        counts["firings"] += len(firings)
        return firings

    def counted_lookup(self, columns, values):
        counts["lookups"] += 1
        return lookup(self, columns, values)

    def counted_insert(self, fact, now=None):
        counts["inserts"] += 1
        return insert(self, fact, now=now)

    def counted_cost(self, report):
        # The kernel prices every processing report once: what _drain
        # bumped per evaluation must add up to the firings returned.
        counts["reported"] += report.rule_firings
        return cpu_seconds(self, report)

    monkeypatch.setattr(node_engine_module, "evaluate_plan_with_delta", counted_evaluate)
    monkeypatch.setattr(Table, "lookup", counted_lookup)
    monkeypatch.setattr(Table, "insert", counted_insert)
    monkeypatch.setattr(CostModel, "cpu_seconds", counted_cost)
    monkeypatch.setattr(Database, "table", counted_table)
    result = network.run()
    assert result.converged
    assert counts == {
        "evals": DELTA_EVALS,
        "firings": RULE_FIRINGS,
        "reported": RULE_FIRINGS,
        "lookups": TABLE_LOOKUPS,
        "inserts": TABLE_INSERTS,
        "tables resolved by a join": 0,
    }

    # Nothing is generated while running, first run or second.
    network.run()
    assert generated == SEVEN


@pytest.mark.parametrize("nodes", (4, 20))
def test_seven_functions_whatever_the_node_count(monkeypatch, nodes):
    generated = count_generator_runs(monkeypatch)
    best_path_network(nodes).run()
    assert generated == SEVEN


def test_python_level_calls_stay_under_three_quarters_of_the_interpreters():
    network = best_path_network()
    calls = 0

    def census(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(census)
    try:
        network.run()
    finally:
        sys.setprofile(previous)
    assert calls <= 0.75 * INTERPRETED_CALLS, calls
