"""Unit tests for the bound-aware join-ordering optimizer."""

from __future__ import annotations

import pytest

from repro.datalog import localize_program, parse_program
from repro.datalog.ast import Assignment, Atom, Comparison, Constant, Variable
from repro.datalog.errors import PlanError
from repro.datalog.planner import (
    BodyAtomPlan,
    build_delta_plan,
    compile_program,
    compile_rule,
)


def atom(name, *terms):
    rendered = []
    for term in terms:
        if isinstance(term, str) and term[0].isupper():
            rendered.append(Variable(name=term))
        elif isinstance(term, str):
            rendered.append(Constant(value=term))
        else:
            rendered.append(term)
    return Atom(name=name, terms=tuple(rendered))


def plans(*atoms):
    return tuple(BodyAtomPlan(atom=a) for a in atoms)


class TestJoinOrdering:
    def test_most_bound_atom_joins_first(self):
        # Delta a(X, Y) binds X and Y; b(Y, Z) has one bound column while
        # c(Z, W) has none, so b must be joined before c even though the
        # textual order is c-then-b.
        body = plans(atom("a", "X", "Y"), atom("c", "Z", "W"), atom("b", "Y", "Z"))
        plan = build_delta_plan(body, (), 0)
        assert [step.atom_plan.atom.name for step in plan.steps] == ["b", "c"]

    def test_constants_count_as_bound(self):
        # s carries a constant column: it is more bound than r even though
        # neither shares a variable with the delta.
        body = plans(atom("a", "X"), atom("r", "Y", "Z"), atom("s", "W", "k"))
        plan = build_delta_plan(body, (), 0)
        assert [step.atom_plan.atom.name for step in plan.steps] == ["s", "r"]

    def test_ties_break_by_body_order(self):
        body = plans(atom("a", "X"), atom("p", "X", "Y"), atom("q", "X", "Z"))
        plan = build_delta_plan(body, (), 0)
        assert [step.atom_plan.atom.name for step in plan.steps] == ["p", "q"]

    def test_chain_ordering_follows_newly_bound_variables(self):
        # Triggering on the middle of a chain must zip outwards: each next
        # atom shares a variable with what is already bound.
        body = plans(
            atom("e1", "A", "B"),
            atom("e2", "B", "C"),
            atom("e3", "C", "D"),
            atom("e4", "D", "E"),
        )
        plan = build_delta_plan(body, (), 2)  # delta binds C and D
        # e2 and e4 each have one bound column (tie -> body order picks e2);
        # once e2 binds B, e1 and e4 tie again and body order picks e1.
        assert [step.atom_plan.atom.name for step in plan.steps] == ["e2", "e1", "e4"]
        # Every step's probe uses the variable bound by the time it runs.
        assert [step.probe.columns for step in plan.steps] == [(1,), (1,), (0,)]

    def test_probe_spec_bound_columns(self):
        body = plans(atom("a", "X", "Y"), atom("b", "Y", "k", "Z"))
        plan = build_delta_plan(body, (), 0)
        (step,) = plan.steps
        # Column 0 bound via Y, column 1 bound via the constant "k".
        assert step.probe.columns == (0, 1)
        assert isinstance(step.probe.terms[0], Variable)
        assert isinstance(step.probe.terms[1], Constant)

    def test_probe_spec_includes_assignment_bound_variables(self):
        # W := f of delta-bound variables is computable before b is probed,
        # so b's W column participates in the probe.
        assignment = Assignment(target=Variable(name="W"), expression=Variable(name="X"))
        body = plans(atom("a", "X"), atom("b", "W", "Z"))
        plan = build_delta_plan(body, (assignment,), 0)
        (step,) = plan.steps
        assert step.probe.columns == (0,)

    def test_negated_atoms_are_not_join_steps(self):
        negated = BodyAtomPlan(atom=Atom(name="blocked", terms=(Variable(name="X"),), negated=True))
        body = (BodyAtomPlan(atom=atom("a", "X")), negated)
        plan = build_delta_plan(body, (), 0)
        assert plan.steps == ()
        assert len(plan.negated) == 1
        assert plan.negated[0].probe.columns == (0,)

    def test_delta_index_validation(self):
        body = plans(atom("a", "X"))
        with pytest.raises(PlanError):
            build_delta_plan(body, (), 5)
        negated = BodyAtomPlan(atom=Atom(name="b", terms=(Variable(name="X"),), negated=True))
        with pytest.raises(PlanError):
            build_delta_plan((negated,), (), 0)


class TestExpressionSchedule:
    def test_batches_fire_as_soon_as_bound(self):
        # X != Y is ready right after the delta; Z-dependent literals only
        # after b is joined.
        compare_xy = Comparison(left=Variable(name="X"), operator="!=", right=Variable(name="Y"))
        assign = Assignment(target=Variable(name="S"), expression=Variable(name="Z"))
        body = plans(atom("a", "X", "Y"), atom("b", "Y", "Z"))
        plan = build_delta_plan(body, (compare_xy, assign), 0)
        assert plan.expression_batches[0] == (compare_xy,)
        assert plan.expression_batches[1] == (assign,)
        assert plan.safe

    def test_cascading_assignments_schedule_in_dependency_order(self):
        first = Assignment(target=Variable(name="U"), expression=Variable(name="X"))
        second = Assignment(target=Variable(name="V"), expression=Variable(name="U"))
        body = plans(atom("a", "X"))
        plan = build_delta_plan(body, (second, first), 0)
        assert plan.expression_batches[0] == (first, second)
        assert plan.safe

    def test_unsatisfiable_expression_marks_plan_unsafe(self):
        dangling = Comparison(left=Variable(name="Q"), operator="<", right=Constant(value=1))
        body = plans(atom("a", "X"))
        plan = build_delta_plan(body, (dangling,), 0)
        assert not plan.safe


class TestCompiledPrograms:
    def test_compile_rule_precomputes_delta_plans(self):
        program = localize_program(
            parse_program(
                """
                r1 out(@S, D, C) :- left(@S, D, C1), right(@S, D, C2), C := C1 + C2.
                """
            )
        )
        plan = compile_rule(program.rules[0])
        assert set(plan.delta_plans) == {0, 1}
        for delta_index, delta_plan in plan.delta_plans.items():
            assert delta_plan.delta_index == delta_index
            assert delta_plan.safe
            (step,) = delta_plan.steps
            # Both S and D of the other atom are bound by the delta.
            assert step.probe.columns == (0, 1)

    def test_index_specs_cover_triggered_probes(self):
        program = localize_program(
            parse_program(
                """
                r1 out(@S, D) :- a(@S, D), b(@S, D).
                """
            )
        )
        compiled = compile_program(program)
        probes = compiled.strand("a").probes
        assert probes == (("b", 2, ((0, 1),)),)
        # Built once, by compile_program: the same record on every read.
        assert compiled.strand("a") is compiled.strand("a")

    def test_trigger_pairs_cached(self):
        program = localize_program(
            parse_program("r1 out(@S, D) :- a(@S, D), b(@S, D).")
        )
        compiled = compile_program(program)
        pairs = compiled.strand("a").pairs
        assert [(plan.label, index) for plan, index in pairs] == [("r1", 0)]
        assert compiled.strand("a").pairs is pairs
        assert compiled.strand("unknown").pairs == ()
        assert compiled.strand("unknown").probes == ()

    def test_strand_flattens_self_joins_and_merges_probe_indexes(self):
        program = localize_program(
            parse_program(
                """
                r1 out(@S, D) :- a(@S, D), a(@S, E), b(@S, D), D != E.
                r2 out(@S, D) :- a(@S, D), b(@S, F), !c(@S, D), F != D.
                """
            )
        )
        strand = compile_program(program).strand("a")
        assert [(plan.label, index) for plan, index in strand.pairs] == [
            ("r1", 0), ("r1", 1), ("r2", 0),
        ]
        # One entry per probed table (the expiry set, negated atoms
        # included), each with every distinct index the joins read it by.
        assert {name: columns for name, _, columns in strand.probes} == {
            "a": ((0,),),
            "b": ((0, 1), (0,)),
            "c": ((0, 1),),
        }
