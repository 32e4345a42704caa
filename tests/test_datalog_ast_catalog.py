"""Tests for the AST helpers and the relation catalog."""

from __future__ import annotations

import pytest

from repro.datalog.ast import (
    Aggregate,
    Atom,
    Constant,
    FunctionCall,
    Variable,
    make_atom,
    term_variables,
)
from repro.datalog.catalog import Catalog, RelationSchema
from repro.datalog.errors import SchemaError
from repro.datalog.parser import parse_program, parse_rule
from repro.queries.best_path import BEST_PATH_NDLOG


class TestTerms:
    def test_term_variables_of_variable(self):
        assert list(term_variables(Variable("X"))) == [Variable("X")]

    def test_term_variables_of_constant(self):
        assert list(term_variables(Constant(3))) == []

    def test_term_variables_of_nested_function_call(self):
        call = FunctionCall("f_concat", (Variable("S"), FunctionCall("f_init", (Variable("D"),))))
        assert [v.name for v in term_variables(call)] == ["S", "D"]

    def test_term_variables_of_aggregate(self):
        assert list(term_variables(Aggregate("min", Variable("C")))) == [Variable("C")]

    def test_make_atom_classifies_terms(self):
        atom = make_atom("link", "S", "d", 3, location=0)
        assert atom.terms == (Variable("S"), Constant("d"), Constant(3))
        assert atom.location_index == 0

    def test_atom_str_rendering(self):
        atom = make_atom("link", "S", "D", location=0)
        assert str(atom) == "link(@S, D)"

    def test_atom_variables_include_ship_to(self):
        rule = parse_rule("s linkD(D, S)@D :- link(S, D).")
        assert Variable("D") in set(rule.head.variables())

    def test_rule_str_contains_label_and_arrow(self):
        rule = parse_rule("r2 reachable(@S, D) :- link(@S, Z), reachable(@Z, D).")
        rendered = str(rule)
        assert rendered.startswith("r2 ")
        assert ":-" in rendered and rendered.endswith(".")


class TestCatalog:
    def test_from_program_infers_arities(self):
        catalog = Catalog.from_program(parse_program(BEST_PATH_NDLOG))
        assert catalog.schema("link").arity == 3
        assert catalog.schema("path").arity == 4
        assert catalog.schema("bestPath").arity == 4

    def test_materialize_keys_are_zero_based(self):
        catalog = Catalog.from_program(parse_program(BEST_PATH_NDLOG))
        assert catalog.schema("bestPath").keys == (0, 1)

    def test_base_vs_derived_classification(self):
        catalog = Catalog.from_program(parse_program(BEST_PATH_NDLOG))
        assert catalog.schema("link").is_base
        assert not catalog.schema("bestPath").is_base
        base_names = {schema.name for schema in catalog.base_relations()}
        assert base_names == {"link"}

    def test_key_columns_default_to_all(self):
        schema = RelationSchema(name="t", arity=3)
        assert schema.key_columns == (0, 1, 2)

    def test_unknown_relation_raises(self):
        catalog = Catalog()
        with pytest.raises(SchemaError):
            catalog.schema("missing")

    def test_redeclare_with_different_arity_rejected(self):
        catalog = Catalog()
        catalog.declare(RelationSchema(name="t", arity=2))
        with pytest.raises(SchemaError):
            catalog.declare(RelationSchema(name="t", arity=3))

    def test_inconsistent_arity_in_program_rejected(self):
        program = parse_program("r1 p(X) :- q(X).\nr2 p(X, Y) :- q(X), q(Y).")
        with pytest.raises(SchemaError):
            Catalog.from_program(program)

    def test_key_out_of_range_rejected(self):
        program = parse_program(
            "materialize(link, infinity, infinity, keys(5)).\nr1 p(X) :- link(X, Y)."
        )
        with pytest.raises(SchemaError):
            Catalog.from_program(program)

    def test_len_and_contains(self):
        catalog = Catalog.from_program(parse_program(BEST_PATH_NDLOG))
        assert "link" in catalog
        assert "unknown" not in catalog
        assert len(catalog) == 4

    def test_lifetime_from_materialize(self):
        program = parse_program(
            "materialize(routeEvent, 30, infinity, keys(1,2)).\n"
            "m1 flapCount(@S, D, count<E>) :- routeEvent(@S, D, E)."
        )
        catalog = Catalog.from_program(program)
        assert catalog.schema("routeEvent").lifetime == 30.0
        assert catalog.schema("flapCount").lifetime is None
