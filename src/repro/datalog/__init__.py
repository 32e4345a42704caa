"""NDlog / SeNDlog language front end.

This subpackage implements the declarative-networking query language used by
the paper: Network Datalog (NDlog) with location specifiers, and its security
extension SeNDlog with Binder-style principals and the ``says`` operator.

Typical usage::

    from repro.datalog import parse_program

    program = parse_program('''
        r1 reachable(@S, D) :- link(@S, D).
        r2 reachable(@S, D) :- link(@S, Z), reachable(@Z, D).
    ''')
"""

from repro.datalog.ast import (
    Aggregate,
    Atom,
    Constant,
    Expression,
    FunctionCall,
    Program,
    Rule,
    SaysAtom,
    Span,
    Term,
    Variable,
    span_of,
)
from repro.datalog.diagnostics import Diagnostic, LintWarning, Severity
from repro.datalog.errors import (
    DatalogError,
    LintError,
    LocatedError,
    ParseError,
    PlanError,
    RewriteError,
    SafetyError,
    SchemaError,
)
from repro.datalog.lint import check_program, lint_program, lint_source
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.catalog import Catalog, RelationSchema
from repro.datalog.rewrite import localize_program
from repro.datalog.analysis import DependencyGraph, stratify
from repro.datalog.planner import RulePlan, compile_program

__all__ = [
    "Aggregate",
    "Atom",
    "Catalog",
    "Constant",
    "DatalogError",
    "DependencyGraph",
    "Diagnostic",
    "Expression",
    "FunctionCall",
    "LintError",
    "LintWarning",
    "LocatedError",
    "ParseError",
    "PlanError",
    "Program",
    "RelationSchema",
    "RewriteError",
    "Rule",
    "RulePlan",
    "SafetyError",
    "SaysAtom",
    "SchemaError",
    "Severity",
    "Span",
    "Term",
    "Variable",
    "check_program",
    "compile_program",
    "lint_program",
    "lint_source",
    "localize_program",
    "parse_program",
    "parse_rule",
    "span_of",
    "stratify",
]
