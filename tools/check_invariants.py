#!/usr/bin/env python
"""Determinism-invariant checker for the repro runtime.

ROADMAP.md pins the properties that make simulation runs reproducible and
the serial and sharded backends byte-identical; this tool enforces the
mechanically checkable ones over ``src/repro`` with Python's ``ast`` so a
regression fails ``make lint`` instead of surfacing as a flaky experiment.

Rules
-----
INV001  no wall-clock reads (``time.time``, ``time.monotonic``,
        ``datetime.now`` ...) inside the simulation hot path
        (``net/``, ``engine/``, ``service/``); simulated time is the only
        clock — the service plane's token buckets, cache TTLs and latency
        percentiles are all functions of it.
INV002  no unseeded randomness anywhere in ``src/repro``: module-level
        ``random.<fn>()`` calls and argument-less ``random.Random()``
        draw from process-global, seed-unknown state.
INV003  event ordering stays content-based: every event class with
        ``DELIVERY_PRIORITY`` must be ranked by an ``isinstance`` branch of
        ``event_rank``, and every ``SimulationEvent`` subclass must live in
        ``net/events.py`` where the rank function can see it.
INV004  no direct iteration over set displays / ``set(...)`` calls in
        ``net/`` or ``engine/`` unless wrapped in ``sorted(...)``; set
        order is hash-seed dependent and must never feed ``schedule()`` or
        outgoing-message construction.
INV006  no unbounded module-level caches in ``provenance/``, ``engine/``,
        ``service/`` or ``net/``: an empty mutable container assigned at
        module scope (``_CACHE = {}``, ``x = list()`` ...) and a module-level
        function under ``functools.cache`` / ``lru_cache(maxsize=None)`` are
        process-global state that grows for the life of the interpreter,
        defeating the storage-tier residency bounds (and, keyed by a
        ``FactKey``, conflating ``1`` / ``True`` / ``1.0``).  Put caches on
        instances (sized and crash-scoped), give ``lru_cache`` a bound, or
        audit the exception with the allow comment.
INV007  no dynamic code outside the rule compiler: a call to ``exec``,
        ``eval`` or ``compile`` (bare or through ``builtins``) anywhere in
        ``src/repro`` except ``datalog/codegen.py``.  That module builds its
        source text from a closed alphabet (no program or tuple string ever
        reaches it); a second ``exec`` site would need the same argument
        made, and tested, all over again.  (INV005 guarded the deprecated
        shims and retired with them; the number is not reused.)
INV008  one signing path: ``rsa.sign`` / ``rsa.verify`` are reached — imported
        by name, or called through the ``rsa`` module — only from
        ``security/authenticator.py`` (the tuple / anti-delta envelope),
        ``provenance/authenticated.py`` (graph signing for queries) and
        ``net/query.py`` (response signing).  A shipped tuple is signed once
        and verified once; a second per-tuple signing path regrowing in the
        engine would double the largest cost of the heaviest configuration
        and sign bytes the envelope does not bind.

A finding on a line ending with ``# invariant: ok(INVxxx)`` is suppressed —
the comment is the audit trail for deliberate exceptions.

Usage: ``python tools/check_invariants.py [--root src/repro] [--list]``
Exit status: 0 clean, 1 findings, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

RULES: Dict[str, str] = {
    "INV001": "wall-clock read in the simulation hot path",
    "INV002": "unseeded randomness",
    "INV003": "event class escapes the content-based rank",
    "INV004": "iteration over unordered set in the hot path",
    "INV006": "unbounded module-level cache in provenance/engine/service/net",
    "INV007": "exec/eval/compile outside the rule compiler",
    "INV008": "rsa.sign/rsa.verify reached outside the three signing modules",
}

#: Directories whose code runs inside the simulation loop.  The service
#: plane (``service/``) is hot path: admission buckets refill and cache
#: entries expire on the simulated clock, inside event handlers.
HOT_PATH_PARTS = ("net", "engine", "service")

#: Directories where module-level mutable caches defeat the storage tiers.
#: ``service/`` is here too — the query-result cache is the very thing the
#: capacity/TTL knobs bound, so a module-global memo would defeat it — and
#: ``net/``, whose query-plane memos belong to the message, kernel or cached
#: closure that owns the memoized key.
BOUNDED_STATE_PARTS = ("provenance", "engine", "service", "net")

#: Attribute calls that read the host clock.
WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Builtins that turn a string into running code, and the one module (the
#: NDlog rule compiler) that may call them.
DYNAMIC_CODE = ("exec", "eval", "compile")
CODE_GENERATOR = "datalog/codegen.py"

#: The RSA primitives and the modules that may reach them: the three signing
#: paths, the module that defines them and the package that re-exports them.
RSA_PRIMITIVES = ("sign", "verify")
RSA_CALLERS = (
    "security/authenticator.py",
    "provenance/authenticated.py",
    "net/query.py",
    "security/rsa.py",
    "security/__init__.py",
)

ALLOW_PATTERN = re.compile(r"#\s*invariant:\s*ok\((INV\d{3})\)")


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str
    line: int
    column: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule}: {self.message}"

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.column, self.rule)


def _attribute_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a plain chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _is_hot_path(relative: str) -> bool:
    head = relative.split("/", 1)[0]
    return head in HOT_PATH_PARTS


def _is_bounded_state_path(relative: str) -> bool:
    head = relative.split("/", 1)[0]
    return head in BOUNDED_STATE_PARTS


def _is_empty_mutable_container(value: ast.AST) -> Optional[str]:
    """Name of the container type when *value* builds an empty dict/list/set.

    Only empty containers are flagged: a non-empty display is a data table
    (fixed contents), while an empty one at module scope is almost always a
    cache waiting to grow without bound.
    """
    if isinstance(value, ast.Dict) and not value.keys:
        return "dict"
    if isinstance(value, ast.List) and not value.elts:
        return "list"
    if isinstance(value, ast.Set) and not value.elts:
        return "set"
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "list", "set")
        and not value.args
        and not value.keywords
    ):
        return value.func.id
    return None


def _is_unbounded_memo_decorator(decorator: ast.AST) -> bool:
    """True for ``@cache`` and ``@lru_cache(maxsize=None)``.

    Matches the name however it was imported (``functools.cache`` or
    ``cache``).  Bare ``@lru_cache`` keeps its default bound of 128 and a
    literal or computed ``maxsize`` is a bound, so only an explicit
    ``None`` — positional or keyword — is flagged.
    """
    call = decorator if isinstance(decorator, ast.Call) else None
    chain = _attribute_chain(call.func if call else decorator)
    if not chain or chain[:-1] not in ([], ["functools"]):
        return False
    if chain[-1] == "cache":
        return True
    if chain[-1] != "lru_cache" or call is None:
        return False
    bounds = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(b, ast.Constant) and b.value is None for b in bounds)


class FileChecker(ast.NodeVisitor):
    """Per-file visitor emitting INV001 / INV002 / INV004 / INV006 – INV008."""

    def __init__(self, relative: str, allowed: Dict[int, Set[str]]) -> None:
        self.relative = relative
        self.allowed = allowed
        self.findings: List[Finding] = []
        self.hot = _is_hot_path(relative)
        self.bounded = _is_bounded_state_path(relative)
        self.generator = relative == CODE_GENERATOR
        self.signs = relative in RSA_CALLERS

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if rule in self.allowed.get(line, set()):
            return
        self.findings.append(
            Finding(
                rule=rule,
                path=self.relative,
                line=line,
                column=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    # -- INV006 --------------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        if self.bounded:
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for decorator in statement.decorator_list:
                        if _is_unbounded_memo_decorator(decorator):
                            self._emit(
                                "INV006",
                                decorator,
                                f"{statement.name}() memoizes without a bound "
                                "at module scope; give lru_cache a maxsize or "
                                "hold the memo on the object that owns the key",
                            )
                    continue
                if isinstance(statement, ast.Assign):
                    value = statement.value
                elif isinstance(statement, ast.AnnAssign) and statement.value:
                    value = statement.value
                else:
                    continue
                container = _is_empty_mutable_container(value)
                if container is not None:
                    self._emit(
                        "INV006",
                        statement,
                        f"module-level empty {container} is an unbounded "
                        "process-global cache; hold it on an instance so the "
                        "tier capacity knobs (and crash recovery) bound it",
                    )
        self.generic_visit(node)

    # -- INV008 --------------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")
        if not self.signs and module[-1] in ("rsa", "security"):
            for alias in node.names:
                if alias.name in RSA_PRIMITIVES:
                    self._emit(
                        "INV008",
                        node,
                        f"imports rsa.{alias.name}; tuples are sealed and "
                        "opened through security/authenticator.py only",
                    )
        self.generic_visit(node)

    # -- INV001 / INV002 / INV007 / INV008 ---------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if chain:
            head, tail = chain[0], chain[-1]
            if (
                tail in RSA_PRIMITIVES
                and chain[-2:-1] == ["rsa"]
                and not self.signs
            ):
                self._emit(
                    "INV008",
                    node,
                    f"{'.'.join(chain)}() signs or verifies outside the "
                    "envelope; go through security/authenticator.py",
                )
            if (
                tail in DYNAMIC_CODE
                and chain[:-1] in ([], ["builtins"])
                and not self.generator
            ):
                self._emit(
                    "INV007",
                    node,
                    f"{'.'.join(chain)}() runs generated code; only "
                    f"{CODE_GENERATOR} may, from its closed alphabet",
                )
            if self.hot and len(chain) >= 2:
                for module, attr in WALL_CLOCK:
                    if tail == attr and module in chain[:-1]:
                        self._emit(
                            "INV001",
                            node,
                            f"{'.'.join(chain)}() reads the host clock; use "
                            "simulated time (the kernel's clock) instead",
                        )
                        break
            if head == "random" and len(chain) == 2:
                if tail == "Random":
                    if not node.args and not node.keywords:
                        self._emit(
                            "INV002",
                            node,
                            "random.Random() without a seed; pass an explicit "
                            "seed so runs are reproducible",
                        )
                elif tail not in ("seed",):
                    self._emit(
                        "INV002",
                        node,
                        f"random.{tail}() draws from the process-global RNG; "
                        "use a seeded random.Random instance",
                    )
        self.generic_visit(node)

    # -- INV004 --------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self.hot:
            self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if self.hot:
            self._check_iterable(node.iter)
        self.generic_visit(node)

    def _check_iterable(self, iterable: ast.AST) -> None:
        unordered: Optional[str] = None
        if isinstance(iterable, ast.Set) or isinstance(iterable, ast.SetComp):
            unordered = "a set display"
        elif (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        ):
            unordered = f"{iterable.func.id}(...)"
        elif isinstance(iterable, ast.BinOp) and isinstance(
            iterable.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            # Set algebra (a | b, a & b, a - b) over sets is the common way
            # an unordered iterable sneaks into the loop header.
            if any(
                isinstance(side, (ast.Set, ast.SetComp))
                or (
                    isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Name)
                    and side.func.id in ("set", "frozenset")
                )
                for side in (iterable.left, iterable.right)
            ):
                unordered = "set algebra"
        if unordered is not None:
            self._emit(
                "INV004",
                iterable,
                f"iterating {unordered} directly; wrap it in sorted(...) so "
                "the order cannot depend on the hash seed",
            )


def _event_findings(root: Path, rel_prefix: str) -> Iterator[Finding]:
    """INV003: rank coverage inside net/events.py and subclass containment."""
    events_path = root / "net" / "events.py"
    ranked: Set[str] = set()
    delivery_classes: Set[str] = set()
    event_classes: Set[str] = {"SimulationEvent"}

    if events_path.exists():
        tree = ast.parse(events_path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if bases & event_classes:
                    event_classes.add(node.name)
                    for statement in node.body:
                        if (
                            isinstance(statement, ast.Assign)
                            and any(
                                isinstance(t, ast.Name) and t.id == "priority"
                                for t in statement.targets
                            )
                            and isinstance(statement.value, ast.Name)
                            and statement.value.id == "DELIVERY_PRIORITY"
                        ):
                            delivery_classes.add(node.name)
            if isinstance(node, ast.FunctionDef) and node.name == "event_rank":
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "isinstance"
                        and len(call.args) == 2
                    ):
                        target = call.args[1]
                        names = (
                            target.elts if isinstance(target, ast.Tuple) else [target]
                        )
                        ranked.update(
                            n.id for n in names if isinstance(n, ast.Name)
                        )
        for name in sorted(delivery_classes - ranked):
            yield Finding(
                rule="INV003",
                path=f"{rel_prefix}net/events.py",
                line=1,
                column=1,
                message=(
                    f"event class {name} has DELIVERY_PRIORITY but no "
                    "isinstance branch in event_rank; its deliveries would "
                    "fall back to scheduling order, which is backend-dependent"
                ),
            )

    # SimulationEvent subclasses defined anywhere else escape the rank.
    for path in sorted(root.rglob("*.py")):
        if path == events_path:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in event_classes
                for base in node.bases
            ):
                yield Finding(
                    rule="INV003",
                    path=f"{rel_prefix}{path.relative_to(root).as_posix()}",
                    line=node.lineno,
                    column=node.col_offset + 1,
                    message=(
                        f"SimulationEvent subclass {node.name} defined outside "
                        "net/events.py; define it there so event_rank covers it"
                    ),
                )


def _allowed_lines(source: str) -> Dict[int, Set[str]]:
    allowed: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        for match in ALLOW_PATTERN.finditer(line):
            allowed.setdefault(number, set()).add(match.group(1))
    return allowed


def check_tree(root: Path, rel_prefix: str = "") -> List[Finding]:
    """All findings over the package tree rooted at *root*."""
    findings: List[Finding] = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        relative = path.relative_to(root).as_posix()
        checker = FileChecker(relative, _allowed_lines(source))
        checker.relative = f"{rel_prefix}{relative}"
        checker.visit(ast.parse(source, filename=str(path)))
        findings.extend(checker.findings)
    findings.extend(_event_findings(root, rel_prefix))
    return sorted(findings, key=Finding.sort_key)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/check_invariants.py",
        description="Enforce the ROADMAP determinism invariants over src/repro.",
    )
    parser.add_argument(
        "--root",
        default="src/repro",
        help="package directory to check (default: src/repro)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the rule table and exit"
    )
    options = parser.parse_args(argv)

    if options.list:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return 0

    root = Path(options.root)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    try:
        findings = check_tree(root, rel_prefix=f"{root.as_posix()}/")
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} invariant violation(s)")
        return 1
    print("invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
