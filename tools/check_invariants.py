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
        ``net/events.py`` where the rank function can see it.  An event
        scheduled inside kernel processing — ``<...>.scheduler.schedule(...)``
        without a ``stamp=`` — must have its own ``isinstance`` branch too,
        or it silently ties with every other unstamped event at rank
        ``(0, 0)`` and fires in backend-dependent scheduling order.  The
        scheduled class is read from the argument: a constructor call, a
        local name bound to one, or a call to a function that returns one;
        anything else is flagged as unresolved.
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
        ``security/authenticator.py`` (the tuple / anti-delta envelope) and
        ``net/query.py`` (response signing).  A shipped tuple is signed once
        and verified once; a second per-tuple signing path regrowing in the
        engine would double the largest cost of the heaviest configuration
        and sign bytes the envelope does not bind.
INV009  no hidden files: ``import tempfile`` / ``from tempfile import ...``
        anywhere in ``src/repro``.  A run writes files only under a
        directory its caller named (``spill_dir``); a temporary-directory
        default leaks files nobody asked for and nobody removes.
INV010  one formation site: ``MessageBatch(...)``, the data wire message, is
        constructed only in ``net/kernel.py``'s ``_dispatch_outgoing``, which
        forms and seals every outgoing one (a frame that carries one across
        shards rebuilds it without calling the constructor).  Under signed
        ``says`` a data message formed anywhere else would skip both the
        Merkle seal and its ``_count_seals`` charge.
INV011  one way to cancel an event: nothing assigns ``.cancelled`` outside
        ``EventScheduler.cancel`` in ``net/events.py``.  The scheduler counts
        the cancelled entries still in its heap — ``len`` and its rebuilds
        depend on the count — so an event cancelled behind its back would
        leave the count short.

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
    "INV008": "rsa.sign/rsa.verify reached outside the two signing modules",
    "INV009": "tempfile imported: files only under a caller-named directory",
    "INV010": "data wire message formed outside the kernel's dispatch",
    "INV011": "event cancelled outside EventScheduler.cancel",
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

#: The RSA primitives and the modules that may reach them: the two signing
#: paths, the module that defines them and the package that re-exports them.
RSA_PRIMITIVES = ("sign", "verify")
RSA_CALLERS = (
    "security/authenticator.py",
    "net/query.py",
    "security/rsa.py",
    "security/__init__.py",
)

#: The data wire message and the functions that may construct it.
DATA_MESSAGE = "MessageBatch"
DATA_MESSAGE_SITES = (("net/kernel.py", "_dispatch_outgoing"),)

#: The event flag only the scheduler may set, and where: (file, class, method).
CANCEL_FLAG = "cancelled"
CANCEL_SITES = (("net/events.py", "EventScheduler", "cancel"),)

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
    """Per-file visitor emitting INV001 / INV002 / INV004 / INV006 – INV011."""

    def __init__(self, relative: str, allowed: Dict[int, Set[str]]) -> None:
        self.relative = relative
        self.allowed = allowed
        self.findings: List[Finding] = []
        self.hot = _is_hot_path(relative)
        self.bounded = _is_bounded_state_path(relative)
        self.generator = relative == CODE_GENERATOR
        self.signs = relative in RSA_CALLERS
        self.formers = {name for path, name in DATA_MESSAGE_SITES if path == relative}
        self.functions: List[str] = []
        self.classes: List[str] = []
        #: The scopes that may set the cancel flag here: (class, method).
        self.cancellers = {
            (owner, method) for path, owner, method in CANCEL_SITES if path == relative
        }

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

    # -- INV008 / INV009 -------------------------------------------------------

    def _check_tempfile(self, node: ast.AST, module: str) -> None:
        if module.split(".")[0] == "tempfile":
            self._emit(
                "INV009",
                node,
                "imports tempfile; write files only under a directory the "
                "caller named (spill_dir), or keep the data in memory",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_tempfile(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level:
            self._check_tempfile(node, node.module or "")
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

    # -- INV010 / INV011 ----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    # -- INV011 -----------------------------------------------------------------

    def _check_cancel_flag(self, targets: Sequence[ast.AST]) -> None:
        if self.classes and self.functions:
            if (self.classes[-1], self.functions[-1]) in self.cancellers:
                return
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Attribute) and node.attr == CANCEL_FLAG:
                    self._emit(
                        "INV011",
                        node,
                        f"assigns .{CANCEL_FLAG}; cancel an event through "
                        "EventScheduler.cancel, which counts it",
                    )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_cancel_flag(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_cancel_flag([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_cancel_flag([node.target])
        self.generic_visit(node)

    # -- INV001 / INV002 / INV007 / INV008 / INV010 --------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if chain:
            head, tail = chain[0], chain[-1]
            if tail == DATA_MESSAGE and not self.formers.intersection(self.functions):
                self._emit(
                    "INV010",
                    node,
                    f"{'.'.join(chain)}() forms a data wire message; only the "
                    "kernel's _dispatch_outgoing (which seals it) and the frame "
                    "decoder may",
                )
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


def _call_name(node: ast.AST) -> Optional[str]:
    """The last name of a call's callee (``a.b.C(...)`` -> ``"C"``)."""
    if isinstance(node, ast.Call):
        chain = _attribute_chain(node.func)
        if chain:
            return chain[-1]
    return None


def _returned_events(trees: Sequence[ast.AST], event_classes: Set[str]) -> Dict[str, Set[str]]:
    """Function name -> the event classes its ``return`` statements construct."""
    returned: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for statement in ast.walk(node):
                    if isinstance(statement, ast.Return):
                        name = _call_name(statement.value)
                        if name in event_classes:
                            returned.setdefault(node.name, set()).add(name)
    return returned


def _scheduled_events(
    function: ast.AST,
    call: ast.Call,
    event_classes: Set[str],
    returned: Dict[str, Set[str]],
) -> Set[str]:
    """The event classes *call* (a ``scheduler.schedule``) may schedule; empty
    when its argument cannot be resolved."""
    argument = call.args[0]
    if isinstance(argument, ast.Name):
        # A local bound to a constructor call in the enclosing function.
        bound: Set[str] = set()
        for statement in ast.walk(function):
            if isinstance(statement, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == argument.id
                for target in statement.targets
            ):
                name = _call_name(statement.value)
                if name in event_classes:
                    bound.add(name)
        return bound
    name = _call_name(argument)
    if name in event_classes:
        return {name}
    return set(returned.get(name, ()))


def _unstamped_findings(
    root: Path, rel_prefix: str, ranked: Set[str], event_classes: Set[str]
) -> Iterator[Finding]:
    """INV003: an event scheduled without a stamp must have a rank branch."""
    sources = [(path, path.read_text(encoding="utf-8")) for path in sorted(root.rglob("*.py"))]
    trees = [ast.parse(source) for _, source in sources]
    returned = _returned_events(trees, event_classes)
    for (path, source), tree in zip(sources, trees):
        relative = f"{rel_prefix}{path.relative_to(root).as_posix()}"
        allowed = _allowed_lines(source)
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            for call in ast.walk(function):
                if not (
                    isinstance(call, ast.Call)
                    and _attribute_chain(call.func)[-2:] == ["scheduler", "schedule"]
                    and call.args
                    and not any(keyword.arg == "stamp" for keyword in call.keywords)
                ):
                    continue
                if "INV003" in allowed.get(call.lineno, set()):
                    continue
                scheduled = _scheduled_events(function, call, event_classes, returned)
                if not scheduled:
                    message = (
                        "cannot tell which event this unstamped schedule() "
                        "queues; pass a constructor call, a local bound to "
                        "one, or stamp="
                    )
                else:
                    unranked = sorted(scheduled - ranked)
                    if not unranked:
                        continue
                    message = (
                        f"{', '.join(unranked)} is scheduled inside kernel "
                        "processing without a stamp but has no isinstance "
                        "branch in event_rank; it would tie at rank (0, 0)"
                    )
                yield Finding(
                    rule="INV003",
                    path=relative,
                    line=call.lineno,
                    column=call.col_offset + 1,
                    message=message,
                )


def _event_findings(root: Path, rel_prefix: str) -> Iterator[Finding]:
    """INV003: rank coverage inside net/events.py, subclass containment and
    unstamped scheduling."""
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

    yield from _unstamped_findings(root, rel_prefix, ranked, event_classes)


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
