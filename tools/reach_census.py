#!/usr/bin/env python3
"""Census of the code under ``src/repro`` that no run reaches.

Runs every shipped entry point in this process under a ``sys.setprofile``
hook that records each Python code object entered, then walks the source of
every module under ``src/repro`` and reports each function (method, nested
``def``) that was never entered, with its *body lines*: the lines from the
first statement of its body (the docstring, if any) to its last line, less
those of nested functions and classes (a nested function counts its own).

The entry points are the program's own runs, nothing under ``tests/`` or
``benchmarks/``: every ``examples/*.py``, ``experiments all --sizes 10,20``,
``scenarios all --nodes 8`` (serial, and inline-sharded at three shards),
the query-plane scenario leg of ``make ci``, the program
linter's CLI over the built-in programs, and the five ``bench/workloads.py``
workloads at their smoke size (plus the front-end timing the traced
benchmark run adds).  Worker processes are not profiled: what only a shard
worker runs counts as unreached.

The unreached body-line total is a ratchet: the tool exits 1 when it exceeds
:data:`CEILING`.  A change that deletes unreached code, or moves a test-only
reference into ``tests/``, lowers :data:`CEILING` to the new total; nothing
raises it.

    python tools/reach_census.py
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, TextIO, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: Unreached body lines under ``src/repro``.  Only ever lowered.
CEILING = 925


@dataclass(frozen=True)
class Function:
    """One ``def`` under the census root."""

    module: str  # path relative to the root, with ``/`` separators
    name: str  # dotted through enclosing classes and functions
    line: int  # first line: the first decorator's, as in ``co_firstlineno``
    body_lines: int


# -- the source side ---------------------------------------------------------------


def functions(root: Path) -> List[Function]:
    """Every function defined in a ``*.py`` file under *root*."""
    found: List[Function] = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = path.relative_to(root).as_posix()
        _collect(ast.parse(source, str(path)), module, (), found)
    return found


def _collect(node, module, scope, found) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(
                Function(
                    module=module,
                    name=".".join(scope + (child.name,)),
                    line=_first_line(child),
                    body_lines=_body_lines(child),
                )
            )
            _collect(child, module, scope + (child.name,), found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, scope + (child.name,), found)
        else:
            _collect(child, module, scope, found)


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _body_lines(function) -> int:
    numbers = set(range(_first_line(function.body[0]), function.end_lineno + 1))
    for nested in ast.walk(ast.Module(body=function.body, type_ignores=[])):
        if isinstance(nested, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            numbers.difference_update(range(_first_line(nested), nested.end_lineno + 1))
    return len(numbers)


# -- the run side ------------------------------------------------------------------


def reached(entry_points: Iterable[Callable[[], object]]) -> Set[Tuple[str, int]]:
    """``(resolved file, first line)`` of every code object the calls entered."""
    seen: Set[int] = set()
    codes: list = []  # keeps each code alive, so its id is never reused

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen.add(id(code))
                codes.append(code)

    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for entry_point in entry_points:
            entry_point()
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}


def unreached(
    root: Path, entry_points: Iterable[Callable[[], object]]
) -> Tuple[List[Function], List[Function]]:
    """All functions under *root*, and those the entry points never entered."""
    calls = reached(entry_points)
    everything = functions(root)
    resolved = os.path.realpath(root)
    missed = [
        function
        for function in everything
        if (os.path.join(resolved, *function.module.split("/")), function.line)
        not in calls
    ]
    return everything, missed


def report(
    everything: List[Function], missed: List[Function], ceiling: int, out: TextIO
) -> int:
    """Print the census; the exit status is 1 when it exceeds *ceiling*."""
    by_module: Dict[str, List[Function]] = {}
    for function in missed:
        by_module.setdefault(function.module, []).append(function)
    weight = {module: sum(f.body_lines for f in listed) for module, listed in by_module.items()}
    for module in sorted(by_module, key=lambda module: (-weight[module], module)):
        listed = by_module[module]
        print(f"{module}: {len(listed)} functions, {weight[module]} body lines", file=out)
        for function in listed:
            print(f"  {function.line:5d}  {function.name} ({function.body_lines})", file=out)
    lines = sum(f.body_lines for f in missed)
    total = sum(f.body_lines for f in everything)
    print(
        f"unreached: {len(missed)} of {len(everything)} functions, "
        f"{lines} of {total} body lines (ceiling {ceiling})",
        file=out,
    )
    if lines > ceiling:
        print(f"FAIL: {lines - ceiling} unreached body lines above the ceiling", file=out)
        return 1
    if lines < ceiling:
        print(f"below the ceiling: lower CEILING to {lines}", file=out)
    return 0


# -- the entry points --------------------------------------------------------------


def _quiet(call: Callable[[], object]) -> Callable[[], None]:
    def run() -> None:
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = call()
        if status:
            raise SystemExit(f"entry point exited {status}")

    return run


def _main_of(module: str, *argv: str) -> Callable[[], None]:
    def call():
        return __import__(module, fromlist=["main"]).main(list(argv))

    return _quiet(call)


def _example(path: Path) -> Callable[[], None]:
    def call():
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as stop:
            return stop.code
        return 0

    return _quiet(call)


def _workloads() -> None:
    sys.path.insert(0, str(REPO / "bench"))
    import workloads

    for workload in workloads.WORKLOADS:
        experiment = workloads.Experiment(time.monotonic())
        try:
            workload.body(experiment, workload.smoke, 0)
        finally:
            experiment.close()
        if experiment.errors:
            raise SystemExit(f"{workload.name}: {experiment.errors}")
    workloads.compile_seconds()


def entry_points() -> List[Callable[[], None]]:
    scenarios = "repro.harness.scenarios"
    return [
        *(_example(path) for path in sorted((REPO / "examples").glob("*.py"))),
        _main_of("repro.harness.experiments", "all", "--sizes", "10,20"),
        _main_of(scenarios, "all", "--nodes", "8"),
        _main_of(
            scenarios, "all", "--nodes", "8",
            "--backend", "sharded", "--shards", "3", "--shard-mode", "inline",
        ),
        _main_of(
            scenarios, "link-failure", "--nodes", "8",
            "--query-rate", "3", "--clients", "1", "--admission", "2",
        ),
        _main_of("repro.datalog.lint.cli", "--builtin", "--strict"),
        _quiet(_workloads),
    ]


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    everything, missed = unreached(PACKAGE, entry_points())
    return report(everything, missed, CEILING, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
