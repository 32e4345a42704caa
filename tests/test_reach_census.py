"""Tests for tools/reach_census.py — the unreached-code ratchet."""

from __future__ import annotations

import importlib
import importlib.util
import io
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL_PATH = REPO_ROOT / "tools" / "reach_census.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("reach_census", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the defining module through sys.modules, so the
    # tool must be registered before execution.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

SAMPLE = '''\
import functools


def called():
    """Reached: the entry point calls it."""
    return 1


def uncalled():
    value = 2

    # Blank and comment lines inside a body count.
    return value


class Thing:
    def method(self):
        return 3

    def unused_method(self):
        return 4


def outer():
    def inner():
        return 5

    return 6


def decorate(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)

    return wrapper


@decorate
def decorated():
    return 7
'''


@pytest.fixture
def sample(tmp_path, monkeypatch):
    """A one-module package ``census_sample`` and an entry point into it."""
    package = tmp_path / "census_sample"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "census_sample", raising=False)
    monkeypatch.delitem(sys.modules, "census_sample.mod", raising=False)

    def run():
        # Imported under the profile: ``decorate`` runs at import time.
        mod = importlib.import_module("census_sample.mod")
        mod.called()
        mod.Thing().method()
        mod.outer()
        mod.decorated()

    yield package, run
    sys.modules.pop("census_sample.mod", None)
    sys.modules.pop("census_sample", None)


def test_every_def_is_found_with_its_body_lines(sample):
    package, _run = sample
    found = {(f.name, f.line, f.body_lines) for f in tool.functions(package)}
    assert found == {
        ("called", 4, 2),  # the docstring is a body line
        ("uncalled", 9, 4),
        ("Thing.method", 17, 1),
        ("Thing.unused_method", 20, 1),
        ("outer", 24, 2),  # the blank line and the return; not inner's lines
        ("outer.inner", 25, 1),
        ("decorate", 31, 2),
        ("decorate.wrapper", 32, 1),  # starts at its decorator
        ("decorated", 39, 1),  # starts at its decorator
    }


def test_the_census_names_exactly_what_the_entry_point_never_entered(sample):
    package, run = sample
    everything, missed = tool.unreached(package, [run])
    assert len(everything) == 9
    assert [(f.module, f.name, f.body_lines) for f in missed] == [
        ("mod.py", "uncalled", 4),
        ("mod.py", "Thing.unused_method", 1),
        ("mod.py", "outer.inner", 1),
    ]


def test_the_ceiling_is_a_ratchet(sample):
    package, run = sample
    everything, missed = tool.unreached(package, [run])
    out = io.StringIO()
    assert tool.report(everything, missed, 6, out) == 0
    assert "mod.py: 3 functions, 6 body lines" in out.getvalue()
    assert "unreached: 3 of 9 functions, 6 of 15 body lines (ceiling 6)" in out.getvalue()

    out = io.StringIO()
    assert tool.report(everything, missed, 5, out) == 1
    assert "FAIL: 1 unreached body lines above the ceiling" in out.getvalue()

    out = io.StringIO()
    assert tool.report(everything, missed, 7, out) == 0
    assert "lower CEILING to 6" in out.getvalue()
