"""The census tools refuse sizes no run can have.

``tools/poly_census.py`` and ``tools/engine_census.py`` share one run loop
that flaps ``links[:flaps]``: a negative ``--flaps`` would silently flap every link
but the last few and report it as a normal census, and a one-node network has
no topology to draw.  Both exit with a usage error (status 2) before building
anything.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import engine_census  # noqa: E402
import poly_census  # noqa: E402

BAD = {
    "negative-flaps": ["--flaps", "-1", "--nodes", "8"],
    "one-node": ["--nodes", "1"],
    "no-nodes": ["--nodes", "0", "--flaps", "2"],
}


@pytest.mark.parametrize("tool", [poly_census, engine_census], ids=["poly", "engine"])
@pytest.mark.parametrize("argv", BAD.values(), ids=BAD.keys())
def test_a_bad_size_is_a_usage_error(tool, argv, capsys, monkeypatch):
    def no_run(*_args, **_kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(poly_census, "build", no_run)
    with pytest.raises(SystemExit) as exit:
        tool.main(argv)
    assert exit.value.code == 2
    error = capsys.readouterr().err
    assert ("--flaps" if "--flaps" in argv and "-1" in argv else "--nodes") in error


def test_the_smallest_sizes_run():
    # In a child process: a census wraps the classes it counts for good.
    completed = subprocess.run(
        [sys.executable, poly_census.__file__, "--nodes", "2", "--flaps", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "condense" in completed.stdout


def test_the_resident_census_finds_nothing_kept_twice():
    """``--resident`` counts what each node's provenance keeps after the run
    and exits 0 only when no annotation, pair or key object repeats another's
    value at its node and no firing sits in a list."""
    completed = subprocess.run(
        [sys.executable, poly_census.__file__, "--resident",
         "--provenance", "sendlog-prov", "--nodes", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = {line.split()[0]: line.split() for line in completed.stdout.splitlines()}
    for label in ("annotations", "pairs", "keys"):
        objects, values = int(lines[label][1]), int(lines[label][4])
        assert objects == values > 0, label
    assert lines["lists"][1] == "0"


def test_the_resident_census_exits_1_on_a_repeated_object():
    census = poly_census.Counter({"annotation objects": 3, "distinct annotations": 2})
    assert poly_census.print_resident(census, 0) == 1
    assert poly_census.print_resident(poly_census.Counter(), 0) == 0
