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
