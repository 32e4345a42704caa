"""The module -> layer map and the cProfile fold that charges time to layers.

INV001 forbids wall-clock reads inside ``net/`` and ``engine/``, so the
layer breakdown is taken from outside: the benchmark wraps the timed
section in ``cProfile`` and folds the profile through :data:`RULES`.
A function's self time goes to the layer of its file.  The profile is
taken with ``builtins=False``, so the time of C builtins (RSA's ``pow``,
``sorted``, ``heapq``) is already, exactly, in the self time of the Python
function that called them; stdlib functions written in Python
(``dataclasses.replace``, generated ``__init__``) are charged to the layer
of the ``repro`` function that called them, using cProfile's per-caller
split, recursively through non-``repro`` callers.
"""

from __future__ import annotations

import os
import pstats
from typing import Callable, Dict, Iterable, List, Tuple

#: Fixed here: every later PR is judged with these names.
LAYERS = (
    "datalog",
    "engine",
    "provenance",
    "security",
    "net.wire",
    "net.sharding",
    "net.query",
    "net.kernel",
    "service",
    "harness",
)
OTHER = "other"

#: The fold fails a run whose attributed self time covers less than this
#: share of the traced wall (equivalently: ``other`` above 5 %).
MIN_COVERAGE = 0.95

_WIRE = ("net/message.py", "net/transport.py")
_NAMED_NET = _WIRE + ("net/sharding.py", "net/query.py")

#: (layer, predicate over the path relative to ``src/repro``).  The
#: predicates are written to be disjoint; :func:`check_layer_map` proves
#: it against the files on disk instead of trusting the order.
RULES: Tuple[Tuple[str, Callable[[str], bool]], ...] = (
    ("datalog", lambda p: p.startswith("datalog/")),
    ("engine", lambda p: p.startswith("engine/")),
    ("provenance", lambda p: p.startswith("provenance/")),
    ("security", lambda p: p.startswith("security/")),
    ("net.wire", lambda p: p in _WIRE),
    ("net.sharding", lambda p: p == "net/sharding.py"),
    ("net.query", lambda p: p == "net/query.py"),
    ("net.kernel", lambda p: p.startswith("net/") and p not in _NAMED_NET),
    ("service", lambda p: p.startswith("service/")),
    (
        "harness",
        lambda p: p == "__init__.py"
        or p.startswith(("api/", "harness/", "queries/", "usecases/")),
    ),
)

FuncKey = Tuple[str, int, str]


def layers_matching(relative: str) -> List[str]:
    """Every layer whose rule accepts *relative* (a path under ``src/repro``)."""
    return [layer for layer, accepts in RULES if accepts(relative)]


def check_layer_map(package_root: str) -> int:
    """Fail unless every ``*.py`` under *package_root* maps to exactly one layer.

    Returns the number of files checked, so a new module cannot silently
    fall out of the attribution.
    """
    checked = 0
    for directory, _subdirs, files in os.walk(package_root):
        for name in files:
            if not name.endswith(".py"):
                continue
            relative = os.path.relpath(
                os.path.join(directory, name), package_root
            ).replace(os.sep, "/")
            matched = layers_matching(relative)
            if len(matched) != 1:
                raise LayerMapError(
                    f"src/repro/{relative} maps to {matched or 'no layer'}; "
                    "bench/layers.py RULES must place it in exactly one"
                )
            checked += 1
    if not checked:
        raise LayerMapError(f"no python files under {package_root}")
    return checked


class LayerMapError(Exception):
    """The layer map or a fold broke one of its guards."""


class Fold:
    """Self time per layer, from one ``cProfile`` profile."""

    def __init__(self, profile, package_root: str, bench_root: str) -> None:
        self._package = os.path.join(package_root, "")
        self._bench = os.path.join(bench_root, "")
        self._stats: Dict[FuncKey, tuple] = pstats.Stats(profile).stats
        self._owners: Dict[FuncKey, Dict[str, float]] = {}
        #: Non-repro functions on the current caller walk (cuts recursion).
        self._walking: set = set()
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_s[OTHER] = 0.0
        # callers[f] = (nc, cc, tt, ct): ct is the callee's cumulative time
        # while called from f.
        under: Dict[FuncKey, float] = {}
        for _cc, _nc, _tt, _ct, callers in self._stats.values():
            for caller, entry in callers.items():
                under[caller] = under.get(caller, 0.0) + entry[3]
        for func, (cc, nc, tt, ct, _callers) in self._stats.items():
            # Self time as "cumulative minus the callees' cumulative": on
            # CPython 3.11 cProfile leaves part of a call's time in no
            # function's tt, and that remainder passed while func was the
            # innermost profiled frame.  A recursive function's ct counts
            # primitive calls only, so there tt has to do.
            own = ct - under.get(func, 0.0) if cc == nc else tt
            for owner, share in self._owner_shares(func).items():
                self.self_s[owner] += own * share

    def _layer_of(self, func: FuncKey):
        """The layer of *func*'s file, or None for builtins and stdlib."""
        filename = func[0]
        if filename.startswith(self._package):
            matched = layers_matching(
                filename[len(self._package):].replace(os.sep, "/")
            )
            return matched[0] if len(matched) == 1 else OTHER
        if filename.startswith(self._bench):
            # The benchmark's own loop is harness code driving the API.
            return "harness"
        return None

    def _owner_shares(self, func: FuncKey) -> Dict[str, float]:
        """Which layers answer for time spent under *func*, as shares of 1."""
        layer = self._layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        cached = self._owners.get(func)
        if cached is not None:
            return cached
        callers = self._stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        if func in self._walking or not callers:
            return {OTHER: 1.0}
        # One level further up cProfile keeps no context, so split by the
        # cumulative time each caller spent in *func* (call counts when the
        # timer resolution left every cumulative time at zero).
        weights = {c: entry[3] for c, entry in callers.items()}
        if not any(weights.values()):
            weights = {c: float(entry[0]) for c, entry in callers.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        self._walking.add(func)
        for caller, weight in weights.items():
            for owner, share in self._owner_shares(caller).items():
                shares[owner] = shares.get(owner, 0.0) + share * weight / total
        self._walking.discard(func)
        self._owners[func] = shares
        return shares

    def calls(self, code_objects: Iterable) -> int:
        """Exact call count of the functions whose code objects are given."""
        total = 0
        for code in code_objects:
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            entry = self._stats.get(key)
            if entry is not None:
                total += entry[1]
        return total

    def check(self, traced_wall: float) -> None:
        """Fail the run when the fold lost, or invented, 5 % of the traced wall."""
        attributed = sum(self.self_s[layer] for layer in LAYERS)
        if not MIN_COVERAGE * traced_wall <= attributed <= traced_wall / MIN_COVERAGE:
            raise LayerMapError(
                f"layer self times sum to {attributed:.3f}s, outside "
                f"{MIN_COVERAGE:.0%} of the traced wall {traced_wall:.3f}s "
                f"(other={self.self_s[OTHER]:.3f}s)"
            )
        if self.self_s[OTHER] > (1.0 - MIN_COVERAGE) * traced_wall:
            raise LayerMapError(
                f"other.self_s={self.self_s[OTHER]:.3f}s exceeds "
                f"{1.0 - MIN_COVERAGE:.0%} of the traced wall {traced_wall:.3f}s"
            )
