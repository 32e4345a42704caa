#!/usr/bin/env python3
"""Compare two reports of ``bench/run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (A is the base), the metric's bound from
``BENCHMARK.json`` and a verdict:

``improved``    B's median is better by more than A's own quartile spread
``unchanged``   neither of the others
``unresolved``  the run-to-run spread is wider than the bound, so the bound
                cannot be checked (unless every B run beats every A run)
``regressed``   B's median is worse than A's by more than the bound

The simulated metrics are deterministic for a seed and are compared for
equality, as are the per-layer counts.  Exits non-zero on any regressed row.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def exact(metric: dict) -> bool:
    """Counts, bytes and simulated quantities repeat exactly for a seed."""
    return metric["unit"] in ("count", "B") or metric["unit"].startswith("sim_")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spread(entry: dict) -> float:
    """Distance between the quartiles; zero when one run is all there is."""
    return entry["q3"] - entry["q1"] if "q1" in entry else 0.0


def verdict(metric: dict, a: dict, b: dict) -> str:
    lower = metric["better"] == "lower"
    worse_by = (b["median"] - a["median"]) / a["median"] * (1 if lower else -1)
    if exact(metric):
        if b["median"] == a["median"]:
            return "unchanged"
        return "regressed" if worse_by > 0 else "improved"
    if max(spread(a), spread(b)) / a["median"] > metric["bound"]:
        if lower:
            clean_win = max(b["samples"]) < min(a["samples"])
        else:
            clean_win = min(b["samples"]) > max(a["samples"])
        return "improved" if clean_win else "unresolved"
    if worse_by > metric["bound"]:
        return "regressed"
    if -worse_by > spread(a) / a["median"]:
        return "improved"
    return "unchanged"


def quartiles(entry: dict) -> str:
    if "q1" not in entry:
        return f"{entry['median']:.6g}"
    return f"{entry['median']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}]"


def compare(a: dict, b: dict, contract: dict) -> List[str]:
    """Print the table; return the regressed rows."""
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            sys.exit(f"not comparable: {key} is {a[key]} in A and {b[key]} in B")
    regressed = []
    print(f"{'workload':22s} {'metric':12s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>8s} {'bound':>6s}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            one, other = left["end_to_end"][metric["name"]], right["end_to_end"][metric["name"]]
            outcome = verdict(metric, one, other)
            bound = "exact" if exact(metric) else f"{metric['bound']:.2f}"
            print(f"{name:22s} {metric['name']:12s} {quartiles(one):>34s} "
                  f"{quartiles(other):>34s} {other['median'] / one['median']:8.4f} "
                  f"{bound:>6s}  {outcome}")
            if outcome == "regressed":
                regressed.append(f"{name} {metric['name']}")
        if right["failed"] > left["failed"]:
            print(f"{name:22s} failed ops {left['failed']} -> {right['failed']} "
                  f"of {right['attempted']}  regressed")
            regressed.append(f"{name} failed ops")
        for metric in contract["per_layer"]:
            if not exact(metric):
                continue
            one, other = left["per_layer"][metric["name"]], right["per_layer"][metric["name"]]
            if one != other:
                print(f"{name:22s} {metric['name']} changed: {one} -> {other}")
    return regressed


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    regressed = compare(load(argv[1]), load(argv[2]), contract)
    if regressed:
        print(f"{len(regressed)} regressed: {', '.join(regressed)}")
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
