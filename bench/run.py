#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end metrics, a layer trace.

One foreground command, three ways in:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One run of one workload (what ``BENCHMARK.json`` names).  ``--trace 0``
    prints the end-to-end metrics, ``--trace 1`` the per-layer metrics; the
    last line of standard output is one JSON object.

``run.py [--seed S] [--seconds T] [--reps R] [--workloads a,b] [--smoke]``
    Every workload: R untraced runs plus one traced run each, every metric
    printed by name with its unit, ``bench/out/latest.json`` written for
    ``bench/compare.py``.

``run.py --child W --mode timed|traced ...``
    Internal: one experiment in a fresh process (see ``run_child``).

A *run* at seed S is a batch of experiments, one per child process, on
topology seeds that ``random.Random(S)`` draws from a fixed population (see
``experiment_seeds``); the batch size is ``--seconds`` divided by the
workload's nominal experiment cost, so the inputs depend on the arguments
alone.  Host times are the batch median, memory and the simulated
(deterministic) metrics the batch mean.  Host times are in reference seconds
(see ``in_reference_seconds``).
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"bench/run.py: no program to measure: {SRC}/repro is missing")
# The checkout's own sources, never an installed copy; spawn-mode shard
# workers inherit this path from the child that starts them.
sys.path.insert(0, SRC)

import layers  # noqa: E402
import workloads  # noqa: E402

#: Host times take the batch median: one descheduled child must not move a
#: run.  The others are deterministic for an experiment (memory nearly so)
#: and take the batch mean, which repeats better from batch to batch.
MEDIAN_METRICS = ("setup_s", "wall_s", "ops_per_s")
MEAN_METRICS = ("peak_rss_mb", "sim_time_s", "wire_mb")

#: Ceiling for one child, and for a whole single-workload invocation.
CHILD_TIMEOUT_S = 120.0
COMMAND_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- process hygiene ------------------------------------------------------------

#: Session ids (= pids of the children) of everything this command started.
_SESSIONS: List[int] = []


def become_subreaper() -> None:
    """Have orphaned grandchildren (shard workers, multiprocessing's resource
    tracker) re-parent to this process, so it can reap what it kills."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, the /proc poll still waits


def session_pids(session: int) -> List[int]:
    """Pids of every process, zombies included, in *session*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended between listdir and open
        # Fields after "(comm)": state ppid pgrp session ...
        if int(stat[stat.rindex(")") + 2:].split()[3]) == session:
            found.append(int(entry))
    return found


def reap_orphans() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_session(process: subprocess.Popen, grace: float = 10.0) -> None:
    """Kill *process*'s whole session, wait, and poll /proc until it is empty."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + grace
    while True:
        reap_orphans()
        left = session_pids(process.pid)
        if not left:
            return
        if time.monotonic() > deadline:
            raise BenchError(f"process(es) still running after kill: pid {left}")
        time.sleep(0.01)


def run_child(
    workload: str, mode: str, seed: int, smoke: bool, deadline: Optional[float]
) -> dict:
    """One experiment in a fresh process of its own session; returns its JSON.

    On every exit path - success, failure, timeout, interrupt - the child's
    process group is killed and awaited before this returns.
    """
    timeout = CHILD_TIMEOUT_S
    if deadline is not None:
        timeout = min(timeout, deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError("out of time before starting the next experiment")
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # Temporary files, should a layer make any, stay inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))
    argv = [
        sys.executable,
        os.path.abspath(__file__),
        "--child", workload,
        "--mode", mode,
        "--seed", str(seed),
        "--spawned-at", repr(time.monotonic()),
    ]
    if smoke:
        argv.append("--smoke")
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    _SESSIONS.append(process.pid)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload} seed {seed} ({mode}) exceeded {timeout:.0f}s"
        ) from None
    finally:
        end_session(process)
    if process.returncode != 0:
        raise BenchError(
            f"{workload} seed {seed} ({mode}) exited with {process.returncode}"
        )
    return json.loads(stdout.decode().strip().splitlines()[-1])


#: Everything a child reports in host seconds (or milliseconds).
HOST_TIMES = (
    "setup_s", "wall_s", "cpu_s", "worker_cpu_s", "reference_wall_s",
    "settle_ms", "compile_s", "layers",
)


def in_reference_seconds(out: dict) -> None:
    """Rescale every host time of *out* by the experiment's ``host_speed``.

    This box's speed drifts by tens of percent over minutes (frequency,
    neighbours on the host), which a fixed probe timed around the timed
    section tracks; without the rescale no two runs of one commit agree
    within any useful bound.  The seconds as measured stay under ``raw``.
    """
    speed = out["host_speed"]
    out["raw"] = {name: out[name] for name in ("setup_s", "wall_s")}
    for name in HOST_TIMES:
        value = out.get(name)
        if isinstance(value, dict):
            out[name] = {key: item * speed for key, item in value.items()}
        elif isinstance(value, list):
            out[name] = [item * speed for item in value]
        elif value is not None:
            out[name] = value * speed


def child_main(args) -> int:
    """Run one experiment and print its facts as one JSON line."""
    workload = workloads.BY_NAME[args.child]
    size = workload.smoke if args.smoke else workload.full
    traced = args.mode == "traced"
    experiment = workloads.Experiment(
        args.spawned_at, cProfile.Profile(builtins=False) if traced else None
    )
    out = experiment.out
    try:
        if traced:
            package = os.path.join(SRC, "repro")
            layers.check_layer_map(package)
            out["compile_s"] = workloads.compile_seconds()
        workload.body(experiment, size, args.seed)
        if traced:
            fold = layers.Fold(experiment.profile, package, BENCH)
            fold.check(out["wall_s"])
            out["layers"] = fold.self_s
            out["calls"] = {
                name: fold.calls(codes)
                for name, codes in workloads.traced_calls().items()
            }
    finally:
        experiment.close()
    in_reference_seconds(out)
    out.update(seed=args.seed, errors=experiment.errors, spans=experiment.spans)
    print(json.dumps(out))
    return 0


# -- one run: a batch of experiments ----------------------------------------------


def batch_size(workload: workloads.Workload, seconds: float, smoke: bool) -> int:
    if smoke:
        return 1
    return max(2, round(seconds / workload.experiment_seconds))


def population(workload: workloads.Workload, seconds: float, smoke: bool) -> range:
    """The topology seeds a run draws its batch from: twice the batch.

    A fixed population, not fresh topologies for every seed, for two
    reasons.  ``bench/expected.json`` can then hold every experiment's op
    count and digest, so the committed check covers every seed.  And one
    topology's cost differs from the next by 10-20 %, which a batch of six
    does not average out; half of a population repeats better from seed
    to seed than six topologies nobody has seen before.
    """
    return range(2 * batch_size(workload, seconds, smoke))


def experiment_seeds(
    workload: workloads.Workload, seed: int, seconds: float, smoke: bool
) -> List[int]:
    pool = population(workload, seconds, smoke)
    return random.Random(seed).sample(pool, len(pool) // 2)


def load_expected(workload: workloads.Workload, smoke: bool) -> Dict[str, dict]:
    """Committed op counts and digests by experiment seed, for these sizes."""
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as handle:
        entry = json.load(handle)["smoke" if smoke else "full"][workload.name]
    size = workload.smoke if smoke else workload.full
    if entry["size"] != [size.nodes, size.work]:
        raise BenchError(
            f"bench/expected.json holds {workload.name} at size {entry['size']}, "
            f"the workload is {[size.nodes, size.work]}: run --write-expected"
        )
    return entry["experiments"]


def verify(workload: workloads.Workload, smoke: bool, children: List[dict]) -> List[str]:
    """Every correctness failure of *children*, as printable lines."""
    expected = load_expected(workload, smoke)
    problems = []
    for child in children:
        where = f"{workload.name} seed {child['seed']}"
        problems += [f"{where}: {error}" for error in child["errors"]]
        if child["failed"]:
            problems.append(f"{where}: {child['failed']} of {child['attempted']} ops failed")
        known = expected.get(str(child["seed"]))
        if known is not None and (
            known["ops"] != child["ops"] or known["digest"] != child["digest"]
        ):
            problems.append(
                f"{where}: ops/digest {child['ops']}/{child['digest'][:12]} differ "
                f"from bench/expected.json {known['ops']}/{known['digest'][:12]}"
            )
    return problems


def end_to_end(children: List[dict]) -> Dict[str, float]:
    for child in children:
        child["ops_per_s"] = child["ops"] / child["wall_s"]
    metrics = {
        name: statistics.median(child[name] for child in children)
        for name in MEDIAN_METRICS
    }
    for name in MEAN_METRICS:
        metrics[name] = statistics.fmean(child[name] for child in children)
    return metrics


def timed_run(workload, seed: int, seconds: float, smoke: bool, deadline) -> dict:
    """One untraced run: the batch, its checks, its end-to-end metrics."""
    seeds = experiment_seeds(workload, seed, seconds, smoke)
    children = [run_child(workload.name, "timed", s, smoke, deadline) for s in seeds]
    return {
        "children": children,
        "problems": verify(workload, smoke, children),
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "metrics": end_to_end(children),
    }


# -- the traced run ----------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(timed: dict, traced: dict) -> Dict[str, float]:
    """Every per-layer metric of one experiment, zero where a layer is idle.

    Counts come from the untraced child's statistics and the traced child's
    profile; host times that are not ``*.self_s`` come from the untraced
    child, so the profiler's cost is in none of them.
    """
    stats, calls, service = timed["stats"], traced["calls"], timed.get("service", {})
    sharded = stats["coordination_rounds"] > 0
    metrics = {"other.self_s": traced["layers"][layers.OTHER]}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = traced["layers"][layer]
        metrics[f"{layer}.share"] = ratio(traced["layers"][layer], traced["wall_s"])
    metrics.update(calls)
    metrics.update(
        {
            "datalog.compile_s": traced["compile_s"],
            "engine.facts_derived": stats["facts_derived"],
            "engine.facts_retracted": stats["facts_retracted"],
            "engine.rederivations": stats["rederivations"],
            "engine.fixpoint_yield": ratio(stats["facts_stored"], stats["facts_derived"]),
            "provenance.wire_bytes": stats["provenance_bytes"],
            "provenance.bytes_resident": timed["provenance_bytes_resident"],
            "security.wire_bytes": stats["security_bytes"],
            "net.wire.messages": stats["total_messages"],
            "net.wire.bytes": stats["total_bytes"],
            "net.wire.tuples_per_batch": ratio(stats["tuples_sent"], stats["batches_sent"]),
            "net.kernel.events": timed["events"],
            "net.kernel.us_per_event": ratio(timed["wall_s"] * 1e6, timed["events"]),
            "net.kernel.timer_events": stats["timer_events"],
            "net.kernel.settle_p50_ms": percentile(timed.get("settle_ms", []), 0.5),
            "net.kernel.settle_p90_ms": percentile(timed.get("settle_ms", []), 0.9),
            "net.sharding.rounds": stats["coordination_rounds"],
            "net.sharding.coord_bytes": stats["coordination_bytes"],
            "net.sharding.windows_executed": stats["windows_executed"],
            "net.sharding.windows_coalesced": stats["windows_coalesced"],
            "net.sharding.coord_cpu_s": timed["cpu_s"] if sharded else 0.0,
            "net.sharding.worker_cpu_s": timed["worker_cpu_s"] if sharded else 0.0,
            "net.sharding.speedup": ratio(timed.get("reference_wall_s", 0.0), timed["wall_s"]),
            "net.query.messages": stats["query_messages"],
            "net.query.bytes": stats["query_bytes"],
            "net.query.completed": stats["queries_completed"],
            "net.query.sim_p50_ms": service.get("sim_p50_ms", 0.0),
            "net.query.sim_p95_ms": service.get("sim_p95_ms", 0.0),
            "service.cache_hits": stats["cache_hits"],
            "service.cache_misses": stats["cache_misses"],
            "service.cache_hit_ratio": ratio(
                stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]
            ),
            "service.rejected": stats["queries_rejected"],
            "trace.overhead_ratio": ratio(traced["wall_s"], timed["wall_s"]),
            "trace.host_speed": timed["host_speed"],
        }
    )
    return metrics


def traced_run(
    workload, seed: int, seconds: float, smoke: bool, deadline, timed: Optional[dict] = None
) -> dict:
    """The layer trace of the run's first experiment.

    End-to-end metrics never come from here.  *timed* is the untraced child
    of the same experiment when the caller already has it.
    """
    first = experiment_seeds(workload, seed, seconds, smoke)[0]
    if timed is None:
        timed = run_child(workload.name, "timed", first, smoke, deadline)
    traced = run_child(workload.name, "traced", first, smoke, deadline)
    problems = verify(workload, smoke, [timed, traced])
    for fact in ("digest", "ops", "sim_time_s", "wire_mb", "events"):
        if timed[fact] != traced[fact]:
            problems.append(
                f"{workload.name} seed {first}: {fact} differs between the "
                f"untraced ({timed[fact]}) and the traced ({traced[fact]}) run"
            )
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload.name}.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": first,
                "spans": traced["spans"],
                "layers": traced["layers"],
                "calls": traced["calls"],
            },
            handle,
            indent=1,
        )
        handle.write("\n")
    return {
        "experiment": first,
        "problems": problems,
        "attempted": timed["attempted"] + traced["attempted"],
        "failed": timed["failed"] + traced["failed"],
        "metrics": per_layer(timed, traced),
    }


# -- reporting ---------------------------------------------------------------------


def units(contract: dict, section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in contract[section]}


def with_units(metrics: Dict[str, float], unit_of: Dict[str, str]) -> Dict[str, dict]:
    """*metrics* in contract order; a metric the contract lacks, or the run
    lacks, is an error - the two lists are one list."""
    if set(metrics) != set(unit_of):
        raise BenchError(
            f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(unit_of))}"
        )
    return {name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of}


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")


def summarize(values: List[float]) -> Dict[str, float]:
    """Median with the quartiles, extremes and count beside it."""
    summary = {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def single(args, contract: dict) -> int:
    """The contract's entry point: one run of one workload, JSON on the last line."""
    workload = workloads.BY_NAME[args.workload]
    deadline = time.monotonic() + COMMAND_TIMEOUT_S
    if args.trace:
        run = traced_run(workload, args.seed, args.seconds, args.smoke, deadline)
        metrics = with_units(run["metrics"], units(contract, "per_layer"))
    else:
        run = timed_run(workload, args.seed, args.seconds, args.smoke, deadline)
        metrics = with_units(run["metrics"], units(contract, "end_to_end"))
    print_metrics(f"{workload.name} seed {args.seed} ({workload.op})", metrics)
    for problem in run["problems"]:
        print(f"INCORRECT {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run["problems"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if run["problems"] else 0


def full(args, contract: dict) -> int:
    """Every workload: R untraced runs and one traced run each."""
    names = args.workloads.split(",") if args.workloads else list(workloads.BY_NAME)
    reps = 1 if args.smoke else args.reps
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "reps": reps,
        "workloads": {},
    }
    problems: List[str] = []
    for name in names:
        workload = workloads.BY_NAME[name]
        runs = [
            timed_run(workload, args.seed, args.seconds, args.smoke, None)
            for _ in range(reps)
        ]
        trace = traced_run(
            workload, args.seed, args.seconds, args.smoke, None,
            timed=runs[0]["children"][0],
        )
        for run in runs + [trace]:
            problems += run["problems"]
        samples = {
            metric: [run["metrics"][metric] for run in runs]
            for metric in units(contract, "end_to_end")
        }
        medians = {metric: statistics.median(values) for metric, values in samples.items()}
        attempted = runs[0]["attempted"]
        failed = max(run["failed"] for run in runs)
        print_metrics(
            f"{name}: {workload.op}; {len(runs[0]['children'])} experiments a run, "
            f"{reps} run(s), attempted {attempted}, fail_share {failed / attempted:g}",
            with_units(medians, units(contract, "end_to_end")),
        )
        layer_metrics = with_units(trace["metrics"], units(contract, "per_layer"))
        print_metrics(f"{name}: layer trace of experiment {trace['experiment']}", layer_metrics)
        report["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "fail_share": failed / attempted,
            "end_to_end": {
                metric: dict(summarize(values), samples=values)
                for metric, values in samples.items()
            },
            "per_layer": {metric: entry["value"] for metric, entry in layer_metrics.items()},
        }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "smoke.json" if args.smoke else "latest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    print(f"wrote {os.path.relpath(path, ROOT)}; every check passed" if not problems
          else f"wrote {os.path.relpath(path, ROOT)}; {len(problems)} check(s) FAILED")
    return 1 if problems else 0


def write_expected(seconds: float) -> int:
    """Regenerate ``bench/expected.json``: every workload's whole population."""
    expected: Dict[str, dict] = {}
    for key, smoke in (("full", False), ("smoke", True)):
        expected[key] = {}
        for workload in workloads.WORKLOADS:
            size = workload.smoke if smoke else workload.full
            children = [
                run_child(workload.name, "timed", seed, smoke, None)
                for seed in population(workload, seconds, smoke)
            ]
            bad = [child for child in children if child["errors"] or child["failed"]]
            if bad:
                raise BenchError(f"{workload.name}: will not record a failing run: {bad[0]['errors']}")
            expected[key][workload.name] = {
                "size": [size.nodes, size.work],
                "experiments": {
                    str(child["seed"]): {"ops": child["ops"], "digest": child["digest"]}
                    for child in children
                },
            }
            print(f"{key} {workload.name}: {len(children)} experiments recorded")
    with open(os.path.join(BENCH, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--workloads", help="comma-separated subset, all-workload mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one experiment a run")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--child", choices=sorted(workloads.BY_NAME), help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("timed", "traced"), default="timed", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    become_subreaper()
    try:
        if args.write_expected:
            code = write_expected(args.seconds)
        elif args.workload:
            code = single(args, contract)
        else:
            code = full(args, contract)
    except (BenchError, layers.LayerMapError) as error:
        print(f"bench/run.py: {error}", file=sys.stderr)
        code = 2
    alive = [pid for session in _SESSIONS for pid in session_pids(session)]
    if alive:
        print(f"bench/run.py: started process(es) still alive: pid {alive}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
