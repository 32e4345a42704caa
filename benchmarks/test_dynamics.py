"""Churn convergence: one-fixpoint deletions vs soft-state decay.

The measurement the tentpole exists for.  An 8-node line running the
localized reachability program is split by retracting its middle link:

* **one-fixpoint** (``rederivation=True``): the retraction's anti-delta
  flood deletes every cross-half tuple in a single distributed fixpoint —
  simulated convergence is link-latency-paced, well under a second;
* **decay baseline** (``rederivation=False``): stale cross-half tuples
  survive until their soft-state TTL runs out while periodic refresh
  rounds keep re-deriving (and re-shipping) the surviving half — the
  paper-era convergence story, paced by ``ttl`` not by computation.

Convergence is *measured*, not assumed: after the retraction the network
state is probed against a from-scratch oracle (a fresh network fed only
the surviving base tuples), advancing simulated time second by second in
the decay case until the two agree.  The one-fixpoint run must beat the
baseline by ``REPRO_DYN_TARGET`` (default 5x — the acceptance floor).

A second test pins the new ledger across backends: the six churn-plane
counters (rederivations, anti-delta messages/bytes, refresh
messages/bytes, timer events) must be byte-identical between the serial
backend and the sharded backend at 2 and 4 shards.

Both tests append their measurements to ``BENCH_dynamics.json`` in the
working directory, unconditionally.

Environment knobs::

    REPRO_DYN_N=8           line length (even; the bridge is the middle link)
    REPRO_DYN_TARGET=5.0    required convergence-time improvement
"""

from __future__ import annotations

import os

from repro.api.network import Network
from repro.datalog import localize_program, parse_program
from repro.datalog.planner import compile_program
from repro.engine.tuples import Fact
from repro.net.events import FactInjection, FactRetraction, SoftStateRefresh
from repro.net.topology import line_topology
from repro.queries.reachable import REACHABLE_LOCALIZED

from conftest import write_artifact

#: Soft-state TTL: the decay baseline's convergence currency.
TTL = 30.0

#: Rounds-mode refresh cadence for the decay baseline.
REFRESH_INTERVAL = 10.0

#: Measurement artifact, written unconditionally in the working directory.
ARTIFACT = "BENCH_dynamics.json"

COUNTERS = (
    "rederivations",
    "anti_delta_messages",
    "anti_delta_bytes",
    "refresh_messages",
    "refresh_bytes",
    "timer_events",
)

_COMPILED = compile_program(localize_program(parse_program(REACHABLE_LOCALIZED)))


def dyn_n() -> int:
    return int(os.environ.get("REPRO_DYN_N", "8"))


def dyn_target() -> float:
    return float(os.environ.get("REPRO_DYN_TARGET", "5.0"))


def _build(topology, rederivation: bool, **net_kwargs):
    return Network.build(
        topology=topology,
        program=_COMPILED,
        provenance="condensed",
        default_ttl=TTL,
        track_dependencies=True,
        rederivation=rederivation,
        **net_kwargs,
    )


def _inject_links(simulator, topology) -> None:
    for node in topology.nodes:
        facts = tuple(
            Fact("link", (link.source, link.destination))
            for link in sorted(topology.outgoing(node), key=lambda l: l.destination)
        )
        simulator.schedule(FactInjection(time=0.0, address=node, facts=facts))


def _state(simulator):
    return {
        address: frozenset(fact.values for fact in engine.facts("reachable"))
        for address, engine in simulator.engines.items()
    }


def _split_oracle(topology, bridge):
    """A fresh network over the same topology minus the bridge's tuples."""
    network = _build(topology, rederivation=True)
    simulator = network.simulator
    for node in topology.nodes:
        facts = tuple(
            Fact("link", (link.source, link.destination))
            for link in sorted(topology.outgoing(node), key=lambda l: l.destination)
            if (link.source, link.destination) not in bridge
        )
        if facts:
            simulator.schedule(FactInjection(time=0.0, address=node, facts=facts))
    assert simulator.run_until_idle()
    return _state(simulator)


def _retract_bridge(simulator, bridge, at: float) -> None:
    for source, destination in sorted(bridge):
        simulator.schedule(
            FactRetraction(
                time=at,
                address=source,
                facts=(Fact("link", (source, destination)),),
            )
        )


def test_bridge_retraction_convergence():
    nodes = dyn_n()
    topology = line_topology(nodes)
    left, right = topology.nodes[nodes // 2 - 1], topology.nodes[nodes // 2]
    bridge = {(left, right), (right, left)}
    oracle = _split_oracle(topology, bridge)

    # --- one-fixpoint: anti-delta repair at computation speed -------------
    network = _build(topology, rederivation=True)
    simulator = network.simulator
    _inject_links(simulator, topology)
    assert simulator.run_until_idle()
    retract_at = simulator.current_time() + 1.0
    bytes_before = simulator.stats.summary()["total_bytes"]
    _retract_bridge(simulator, bridge, retract_at)
    assert simulator.run_until_idle()
    assert _state(simulator) == oracle
    fixpoint_time = simulator.current_time() - retract_at
    fixpoint_summary = simulator.stats.summary()
    fixpoint_bytes = fixpoint_summary["total_bytes"] - bytes_before
    assert fixpoint_summary["anti_delta_messages"] > 0

    # --- decay baseline: over-deletion only, repair by TTL + refresh ------
    network = _build(topology, rederivation=False)
    simulator = network.simulator
    _inject_links(simulator, topology)
    assert simulator.run_until_idle()
    retract_at = simulator.current_time() + 1.0
    bytes_before = simulator.stats.summary()["total_bytes"]
    _retract_bridge(simulator, bridge, retract_at)
    assert simulator.run_until_idle()
    assert simulator.stats.summary()["anti_delta_messages"] == 0
    # Decay-paced repair, exactly the old retraction scenario's script: a
    # rounds-mode refresh only bumps TTLs at the owner — a duplicate
    # re-injection of a live base tuple produces no delta, so remote
    # derived state cannot be patched in place.  The network has to sit
    # through a full TTL of decay (stale and surviving tuples alike), and
    # the next lockstep refresh round rebuilds the surviving halves from
    # the remembered base.  Convergence is the first probed instant the
    # live state equals the oracle.
    decay_time = None
    for step in range(1, int(TTL + 2 * REFRESH_INTERVAL) + 1):
        now = retract_at + float(step)
        simulator.expire_all(now)
        if step == int(TTL + REFRESH_INTERVAL):
            simulator.schedule(SoftStateRefresh(time=now))
            assert simulator.run_until_idle()
        if _state(simulator) == oracle:
            decay_time = float(step)
            break
    assert decay_time is not None, "decay baseline never reached the oracle"
    decay_bytes = simulator.stats.summary()["total_bytes"] - bytes_before

    improvement = decay_time / fixpoint_time if fixpoint_time else float("inf")
    record = {
        "node_count": nodes,
        "ttl_s": TTL,
        "refresh_interval_s": REFRESH_INTERVAL,
        "fixpoint_convergence_s": round(fixpoint_time, 3),
        "decay_convergence_s": round(decay_time, 3),
        "improvement": round(improvement, 2),
        "target": dyn_target(),
        "fixpoint_repair_bytes": int(fixpoint_bytes),
        "decay_repair_bytes": int(decay_bytes),
        "anti_delta_messages": int(fixpoint_summary["anti_delta_messages"]),
        "anti_delta_bytes": int(fixpoint_summary["anti_delta_bytes"]),
    }
    write_artifact(ARTIFACT, "bridge_retraction", record)
    print(
        f"\nbridge retraction N={nodes}: one-fixpoint {fixpoint_time:.3f}s "
        f"vs decay {decay_time:.1f}s ({improvement:.1f}x, target "
        f"{dyn_target()}x); repair bytes {int(fixpoint_bytes)} vs "
        f"{int(decay_bytes)}"
    )
    assert improvement >= dyn_target(), record


def _drive_refresh_retraction(backend: str, shards: int = 2):
    """Converge, rebuild with one refresh round past the TTL, retract the
    bridge."""
    nodes = dyn_n()
    topology = line_topology(nodes)
    left, right = topology.nodes[nodes // 2 - 1], topology.nodes[nodes // 2]
    options = {}
    if backend == "sharded":
        options.update(backend="sharded", shards=shards, shard_mode="inline")
    network = _build(topology, rederivation=True, **options)
    simulator = network.simulator
    _inject_links(simulator, topology)
    assert simulator.run_until_idle()
    # Past the TTL every tuple has lapsed: the round re-asserts the base
    # tuples and re-derives (and re-ships) the rest.
    simulator.schedule(SoftStateRefresh(time=TTL + 5.0))
    assert simulator.run_until_idle()
    at = max(simulator.current_time(), TTL + 5.0) + 1.0
    _retract_bridge(simulator, {(left, right), (right, left)}, at)
    assert simulator.run_until_idle()
    return {key: int(simulator.stats.summary()[key]) for key in COUNTERS}


def test_churn_ledger_identical_across_backends():
    serial = _drive_refresh_retraction("serial")
    rows = {"serial": serial}
    for shards in (2, 4):
        sharded = _drive_refresh_retraction("sharded", shards=shards)
        rows[f"sharded_{shards}"] = sharded
        assert sharded == serial, shards
    for key in COUNTERS:
        assert serial[key] > 0, key
    write_artifact(
        ARTIFACT, "churn_ledger", {"node_count": dyn_n(), "counters": rows}
    )
    print(f"\nchurn ledger N={dyn_n()}: {serial} (identical at 2 and 4 shards)")
