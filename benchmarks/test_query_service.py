"""The query service plane under open-loop load: saturation and equivalence.

Two axes, one artifact:

* **Saturation** (``test_open_loop_saturation``): a converged Best-Path
  network serves an open-loop Poisson traceback workload at a ladder of
  offered rates while admission control (token bucket, drop policy) and the
  per-node result cache are armed.  Query CPU costs are deliberately
  inflated (``SERVICE_COST``) so the service plane — not the network RTT —
  is the bottleneck, which is the regime the ladder is meant to exercise.
  The classic open-loop signature is asserted, not just plotted: rejection
  rate and p95 latency rise monotonically with offered load, goodput grows
  sublinearly past the knee (the plateau), the cache serves an increasing
  share of probes, and per point the admission ledger conserves queries
  (``completed + shed == offered``).

* **Equivalence** (``test_service_backend_equivalence``): the most
  saturated grid point once on the serial kernel and once on the sharded
  backend — identical SLO report, field for field, because every service
  counter is an integer on simulated time.

Both tests append their measurements to ``BENCH_service.json`` in the
working directory, unconditionally.

Environment knobs::

    REPRO_SERVICE_RATES=2,5,10,20,40   offered query rates (per second)
    REPRO_SERVICE_N=10                 topology size
    REPRO_SERVICE_DURATION=10          open-loop window (simulated seconds)
"""

from __future__ import annotations

import os

from repro.api import NetOptions, Network
from repro.net.kernel import CostModel
from repro.net.topology import random_topology
from repro.service.workload import QueryWorkload

from conftest import write_artifact

#: Measurement artifact, written unconditionally in the working directory.
ARTIFACT = "BENCH_service.json"

#: Inflated query-plane costs: with the default model the 1 ms-scale network
#: RTT dominates and p95 is flat at every offered rate; these constants make
#: answering a traceback cost tens of simulated milliseconds of CPU, so
#: queueing — and with it the latency knee — shows up inside the ladder.
SERVICE_COST = CostModel(
    seconds_per_query_lookup=25e-3, seconds_per_query_byte=2e-4
)

#: Admission control for every grid point: one query per second per node of
#: sustained budget, with enough burst that the low-rate points sail through
#: unrejected and the high-rate points shed the overload.
ADMISSION_RATE = 1.0
ADMISSION_BURST = 8.0

TOPOLOGY_SEED = 4
WORKLOAD_SEED = 7


def service_rates() -> tuple:
    raw = os.environ.get("REPRO_SERVICE_RATES", "2,5,10,20,40")
    return tuple(float(part) for part in raw.split(",") if part)


def service_n() -> int:
    return int(os.environ.get("REPRO_SERVICE_N", "10"))


def service_duration() -> float:
    return float(os.environ.get("REPRO_SERVICE_DURATION", "10"))


def _serve_point(rate: float, **option_overrides) -> dict:
    """One grid point: build, converge, serve, return the SLO report dict."""
    options = NetOptions(
        seed=TOPOLOGY_SEED,
        query_cache=True,
        admission_rate=ADMISSION_RATE,
        admission_burst=ADMISSION_BURST,
        cost_model=SERVICE_COST,
        **option_overrides,
    )
    network = Network.build(
        topology=random_topology(service_n(), seed=TOPOLOGY_SEED),
        program="best-path",
        provenance="condensed",
        options=options,
    )
    workload = QueryWorkload(
        rate=rate, duration=service_duration(), seed=WORKLOAD_SEED
    )
    result = network.serve(workload)
    report = result.service()
    assert report is not None
    return report.as_dict()


def test_open_loop_saturation(benchmark):
    rates = service_rates()
    assert len(rates) >= 3, "the ladder needs a below-knee and an above-knee point"

    def sweep():
        return [_serve_point(rate) for rate in rates]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)

    for rate, row in zip(rates, rows):
        row["offered_rate_target"] = rate
        print(
            f"\nservice N={service_n()} rate={rate:g}/s: "
            f"offered={row['offered']:g} goodput={row['goodput_qps']:.2f}/s "
            f"rej={row['rejection_rate']:.3f} p95={row['p95_ms']:.1f}ms "
            f"hit={row['cache_hit_ratio']:.3f}"
        )

    record = {
        "node_count": service_n(),
        "duration_s": service_duration(),
        "admission_rate": ADMISSION_RATE,
        "admission_burst": ADMISSION_BURST,
        "seconds_per_query_lookup": SERVICE_COST.seconds_per_query_lookup,
        "rows": rows,
    }
    benchmark.extra_info.update(
        {"node_count": service_n(), "rates": list(rates)}
    )
    write_artifact(ARTIFACT, "saturation", record)

    # The admission ledger conserves queries at every point: whatever was
    # offered either completed or was shed, and under the drop policy every
    # rejection is terminal.
    for row in rows:
        assert row["completed"] + row["shed"] == row["offered"], row
        assert row["shed"] == row["rejected"], row
        assert row["cache_hit_ratio"] > 0.0, row

    rejections = [row["rejection_rate"] for row in rows]
    p95s = [row["p95_ms"] for row in rows]
    goodputs = [row["goodput_qps"] for row in rows]

    # Open-loop saturation signature.  Rejection and tail latency rise
    # monotonically with offered load and strictly overall ...
    assert rejections == sorted(rejections), rejections
    assert rejections[-1] > rejections[0], rejections
    assert p95s == sorted(p95s), p95s
    assert p95s[-1] > p95s[0], p95s
    # ... while goodput's final step grows strictly slower than offered
    # load (the plateau: admission and queueing cap useful throughput) ...
    offered_gain = rows[-1]["offered"] / rows[-2]["offered"]
    goodput_gain = goodputs[-1] / goodputs[-2]
    assert goodputs == sorted(goodputs), goodputs
    assert goodput_gain < offered_gain, (goodput_gain, offered_gain)
    # ... and the cache carries a growing share of the repeated keys.
    assert rows[-1]["cache_hit_ratio"] > rows[0]["cache_hit_ratio"], rows


def test_service_backend_equivalence():
    rate = max(service_rates())
    serial = _serve_point(rate)
    sharded = _serve_point(
        rate, backend="sharded", shards=2, shard_mode="inline"
    )
    # Every service counter is an integer on simulated time, so the whole
    # SLO report — percentiles and ratios included — matches exactly.
    assert serial == sharded
    write_artifact(
        ARTIFACT,
        "backend_equivalence",
        {
            "rate": rate,
            "node_count": service_n(),
            "shards": 2,
            "serial": serial,
            "identical": True,
        },
    )
    print(
        f"\nservice equivalence N={service_n()} rate={rate:g}/s: "
        f"serial == sharded(2) on all {len(serial)} report fields"
    )
