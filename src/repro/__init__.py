"""Provenance-aware Secure Networks — reproduction of Zhou, Cronin & Loo (ICDE 2008).

The package is organised as the paper is:

* :mod:`repro.datalog` — the NDlog / SeNDlog declarative networking language
  (parser, localization rewrite, analysis, compilation);
* :mod:`repro.engine` — the per-node evaluation engine (soft-state tables,
  semi-naive delta evaluation, aggregates);
* :mod:`repro.net` — the simulated distributed substrate (topologies,
  messages, discrete-event simulator, metrics);
* :mod:`repro.security` — principals, RSA signatures and the ``says``
  operator's authentication modes;
* :mod:`repro.provenance` — the paper's core contribution: semiring
  provenance, condensed (absorption-minimal) annotations, derivation
  graphs, local / distributed / online / offline / quantifiable provenance
  (authenticated provenance is signed where it is created, in
  :mod:`repro.security`);
* :mod:`repro.queries` — the NDlog programs used in the paper (reachability,
  Best-Path, path-vector, monitoring);
* :mod:`repro.usecases` — diagnostics, forensics, accountability and trust
  management built on provenance;
* :mod:`repro.service` — the query service plane: open- and closed-loop
  provenance query workloads, token-bucket admission control, the per-node
  result cache and latency-SLO accounting;
* :mod:`repro.harness` — the experiment harness regenerating Figures 3 and 4
  and the overhead tables of Section 6, and the dynamic-network scenario
  scripts; it builds every run through :mod:`repro.api`, which never
  imports it;
* :mod:`repro.api` — the first-class entry point: the :class:`~repro.api.Network`
  facade and in-network provenance queries.

Quickstart::

    from repro.api import Network

    network = Network.build(topology=10, program="best-path",
                            provenance="sendlog-prov")
    result = network.run()                      # -> RunResult
    print(result.completion_time_s, result.bandwidth_mb)

    # Provenance is network state: query it OVER the network.  The
    # traceback travels as request/response messages paying bytes and
    # latency, itemized as query_bytes / query_messages in the stats.
    route = result.all_facts("bestPath")[0]
    answer = network.query(route, at=route.origin)
    print(answer.complete, answer.messages, answer.bytes, answer.latency)

Every statistic is a counter declared once, as a field of
:class:`~repro.net.stats.NodeStats` (per node) or
:class:`~repro.net.stats.NetworkStats` (per run):
``network.stats.total("bytes_sent")`` reads any of them for the whole run,
and ``network.stats.summary()`` reports the public ones in one flat
dictionary — among them the security ledger of a signed run::

    summary = network.stats.summary()
    print(summary["signatures_created"],     # one per signed wire message
          summary["signatures_verified"],    # one per signed message received
          summary["facts_verified"],         # envelopes that verified, fresh
          summary["verification_failures"],  # envelopes refused
          summary["facts_rejected"])         # received tuples refused

``Network.build`` is the one way to build a run.  Its ``provenance`` preset
names the configuration — the paper's ``"ndlog"``, ``"sendlog"`` and
``"sendlog-prov"``, plus ``"condensed"`` / ``"distributed"`` /
``"sendlog-distributed"`` — and every other knob is a field of a validated
:class:`~repro.api.NetOptions`, passed as a record or as keywords.
Programs are statically analyzed on the way in: ``Network.build(...,
lint="error")`` (the default) rejects
programs with error-severity diagnostics — unsafe rules, arity or type
conflicts, unverifiable ``says`` imports — while ``lint="warn"`` surfaces
everything as Python warnings and ``lint="off"`` opts out.  The same
analyzer runs standalone as ``python -m repro.datalog.lint prog.ndlog
[--format=json]`` (see the code table in ROADMAP.md).  Dynamic-network scenario scripts return
``(Scenario, Network)`` pairs — see :mod:`repro.harness.scenarios` — and
``network.query(..., mode="offline")`` walks the persistent provenance
archives that survive node crashes.

Each archive (:mod:`repro.provenance.store`) is a bounded hot tier over an
append-only per-node log; naming a ``spill_dir`` moves the log from process
memory to files there::

    network = Network.build(topology=10, program="best-path",
                            provenance="condensed",
                            keep_offline_provenance=True,
                            hot_tier_entries=256,
                            spill_dir="spill")
    network.run()
    print(network.stats.summary()["provenance_bytes_resident"],
          network.stats.summary()["provenance_bytes_spilled"])

Derivations evicted from the hot tier are fetched back from the log
transparently (counted as ``spill_reads``); offline forensics give the same
answers for any capacity.

Beyond one-shot tracebacks, the network runs as an always-on **query
service**: a :class:`~repro.service.workload.QueryWorkload` describes
sustained load (open-loop Poisson arrivals at ``rate`` queries/s, or
``clients`` closed-loop clients with think time), and
:meth:`~repro.api.Network.serve` converges the network, serves the window
and reports service levels::

    from repro.api import Network, NetOptions
    from repro.service.workload import QueryWorkload

    network = Network.build(topology=10, program="best-path",
                            provenance="condensed",
                            options=NetOptions(query_cache=True,
                                               admission_rate=1.0,
                                               admission_burst=8.0))
    result = network.serve(QueryWorkload(rate=5.0, duration=10.0, seed=7))
    report = result.service()
    print(report.goodput, report.rejection_rate,
          report.p95_ms, report.cache_hit_ratio)

Admission is a per-node token bucket on simulated time that sheds each
arrival it denies; the result cache memoizes provenance closures per node
and is invalidated by epoch on any provenance mutation, so a cached answer
is always structurally identical to a cold walk.  All service counters are
integers on simulated time and therefore byte-identical across execution
backends.

Execution backends: large runs can be partitioned across parallel
per-shard kernels with ``backend="sharded"``::

    network = Network.build(topology=500, program="best-path",
                            provenance="ndlog",
                            backend="sharded", shards=4)
    result = network.run()   # identical facts and integer/byte stats

The sharded backend is *deterministically equivalent* to the serial one —
same derived facts, same message sequence numbers, same integer/byte
statistics, for any shard count and either worker mode (``shard_mode=
"processes"`` for worker processes forked from the coordinator,
``"inline"`` for in-process debugging) — so it is purely a wall-clock
choice.

Shards synchronize at conservative lockstep barriers (one window per
minimum cross-shard link latency) and exchange deterministic frames — one
pickle per command or reply — with the coordinator; the **coordination
ledger** in ``stats.summary()`` records what that cost (process plumbing,
not the simulated wire)::

    summary = network.stats.summary()
    print(summary["coordination_rounds"],    # coordinator round-trips
          summary["coordination_bytes"],     # frame bytes both ways
          summary["windows_executed"])       # window grants issued

Dynamic networks repair at computation speed, not timeout speed.  Base
tuples carry **base-support polynomials**: retracting one (or failing a
link with ``retract=True``) runs DRed's over-deletion *and* the
rederivation phase in a single distributed fixpoint — tuples with a
surviving alternative derivation are kept (counted as ``rederivations``),
dead remote copies are chased with ranked **anti-delta** messages — so a
retraction converges in link-latency time instead of a TTL of soft-state
decay and the next refresh round.  Off by default; enable with
``rederivation=True``.  Soft state is kept alive by refresh rounds the
driving code schedules: a :class:`~repro.net.events.SoftStateRefresh` has
every live node re-assert its remembered base tuples::

    from repro.net.events import SoftStateRefresh

    network = Network.build(topology=10, program="best-path",
                            provenance="ndlog",
                            options=NetOptions(rederivation=True,
                                               default_ttl=30.0))
    network.run()
    network.schedule(SoftStateRefresh(time=40.0))   # after the TTL: rebuild
    network.run_until_idle()
    summary = network.stats.summary()
    print(summary["rederivations"],          # tuples saved by alternatives
          summary["anti_delta_messages"],    # deletion-repair messages
          summary["anti_delta_bytes"],
          summary["refresh_messages"],       # what the refresh round shipped
          summary["refresh_bytes"],
          summary["timer_events"])           # nodes that re-asserted

A round before the TTL only re-stamps each base tuple at its owner and
ships nothing; one after it re-derives and re-ships what decayed.  All six
counters are integers on simulated time and part of the serial-vs-sharded
byte-identical contract;
``benchmarks/test_dynamics.py`` (``make dynamics-smoke``) measures the
one-fixpoint-vs-decay convergence gap into ``BENCH_dynamics.json``, and
``examples/churn_repair.py`` walks the whole story.
"""

__version__ = "1.0.0"

__all__ = [
    "api",
    "datalog",
    "engine",
    "harness",
    "net",
    "provenance",
    "queries",
    "security",
    "usecases",
]
