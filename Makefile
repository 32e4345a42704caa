# Local verification targets.
#
#   make check       - tier-1 unit/integration tests plus a fast benchmark
#                      smoke run (small node counts), catching functional and
#                      benchmark-harness regressions in a couple of minutes.
#   make tier1       - the exact tier-1 command from ROADMAP.md: tests/ plus
#                      benchmarks/ at their default sizes — the three scale
#                      benchmarks at their smoke size (N=24), so under two
#                      minutes.  `REPRO_SCALE_FULL=1 make tier1` adds the
#                      N=200 scaling / shard points, the N=48 churn-memory
#                      run and the signed grid combos (~9 more minutes).
#   make test        - unit/integration tests only (fastest loop).
#   make bench-smoke - the full benchmark suite at smoke sizes.
#   make scenarios-smoke - small-N run of every dynamic-network scenario
#                      script (link failure, churn, retraction); fails if
#                      any phase misses its distributed fixpoint.
#   make shard-smoke - the sharded execution backend end-to-end at small N:
#                      the serial-vs-sharded scaling benchmark (equivalence
#                      asserted, speedup and coordination ledger reported),
#                      plus shard-scenarios: every scenario script on sharded
#                      workers — in worker processes forked from the
#                      coordinator, and inline at three shards.
#   make examples-smoke - run every examples/*.py end-to-end (small N),
#                      failing on the first nonzero exit; keeps the facade
#                      documentation executable.
#   make service-smoke - the query-service-plane benchmark at small sizes:
#                      an open-loop saturation ladder with admission control
#                      and the result cache armed (rejection/p95 monotone,
#                      goodput plateau asserted), plus serial-vs-sharded
#                      SLO-report equality at the most saturated point.
#   make memory-smoke - the provenance-memory benchmark at small N: an
#                      unbounded archive (hot tier larger than the run, log
#                      in memory) against a bounded one (256 hot entries over
#                      a log file); asserts the bounded resident gauge stays
#                      flat under churn and that retracted-route tracebacks
#                      answer through spill reads.  The log files live under
#                      pytest's tmpdir, so the run is hermetic.
#   make dynamics-smoke - the churn-convergence benchmark: one-fixpoint
#                      deletion vs the soft-state decay baseline on a
#                      bridge retraction (>=5x simulated-time improvement
#                      asserted) and serial-vs-sharded byte-identity of
#                      the six churn-plane counters at 2 and 4 shards;
#                      writes BENCH_dynamics.json.  Plus dynamics-scenarios:
#                      the retraction script, serial and inline-sharded.
#   make spine-smoke - the measurement spine (bench/run.py, the command
#                      BENCHMARK.json names) at smoke sizes: all five
#                      workloads, tracer, layer fold, expected-output checks
#                      and the process-hygiene guard, in about 7 s.
#   make poly-census - tools/poly_census.py on the churn_linkflap shape (N=20,
#                      every redundant link flapped): calls, operand shapes,
#                      identity share and distinct operands of the provenance
#                      algebra's +, x and condense.  `make check` runs it at
#                      N=8 / two flaps as a smoke, plus `--shipped` on an N=8
#                      sendlog-prov fixpoint: shipped annotations by wire form
#                      (position mask vs explicit polynomial) and their bytes,
#                      and on the N=8 churn shape: shipped supports by wire form
#                      (support code vs explicit) and code arguments by form;
#                      and `--resident` on an N=8 sendlog-prov fixpoint: what
#                      each node's provenance keeps (annotation, pair and key
#                      objects against distinct values, firing lists), exiting
#                      1 when any object repeats another's value.
#   make engine-census - tools/engine_census.py on the bestpath_ndlog shape
#                      (N=40): rule firings found twice in one round (it
#                      exits 1 unless that is 0), runs of same-relation deltas, the no-op share
#                      of Table.expire / Database.table, index-bucket length at
#                      each replace / remove, render calls by value type,
#                      Fact constructions per firing and per admitted tuple
#                      (it exits 1 when either is above one); under a signed
#                      preset, tuples per signed wire message, signs and
#                      verifies per message, Merkle hashes.  `make check`
#                      runs it at N=8 as a smoke (ndlog, condensed churn and
#                      sendlog-prov legs).
#   make query-census - tools/query_census.py on the query_service shape (N=30,
#                      25 sim-s at 100 queries/s, result cache on): per
#                      completed query, messages, closure lookups, entries
#                      merged vs skipped, key renders, graph nodes built,
#                      QueryTimeouts, NetworkStats.node lookups, the event
#                      heap's high-water mark, cancelled entries rebuilt away
#                      and route costs computed.  `make
#                      check` runs it at N=12 / 2 sim-s as a smoke.
#   make reach-census-smoke - tools/reach_census.py: runs every example,
#                      the experiment sweep at N=10,20, the scenario scripts,
#                      the lint CLI and the five benchmark workloads at smoke
#                      size in one process under a profile hook, and lists
#                      each function under src/repro that none of them
#                      entered.  Fails when the unreached body lines exceed
#                      the CEILING committed in the tool (a ratchet: a change
#                      that deletes unreached code lowers it).
#   make lint        - static analysis: the NDlog program linter over every
#                      in-tree program (warnings fail the build), the
#                      determinism-invariant checker over src/repro, and —
#                      when installed — ruff over src/.
#   make ci          - what the GitHub Actions workflow runs after its own
#                      spine-smoke step: the lint suite, tier-1 tests, the
#                      scenario, shard-scenario, examples, service and
#                      dynamics-scenario runs, the three census smokes (the
#                      census tools patch internals by name, so a rename
#                      fails here rather than at the next census), the
#                      unreached-code ratchet, and a bytecode compile of the
#                      whole source tree.  Each benchmark file runs once:
#                      tier-1 already collects all of benchmarks/ at sizes
#                      that contain every smoke size, so the pytest lines of
#                      bench-, memory-, shard- and dynamics-smoke (which
#                      `make check` keeps) are not repeated here.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check tier1 test bench-smoke scenarios-smoke shard-smoke shard-scenarios examples-smoke service-smoke memory-smoke dynamics-smoke dynamics-scenarios spine-smoke poly-census poly-census-smoke engine-census engine-census-smoke query-census query-census-smoke reach-census-smoke lint compileall ci

check: lint test bench-smoke scenarios-smoke shard-smoke examples-smoke service-smoke memory-smoke dynamics-smoke spine-smoke poly-census-smoke engine-census-smoke query-census-smoke reach-census-smoke

tier1:
	$(PYTHON) -m pytest -x -q

test:
	$(PYTHON) -m pytest -x -q tests

bench-smoke:
	REPRO_BENCH_SIZES=10 REPRO_SCALE_N=24 \
		$(PYTHON) -m pytest -x -q benchmarks

scenarios-smoke:
	$(PYTHON) -m repro.harness.scenarios all --nodes 8

shard-smoke: shard-scenarios
	REPRO_SCALE_N=24 REPRO_SHARD_ASSERT=0 \
		$(PYTHON) -m pytest -x -q benchmarks/test_shard_scaling.py

shard-scenarios:
	$(PYTHON) -m repro.harness.scenarios all --nodes 8 \
		--backend sharded --shards 2 --shard-mode processes
	$(PYTHON) -m repro.harness.scenarios all --nodes 8 \
		--backend sharded --shards 3 --shard-mode inline

examples-smoke:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example > /dev/null; \
	done

service-smoke:
	REPRO_SERVICE_RATES=2,6,18 REPRO_SERVICE_N=8 REPRO_SERVICE_DURATION=6 \
		$(PYTHON) -m pytest -x -q benchmarks/test_query_service.py
	$(PYTHON) -m repro.harness.scenarios link-failure --nodes 8 \
		--query-rate 3 --clients 1 --admission 2

memory-smoke:
	REPRO_BENCH_SIZES=10 REPRO_SCALE_N=24 REPRO_BENCH_CHURN_ROUNDS=3 \
		$(PYTHON) -m pytest -x -q benchmarks/test_provenance_memory.py

dynamics-smoke: dynamics-scenarios
	$(PYTHON) -m pytest -x -q benchmarks/test_dynamics.py

dynamics-scenarios:
	$(PYTHON) -m repro.harness.scenarios retraction --nodes 8
	$(PYTHON) -m repro.harness.scenarios retraction --nodes 8 \
		--backend sharded --shards 2 --shard-mode inline

spine-smoke:
	$(PYTHON) bench/run.py --smoke

poly-census:
	$(PYTHON) tools/poly_census.py --provenance condensed --nodes 20 --flaps 0

poly-census-smoke:
	$(PYTHON) tools/poly_census.py --provenance condensed --nodes 8 --flaps 2
	$(PYTHON) tools/poly_census.py --resident --provenance sendlog-prov --nodes 8
	$(PYTHON) tools/poly_census.py --shipped --provenance sendlog-prov --nodes 8
	$(PYTHON) tools/poly_census.py --shipped --provenance condensed --nodes 8 --flaps 2

engine-census:
	$(PYTHON) tools/engine_census.py --provenance ndlog --nodes 40

engine-census-smoke:
	$(PYTHON) tools/engine_census.py --provenance ndlog --nodes 8
	$(PYTHON) tools/engine_census.py --provenance condensed --nodes 8 --flaps 2
	$(PYTHON) tools/engine_census.py --provenance sendlog-prov --nodes 8

query-census:
	$(PYTHON) tools/query_census.py --nodes 30 --seconds 25

query-census-smoke:
	$(PYTHON) tools/query_census.py --nodes 12 --seconds 2
	$(PYTHON) tools/query_census.py --nodes 8 --seconds 2 --no-cache --read

reach-census-smoke:
	$(PYTHON) tools/reach_census.py

lint:
	$(PYTHON) -m repro.datalog.lint --builtin --strict
	$(PYTHON) tools/check_invariants.py
	@if command -v ruff > /dev/null 2>&1; then \
		echo "== ruff"; ruff check src; \
	else \
		echo "ruff not installed; skipping style check"; \
	fi

compileall:
	$(PYTHON) -m compileall -q src

ci: lint tier1 scenarios-smoke shard-scenarios examples-smoke service-smoke dynamics-scenarios poly-census-smoke engine-census-smoke query-census-smoke reach-census-smoke compileall
