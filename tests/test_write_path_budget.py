"""The work budget of the write path: queue -> strand -> join -> table.

Best-Path, 12 nodes, seed 0, ``ndlog`` (no security, no provenance, hard
state), counted inside ``run()`` from outside ``src/``.  Two kinds of number:

* **work that must not move** — evaluations, probes, inserts and derived
  facts are exactly the commit-before-this-change's (``bench/`` counts the
  first three by code object: cheaper calls, never skipped ones);
* **glue that must stay gone** — calls that, on this traffic, return at
  their first line or resolve what is already resolved.

``tests/test_rule_compiler.py`` holds the same kind of budget for the rule
compiler at seed 3; this file is the write path's.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

import repro.engine.node_engine as node_engine_module
import repro.engine.tuples as tuples_module
from repro.api import Network
from repro.engine.database import Database
from repro.engine.node_engine import NodeEngine
from repro.engine.table import Table
from repro.engine.tuples import Fact

#: Measured when the engine began to find each firing once (a derived tuple
#: is stored when the delta queue reaches it); each is reproduced exactly
#: below.
DELTA_EVALS = 1454
TABLE_LOOKUPS = 891
TABLE_INSERTS = 927
FACTS_DERIVED = 891
RULE_FIRINGS = 1210
#: Measured before the rule compiler (list buckets, batch generator, three
#: planner memo dicts).
PARENT_TOTAL_CALLS = 95272
#: 0.68 x that; measured 58 596.
TOTAL_CALLS_BUDGET = 64500

RELATIONS = 5  # link, path_p2_mid_1, path, bestPathCost, bestPath
NODES = 12


def network():
    return Network.build(topology=NODES, program="best-path", provenance="ndlog", seed=0)


@pytest.fixture
def counts(monkeypatch):
    """Wrap the write path's doors; returns the live counters."""
    tally = {
        "evals": 0, "firings": 0, "lookups": 0, "inserts": 0,
        "expire": 0, "table": 0, "table_created": 0, "strands": 0,
        "handled": 0, "facts_in_firings": 0, "rendered": [],
    }
    evaluate = node_engine_module.evaluate_plan_with_delta
    bind = node_engine_module.bind_strand
    render = tuples_module._render_value
    lookup, insert, expire = Table.lookup, Table.insert, Table.expire
    table, handle, init = Database.table, NodeEngine._handle_firing, Fact.__init__
    in_firing = []

    def counted_evaluate(*args, **kwargs):
        firings = evaluate(*args, **kwargs)
        tally["evals"] += 1
        tally["firings"] += len(firings)
        return firings

    def counted_bind(*args, **kwargs):
        tally["strands"] += 1
        return bind(*args, **kwargs)

    def counted_render(value):
        tally["rendered"].append(type(value))
        return render(value)

    def counted_lookup(self, columns, values):
        tally["lookups"] += 1
        return lookup(self, columns, values)

    def counted_insert(self, fact, now=None):
        tally["inserts"] += 1
        return insert(self, fact, now=now)

    def counted_expire(self, now):
        tally["expire"] += 1
        return expire(self, now)

    def counted_table(self, relation, arity=None):
        tally["table"] += 1
        tally["table_created"] += relation not in self.by_name
        return table(self, relation, arity=arity)

    def counted_handle(self, *args):
        tally["handled"] += 1
        in_firing.append(True)
        try:
            return handle(self, *args)
        finally:
            in_firing.pop()

    def counted_init(self, *args, **kwargs):
        tally["facts_in_firings"] += bool(in_firing)
        init(self, *args, **kwargs)

    monkeypatch.setattr(node_engine_module, "evaluate_plan_with_delta", counted_evaluate)
    monkeypatch.setattr(node_engine_module, "bind_strand", counted_bind)
    monkeypatch.setattr(tuples_module, "_render_value", counted_render)
    monkeypatch.setattr(Table, "lookup", counted_lookup)
    monkeypatch.setattr(Table, "insert", counted_insert)
    monkeypatch.setattr(Table, "expire", counted_expire)
    monkeypatch.setattr(Database, "table", counted_table)
    monkeypatch.setattr(NodeEngine, "_handle_firing", counted_handle)
    monkeypatch.setattr(Fact, "__init__", counted_init)
    return tally


def test_the_parents_work_and_none_of_its_glue(counts):
    built = network()
    for key in counts:
        counts[key] = [] if key == "rendered" else 0  # inside run() only
    result = built.run()
    assert result.converged

    # Work: exactly the parent's.
    assert counts["evals"] == DELTA_EVALS
    assert counts["firings"] == counts["handled"] == RULE_FIRINGS
    assert counts["lookups"] == TABLE_LOOKUPS
    assert counts["inserts"] == TABLE_INSERTS
    assert result.summary()["facts_derived"] == FACTS_DERIVED

    # No table holds soft state, so nothing is ever asked to expire.
    tables = [t for e in built.engines.values() for t in e.database.tables()]
    assert tables and not any(table.has_soft_state for table in tables)
    assert counts["expire"] == 0

    # Tables are resolved when a strand is bound (or a relation first
    # stored), not per delta, per store or per probe.
    # (The aggregate head's table, bestPathCost, exists since construction.)
    assert counts["strands"] == NODES * RELATIONS
    assert counts["table_created"] == NODES * (RELATIONS - 1)
    assert counts["table"] - counts["table_created"] <= counts["strands"]
    assert counts["table"] == 84  # 48 created + 3 already-there probes a node

    # One Fact per firing that passes its aggregate; no metadata copy.
    assert counts["facts_in_firings"] == FACTS_DERIVED

    # Strings are joined, never rendered one by one.
    assert str not in counts["rendered"]
    assert set(counts["rendered"]) == {float, tuple}


def test_profiled_calls_stay_under_three_quarters_of_the_parents():
    built = network()
    profile = cProfile.Profile()
    profile.enable()
    result = built.run()
    profile.disable()
    assert result.converged
    total = pstats.Stats(profile).total_calls
    assert total <= TOTAL_CALLS_BUDGET < 0.76 * PARENT_TOTAL_CALLS + 1, total
