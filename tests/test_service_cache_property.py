"""Property test: the query-result cache never serves a stale answer.

Hypothesis drives random scripts of dynamics — retracting link failures,
node crashes and recoveries, soft-state refresh rounds, quiet periods —
against two identically-seeded networks: one with the per-node query-result
cache armed (capacity drawn down as far as a single closure) and one
without any cache (the cold oracle).  After every script step, tracebacks
issued through the cached network — including back-to-back repeats that
are served from the memoized closure — must be structurally identical
(:meth:`DerivationGraph.same_structure`) to the oracle's cold walk of the
same root at the same point in the script: epoch invalidation, TTL expiry
and LRU eviction must never change an answer, only its price.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Network
from repro.net.events import LinkDown, NodeCrash, NodeRecover, SoftStateRefresh
from repro.net.topology import line_topology

NODES = 4
ADDRESSES = tuple(f"n{i}" for i in range(NODES))
LINKS = tuple((f"n{i}", f"n{i + 1}") for i in range(NODES - 1))

#: One scripted dynamic: (kind, operand index).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("retract_link"), st.integers(0, len(LINKS) - 1)),
        st.tuples(st.just("crash"), st.integers(1, NODES - 2)),
        st.tuples(st.just("recover"), st.integers(1, NODES - 2)),
        st.tuples(st.just("refresh"), st.just(0)),
        st.tuples(st.just("settle"), st.just(0)),
    ),
    min_size=0,
    max_size=5,
)


def _build(**overrides):
    return Network.build(
        topology=line_topology(NODES),
        program="best-path",
        provenance="condensed",
        **overrides,
    )


def _step(network, kind, index):
    now = network.current_time()
    if kind == "retract_link":
        source, destination = LINKS[index]
        network.schedule(
            LinkDown(
                time=now + 1.0,
                source=source,
                destination=destination,
                retract=True,
            )
        )
    elif kind == "crash":
        network.schedule(NodeCrash(time=now + 1.0, address=f"n{index}"))
    elif kind == "recover":
        network.schedule(
            NodeRecover(time=now + 1.0, address=f"n{index}", reinject=True)
        )
    elif kind == "refresh":
        network.schedule(SoftStateRefresh(time=now + 1.0))
    network.run_until_idle()


def _roots(network, down):
    """Up to two deterministic live roots whose asking node is up."""
    facts = [
        fact
        for fact in network.all_facts("bestPath")
        if str(fact.origin) not in down
    ]
    facts.sort(key=lambda fact: (fact.values, str(fact.origin)))
    return facts[:2]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=operations, capacity=st.sampled_from([1, 2, 256]))
def test_cached_tracebacks_match_cold_oracle(script, capacity):
    cached = _build(query_cache=True, query_cache_entries=capacity)
    oracle = _build()
    cached.run()
    oracle.run()

    down = set()
    checked = 0
    for kind, index in list(script) + [("settle", 0)]:
        if kind == "crash":
            down.add(f"n{index}")
        elif kind == "recover":
            down.discard(f"n{index}")
        _step(cached, kind, index)
        _step(oracle, kind, index)
        for root in _roots(oracle, down):
            cold = oracle.query(root, at=root.origin)
            # Twice back-to-back: the first probe may miss (filling the
            # memo), the second is served from it when the epoch held.
            first = cached.query(root, at=root.origin)
            second = cached.query(root, at=root.origin)
            assert first.graph.same_structure(cold.graph), (kind, root)
            assert second.graph.same_structure(cold.graph), (kind, root)
            checked += 1
    # The scripts must actually compare answers, or the property is vacuous.
    assert checked > 0
    # And the memo must actually serve: repeats with no intervening
    # mutation hit unless every probe was invalidated in between.
    assert cached.stats.total("cache_hits") > 0
