"""The querier's merge log against the eager merge it replaced.

``PendingQuery`` records what arrived and builds its graph on read; the
reference (``tests/reference_query.py``) grows a live graph as entries
arrive.  Both must agree exactly — tuple-dict order, operator order,
producers — and so must every message, byte, instant and request id, under
caching, offline queries, condensed and authenticated answers, lost
messages (a link going down mid-query) and both backends.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_query import install_reference
from repro.api import Network
from repro.net.events import LinkDown
from repro.net.message import QueryClosureEntry
from repro.net.query import PendingQuery, ProvenanceQuery
from repro.provenance.log import ProvenancePointer


def kernels(simulator):
    return getattr(simulator, "_kernels", None) or (simulator,)


def hosting(simulator, address):
    return next(kernel for kernel in kernels(simulator) if kernel.hosts(address))


def record_shipping(simulator) -> list:
    """Every query-plane message any kernel ships, in shipping order."""
    shipped = []
    for kernel in kernels(simulator):
        engine = kernel.queries

        def recording(query_id, source, message, send_time, ship=engine._ship):
            shipped.append(
                (
                    type(message).__name__,
                    query_id,
                    message.request_id,
                    message.source,
                    message.destination,
                    getattr(message, "key", None),  # a response names no key
                    message.size_bytes(),
                    send_time,
                )
            )
            ship(query_id, source, message, send_time)

        engine._ship = recording
    return shipped


def shape(graph, pending: PendingQuery) -> tuple:
    """Everything a query answer is made of, orders included."""
    return (
        list(graph._tuples.items()),
        list(graph._operators),
        list(graph._producers.items()),
        tuple(pending.missing),
        tuple(pending.nodes_visited),
        pending.remote_lookups,
        pending.messages,
        pending.bytes,
        pending.timeouts,
        pending.completed_at,
        pending.done,
    )


def graph_of(network, pending: PendingQuery, reference: bool):
    if not reference:
        return pending.graph
    return hosting(network.simulator, pending.query.at).queries.graphs[pending.query_id]


def build(params: dict) -> Network:
    cache = params["cache"]
    sharded = params["sharded"]
    network = Network.build(
        topology=params["nodes"],
        program="best-path",
        provenance="condensed",
        seed=params["seed"],
        key_bits=128,
        query_cache=cache is not None,
        query_cache_entries=cache or 256,
        keep_offline_provenance=params["mode"] == "offline" or None,
        backend="sharded" if sharded else "serial",
        shards=2 if sharded else 0,
        shard_mode="inline",
    )
    network.run()
    return network


def play(params: dict, reference: bool):
    network = build(params)
    if reference:
        install_reference(network.simulator)
    shipped = record_shipping(network.simulator)
    now = network.simulator.current_time()
    pendings = []
    for address in network.topology.nodes:
        facts = sorted(
            network.node(address).facts("bestPath"), key=lambda fact: repr(fact.values)
        )
        for fact in facts[params["offset"] :: 3]:
            query = ProvenanceQuery(
                root=fact.key(),
                at=address,
                mode=params["mode"],
                condensed=params["condensed"],
                authenticated=params["authenticated"],
            )
            pendings.append(network.issue_query(query, now=now))
    if params["link_down"] is not None:
        # Every link of one node goes down mid-query: query traffic routes
        # around a single dead link, so only a partition loses messages
        # (and makes requests time out).
        index, delay = params["link_down"]
        nodes = network.topology.nodes
        cut = nodes[index % len(nodes)]
        for link in network.topology.links:
            if cut in (link.source, link.destination):
                network.schedule(
                    LinkDown(
                        time=now + delay,
                        source=link.source,
                        destination=link.destination,
                        retract=False,
                    )
                )
    network.run_until_idle()
    answers = [shape(graph_of(network, p, reference), p) for p in pendings]
    return network, pendings, answers, shipped


scenarios = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 40),
        "nodes": st.integers(4, 8),
        "cache": st.sampled_from([None, 1, 64]),
        "mode": st.sampled_from(["online", "offline"]),
        "condensed": st.booleans(),
        "authenticated": st.booleans(),
        "sharded": st.booleans(),
        "offset": st.integers(0, 2),
        "link_down": st.none() | st.tuples(st.integers(0, 60), st.sampled_from([0.0005, 0.002, 0.01])),
    }
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=scenarios)
def test_the_merge_log_replays_the_eager_graph_exactly(params):
    network, pendings, answers, shipped = play(params, reference=False)
    _, _, expected, expected_shipped = play(params, reference=True)
    assert len(answers) == len(expected)
    for answer, want in zip(answers, expected):
        assert answer == want
    assert shipped == expected_shipped
    if params["link_down"] is None and params["mode"] == "online":
        for pending in pendings:
            oracle = network.legacy_traceback(pending.query.root, at=pending.query.at)
            assert pending.graph.same_structure(oracle.graph)


# -- the mid-entry split ------------------------------------------------------


def _split_probe(network, engine):
    """Merge one synthetic entry from n1 whose first and third pointers lead
    back to the asker n0, each into a derived key n0 expands with operators
    of its own — the order only a split log item reproduces."""
    derived = sorted(
        (
            fact
            for fact in network.node("n0").facts("bestPath")
            if len(fact.values[2]) > 2
        ),
        key=lambda fact: repr(fact.values),
    )
    assert len(derived) >= 2
    first, second = derived[0].key(), derived[1].key()
    output = ("probe", ("x",))

    def pointer(label, *inputs):
        return ProvenancePointer(output=output, rule_label=label, node="n1", inputs=inputs)

    entry = QueryClosureEntry(
        key=output,
        node="n1",
        is_base=False,
        pointers=(
            pointer("s0", (first, "n0")),
            pointer("s1", (("probe", ("m",)), None)),
            pointer("s2", (("probe", ("k",)), "n1"), (second, "n0")),
            pointer("s3", (first, None)),
        ),
    )
    now = network.simulator.current_time()
    engine._next_query_id += 1
    pending = PendingQuery(
        query_id=engine._next_query_id,
        query=ProvenanceQuery(root=output, at="n0"),
        issued_at=now,
        stats=network.stats.node("n0"),
    )
    engine._queries[pending.query_id] = pending
    engine._merge_closure(pending, "n1", (entry,), (), now)
    network.run_until_idle()
    return pending, entry


def test_a_pointer_leading_home_mid_entry_splits_the_log_item():
    params = {"nodes": 6, "seed": 1, "cache": None, "mode": "online", "sharded": False}
    logged, reference = build(params), build(params)
    install_reference(reference.simulator)
    pending, entry = _split_probe(logged, logged.simulator.queries)
    expected, _ = _split_probe(reference, reference.simulator.queries)
    want = reference.simulator.queries.graphs[expected.query_id]

    assert shape(pending.graph, pending) == shape(want, expected)
    # The home expansions' operators sit between the probe's own...
    labels = [operator.rule_label for operator in want._operators]
    s0, s1, s3 = labels.index("s0"), labels.index("s1"), labels.index("s3")
    assert s1 - s0 > 1 and s3 - labels.index("s2") > 1
    # ... because the entry's log item was cut after each of them.
    pieces = [item for item in pending.merged if type(item) is tuple and len(item) == 3]
    assert pieces == [(entry, 0, 1), (entry, 1, 3), (entry, 3, None)]


# -- snapshots ----------------------------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "sharded"])
def test_a_result_taken_mid_query_stays_partial(backend):
    network = Network.build(
        topology=12,
        program="best-path",
        provenance="condensed",
        seed=4,
        backend=backend,
        shards=2 if backend == "sharded" else 0,
        shard_mode="inline",
    )
    network.run()
    root = ("bestPath", ("n0", "n5", ("n0", "n7", "n8", "n5"), 12.0))
    pending = network.issue_query(ProvenanceQuery(root=root, at="n0"))
    assert pending.outstanding
    early = pending.result()
    assert len(early.graph) == 5 and early.missing == ()
    network.run_until_idle()
    final = pending.result()
    assert final.complete and len(final.graph) == 25
    assert len(early.graph) == 5  # the snapshot did not grow with the query
    assert final.graph is not pending.result().graph
    oracle = network.legacy_traceback(root, at="n0")
    assert final.graph.same_structure(oracle.graph)
