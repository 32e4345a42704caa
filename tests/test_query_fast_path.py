"""The query-plane fast path: size memos and remote frontiers, the route
table, shared replay nodes built on read.

Each cache must be invisible except in how much work gets done: sizes equal
a from-scratch rendering, a frontier lists exactly the remote inputs, routes
equal a fresh search, replayed graphs equal the zero-cost oracle — and the
work counters at the bottom pin that the caches actually save what they
claim to.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.message as message_module
from repro.api import Network
from repro.engine.node_engine import EngineConfig
from repro.net.events import (
    EventScheduler,
    LinkDown,
    LinkUp,
    NodeCrash,
    NodeRecover,
    QueryTimeout,
)
from repro.net.kernel import SimulationKernel
from repro.net.message import (
    MESSAGE_HEADER_BYTES,
    QUERY_FLAG_BYTES,
    QueryClosureEntry,
    QueryRequest,
    QueryResponse,
)
from repro.net.stats import NetworkStats
from repro.net.topology import random_topology
from repro.net.transport import BinaryCodec
from repro.provenance.graph import DerivationGraph
from repro.provenance.log import ProvenancePointer
from repro.queries.best_path import compile_best_path
from repro.service import QueryWorkload

# -- (a) size memos ------------------------------------------------------------

#: Equal, hash-equal keys that render differently sit next to each other.
KEYS = [
    ("r", (1,)),
    ("r", (True,)),
    ("r", (1.0,)),
    ("r", (1.5, "n0")),
    ("path", ("n0", "n3", ("n0", "n1", "n3"), 7)),
    ("mixed", (("n0", 1, True), (2.0, ("x", "y")))),
    ("π", ("ü", ())),
]


def render(value) -> str:
    """The wire rendering, written out independently of ``_render_value``."""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return "[" + "|".join(render(element) for element in value) + "]"
    return str(value)


def key_bytes(key) -> int:
    relation, values = key
    return len((relation + "(" + ",".join(render(v) for v in values) + ")").encode())


def entry_bytes(entry) -> int:
    total = key_bytes(entry.key) + 1
    for pointer in entry.pointers:
        total += len(pointer.rule_label.encode()) + len(pointer.node.encode()) + 8
        for input_key, origin in pointer.inputs:
            total += key_bytes(input_key) + 1 + len((origin or "").encode())
    return total


def entry_for(key) -> QueryClosureEntry:
    pointer = ProvenancePointer(
        output=key,
        rule_label="r2",
        node="n1",
        inputs=tuple((k, origin) for k, origin in zip(KEYS, ("n2", None) * 4)),
        timestamp=3.5,
    )
    return QueryClosureEntry(key=key, node="n1", is_base=False, pointers=(pointer,))


def request_for(key) -> QueryRequest:
    return QueryRequest(
        source="n0", destination="n1", key=key, query_id=1, request_id=2
    )


def response_for(key, **fields) -> QueryResponse:
    return QueryResponse(
        source="n1",
        destination="n0",
        query_id=1,
        request_id=2,
        key=key,
        entries=(entry_for(key), QueryClosureEntry(key=KEYS[0], node="n1", is_base=True)),
        missing=(KEYS[1], KEYS[4]),
        **fields,
    )


def response_bytes(response) -> int:
    return (
        MESSAGE_HEADER_BYTES
        + QUERY_FLAG_BYTES
        + key_bytes(response.key)
        + sum(entry_bytes(entry) for entry in response.entries)
        + sum(key_bytes(key) for key in response.missing)
        + response.annotation_bytes
        + len(response.signature or b"")
    )


def wire_size(sized) -> int:
    if isinstance(sized, QueryClosureEntry):
        return sized.serialized_size()
    return sized.size_bytes()


class TestSizeMemos:
    @pytest.mark.parametrize("key", KEYS)
    def test_sizes_equal_a_from_scratch_rendering(self, key):
        entry, request, response = entry_for(key), request_for(key), response_for(key)
        for _ in range(2):  # the memoised read answers like the first
            assert entry.serialized_size() == entry_bytes(entry)
            assert request.size_bytes() == (
                MESSAGE_HEADER_BYTES + QUERY_FLAG_BYTES + key_bytes(key)
            )
            assert request.payload_bytes() == key_bytes(key)
            assert response.size_bytes() == response_bytes(response)
            assert response.payload_bytes() == (
                response_bytes(response) - MESSAGE_HEADER_BYTES
            )

    def test_equal_keys_keep_their_own_sizes(self):
        one, true = KEYS[0], KEYS[1]
        assert one == true and hash(one) == hash(true)
        # Interleaved on purpose: a table keyed by FactKey would hand the
        # second object the first one's size.
        sizes = [
            (request_for(key).size_bytes(), entry_for(key).serialized_size())
            for key in (one, true, one, true)
        ]
        assert sizes[0] == sizes[2] and sizes[1] == sizes[3]
        assert sizes[1][0] - sizes[0][0] == len("True") - len("1")
        assert sizes[1][1] - sizes[0][1] == len("True") - len("1")

    def test_replace_resizes_the_signed_response(self):
        plain = response_for(KEYS[4], annotation_bytes=11)
        unsigned_size = plain.size_bytes()
        signed = replace(plain, signature=b"s" * 16)
        assert signed.size_bytes() == response_bytes(signed) == unsigned_size + 16
        assert signed.security_bytes == 16 and signed.provenance_bytes == 11
        assert plain.size_bytes() == unsigned_size

    @pytest.mark.parametrize("key", KEYS)
    def test_frontier_lists_remote_inputs_with_their_sizes(self, key):
        entry = entry_for(key)
        expected = tuple(
            (k, origin, key_bytes(k))
            for k, origin in entry.pointers[0].inputs
            if origin and origin != entry.node
        )
        assert entry.frontier() == ((0, expected),)
        assert entry.frontier() is entry.frontier()
        assert QueryClosureEntry(key=key, node="n1", is_base=True).frontier() == ()
        # A known key size prices a request and its response exactly as a
        # rendering would.
        request = replace(request_for(key), key_bytes=key_bytes(key))
        assert request.size_bytes() == request_for(key).size_bytes()
        answer = replace(response_for(key), key_bytes=request.payload_bytes())
        assert answer.size_bytes() == response_bytes(answer)

    def test_memos_stay_out_of_equality_repr_and_pickles(self):
        sized, fresh = entry_for(KEYS[5]), entry_for(KEYS[5])
        sized.serialized_size()
        sized.replay()
        sized.frontier()
        assert sized == fresh and hash(sized) == hash(fresh)
        assert repr(sized) == repr(fresh)
        rendered = key_bytes(KEYS[5])
        known = replace(request_for(KEYS[5]), key_bytes=rendered)
        assert repr(known) == repr(request_for(KEYS[5]))
        for message in (sized, known, response_for(KEYS[5], key_bytes=rendered)):
            size = wire_size(message)
            state = message.__getstate__()
            for memo in ("_size_bytes", "_replay", "_frontier", "key_bytes"):
                assert memo not in state
            clone = pickle.loads(pickle.dumps(message))
            assert clone._size_bytes is None
            assert getattr(clone, "_frontier", None) is None
            assert getattr(clone, "key_bytes", None) is None
            assert wire_size(clone) == size

    @pytest.mark.parametrize("key", KEYS)
    def test_codec_round_trip_keeps_sizes(self, key):
        codec = BinaryCodec()
        known = key_bytes(key)
        sent = [
            replace(request_for(key), key_bytes=known),
            response_for(key, signature=b"\x01\x02", key_bytes=known),
        ]
        for message in sent:
            message.size_bytes()  # a filled memo must not leak into the frame
        frame = codec.encode_frame([(1.0, message) for message in sent])
        received = [message for _, message in codec.decode_frame(frame)]
        for before, after in zip(sent, received):
            assert after._size_bytes is None and after.key_bytes is None
            assert after.size_bytes() == before.size_bytes()
        assert received[1].entries == sent[1].entries


# -- (b) the route table -------------------------------------------------------

TOPOLOGY = random_topology(7, seed=2)
NODES = TOPOLOGY.nodes
DIRECTED = [(link.source, link.destination) for link in TOPOLOGY.links]

node_index = st.integers(0, len(NODES) - 1)
link_index = st.integers(0, len(DIRECTED) - 1)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("route"), node_index),
        st.tuples(st.just("down"), link_index),
        st.tuples(st.just("up"), link_index),
        st.tuples(st.just("crash"), node_index),
        st.tuples(st.just("recover"), node_index),
    ),
    max_size=30,
)


def _kernel() -> SimulationKernel:
    return SimulationKernel(TOPOLOGY, compile_best_path(), EngineConfig(), key_bits=128)


def _topology_event(kind, index, at):
    if kind in ("down", "up"):
        source, destination = DIRECTED[index]
        if kind == "down":
            return LinkDown(time=at, source=source, destination=destination, retract=False)
        return LinkUp(time=at, source=source, destination=destination)
    if kind == "crash":
        return NodeCrash(time=at, address=NODES[index])
    return NodeRecover(time=at, address=NODES[index], reinject=False)


@settings(max_examples=60, deadline=None)
@given(script=steps)
def test_cached_routes_equal_a_fresh_search(script):
    cached, twin = _kernel(), _kernel()
    for at, (kind, index) in enumerate([("route", 0)] + script, start=1):
        if kind == "route":
            # Every destination from one source, asked twice: the second
            # answer comes from the table — partitions (None) included.
            source = NODES[index]
            for destination in NODES:
                expected = twin._search_route(source, destination)
                assert cached.route_between(source, destination) == expected
                assert (source, destination) in cached._routes
                assert cached.route_between(source, destination) == expected
            continue
        for kernel in (cached, twin):
            kernel.schedule(_topology_event(kind, index, float(at)))
            kernel.run_until_idle()


def test_route_table_does_not_travel_with_the_kernel():
    network = Network.build(
        topology=TOPOLOGY, program="best-path", provenance="condensed", seed=2
    )
    network.run()
    kernel = network.simulator
    root = kernel.engines[NODES[0]].facts("bestPath")[0]
    assert not network.query(root, at=NODES[0]).missing
    network.serve(QueryWorkload(rate=50, duration=0.2, seed=2, pool=4), converge=False)
    assert kernel._routes and kernel._route_costs and kernel._root_draws
    state = kernel.__getstate__()
    for memo in ("_routes", "_route_costs", "_root_draws"):
        assert state[memo] == {}
    # A down set that changes forgets both route memos.
    kernel.schedule(
        LinkDown(time=kernel.current_time(), source=DIRECTED[0][0],
                 destination=DIRECTED[0][1], retract=False)
    )
    kernel.run_until_idle()
    assert kernel._routes == {} and kernel._route_costs == {}


# -- (c) shared replay nodes ---------------------------------------------------


def _roots(network, per_node=3):
    for address in network.topology.nodes:
        facts = sorted(
            network.node(address).facts("bestPath"), key=lambda f: repr(f.values)
        )
        for fact in facts[-per_node:]:
            yield address, fact


@pytest.mark.parametrize("capacity", (1, 64))
def test_cached_replay_matches_the_oracle_without_aliasing(capacity):
    network = Network.build(
        topology=8,
        program="best-path",
        provenance="condensed",
        query_cache=True,
        query_cache_entries=capacity,
        seed=5,
    )
    network.run()
    hits_before = network.stats.total("cache_hits")
    for address, root in _roots(network):
        oracle = network.legacy_traceback(root, at=address)
        first = network.query(root, at=address)
        second = network.query(root, at=address)
        for answer in (first, second):
            assert answer.complete
            assert answer.graph.same_structure(oracle.graph)
        # Same frozen nodes, separate containers: growing one answer's graph
        # must not show up in the other's.
        assert first.graph._tuples is not second.graph._tuples
        assert first.graph._operators is not second.graph._operators
        assert first.graph._producers is not second.graph._producers
        operators = len(second.graph._operators)
        first.graph.add_operator(first.graph.operators()[0])
        assert len(second.graph._operators) == operators
        assert second.graph.same_structure(oracle.graph)
    if capacity == 64:
        assert network.stats.total("cache_hits") > hits_before


# -- (d) the work budget -------------------------------------------------------

#: ``NetworkStats.node`` lookups and the event heap's high-water mark while
#: serving the budget workload below.
LOOKUPS = 1064
HEAP_HIGH_WATER = 261


def test_serving_pays_one_search_per_pair_and_one_render_per_entry(monkeypatch):
    """Deterministic counters where seconds cannot gate CI (ROADMAP item 1)."""
    network = Network.build(
        topology=12,
        program="best-path",
        provenance="condensed",
        query_cache=True,
        seed=4,
    )
    network.run()

    searches = []
    search = SimulationKernel._search_route

    def counted_search(self, source, destination):
        searches.append((source, destination))
        return search(self, source, destination)

    renders = []
    render_key = message_module.key_payload_bytes

    def counted_render(key):
        renders.append(key)
        return render_key(key)

    frontier_builds = []
    frontier = QueryClosureEntry.frontier

    def counted_frontier(self):
        if self._frontier is None:
            frontier_builds.append(id(self))
        return frontier(self)

    operators = []
    operator = ProvenancePointer.operator

    def counted_operator(self):
        operators.append(self)
        return operator(self)

    graphs = []
    new_graph = DerivationGraph.__init__

    def counted_graph(self):
        graphs.append(self)
        new_graph(self)

    costs = []
    route_cost = SimulationKernel._route_cost

    def counted_cost(self, source, destination):
        costs.append((source, destination))
        return route_cost(self, source, destination)

    lookups = []
    node_lookup = NetworkStats.node

    def counted_lookup(self, address):
        lookups.append(address)
        return node_lookup(self, address)

    heap_sizes, timeouts = [], []
    schedule = EventScheduler.schedule

    def counted_schedule(self, event, stamp=None):
        sequence = schedule(self, event, stamp)
        heap_sizes.append(len(self._heap))
        if type(event) is QueryTimeout:
            timeouts.append(event)
        return sequence

    requests = []
    ship = SimulationKernel.ship_routed

    def counted_ship(self, source, destination, message, send_time, node_stats):
        if type(message) is QueryRequest:
            requests.append(message)
        return ship(self, source, destination, message, send_time, node_stats)

    monkeypatch.setattr(SimulationKernel, "_search_route", counted_search)
    monkeypatch.setattr(message_module, "key_payload_bytes", counted_render)
    monkeypatch.setattr(QueryClosureEntry, "frontier", counted_frontier)
    monkeypatch.setattr(ProvenancePointer, "operator", counted_operator)
    monkeypatch.setattr(DerivationGraph, "__init__", counted_graph)
    monkeypatch.setattr(SimulationKernel, "_route_cost", counted_cost)
    monkeypatch.setattr(NetworkStats, "node", counted_lookup)
    monkeypatch.setattr(EventScheduler, "schedule", counted_schedule)
    monkeypatch.setattr(SimulationKernel, "ship_routed", counted_ship)

    workload = QueryWorkload(rate=100, duration=2.0, seed=4, pool=16)
    result = network.serve(workload, converge=False)
    assert result.offered == result.queries_completed == 200
    summary = result.stats.summary()
    messages = int(summary["query_messages"])
    assert messages == 652 and summary["messages_lost"] == 0

    # No topology event in the window: one search per pair, however many of
    # the 652 routed messages travel it, and one route cost per pair.
    assert len(searches) == len(set(searches)) == 88
    assert costs == searches

    # Statistics records: one per arrival, query and delivered message; no
    # CPU charge or bill resolves its own.
    assert len(lookups) == LOOKUPS

    # One timeout per request, every one of them answered and cancelled; a
    # cancelled timeout leaves the heap once cancellations dominate it, so
    # the heap stays below the 329 entries it reaches when every cancelled
    # timeout waits out its deadline there.
    assert len(timeouts) == len(requests) == 326 == messages // 2
    assert all(timeout.cancelled for timeout in timeouts)
    assert max(heap_sizes) == HEAP_HIGH_WATER

    # Nobody reads these queries' graphs, so none is built: no graph, and
    # no pointer turned into an operator node.
    assert graphs == [] and operators == []

    # No provenance epoch moved and nothing was evicted, so every merged
    # entry is a cached one, and each builds its remote frontier once.
    cached_entries = {
        id(entry): entry
        for cache in network.simulator._query_caches.values()
        for (entries, _missing, _annotation), _epoch, _at in cache._entries.values()
        for entry in entries
    }
    assert len(frontier_builds) == len(set(frontier_builds))
    assert set(frontier_builds) == {
        key for key, entry in cached_entries.items() if entry._frontier is not None
    }

    # Renders: each cached entry that ships sizes itself once — its key and
    # every pointer input (entries only ever expanded at the asker never
    # ship, hence never render) — and each frontier build renders the remote
    # inputs it lists.  Requests take their key's size from the frontier
    # and every response from its request: the 652 messages render nothing.
    sized = [e for e in cached_entries.values() if e._size_bytes is not None]
    entry_renders = sum(
        1 + sum(len(pointer.inputs) for pointer in entry.pointers) for entry in sized
    )
    frontier_renders = sum(
        len(remote)
        for entry in cached_entries.values()
        for _index, remote in entry._frontier or ()
    )
    assert result.stats.total("cache_hits") > 0
    assert (entry_renders, frontier_renders) == (1002, 419)
    assert len(renders) == entry_renders + frontier_renders == 1421
