"""In-network provenance queries: wire costs, oracle equality, dynamics.

The acceptance bar for the query subsystem:

* queries execute via EventScheduler events with per-message byte/latency
  costs, itemized as ``query_bytes`` / ``query_messages``;
* on static topologies the reconstructed graph is structurally identical to
  the legacy zero-cost ``traceback()`` oracle;
* under dynamics (crashed nodes, downed links) queries return
  ``complete=False`` with the missing keys instead of hanging;
* identical runs produce identical query statistics.
"""

from __future__ import annotations

import dataclasses

import pytest

from reference_stores import fire

from repro.api import Network
from repro.engine.tuples import Fact
from repro.net.events import LinkDown, NodeCrash, NodeRecover
from repro.net.message import (
    RECORD_BASE,
    RECORD_DERIVED,
    QueryClosure,
    QueryRequest,
    QueryResponse,
)
from repro.net.query import ProvenanceQuery
from repro.net.topology import line_topology, random_topology
from repro.provenance.distributed import traceback
from repro.provenance.log import DerivationLog


def build_network(topology=None, provenance="condensed", **overrides):
    overrides.setdefault("keep_offline_provenance", True)
    return Network.build(
        topology=topology if topology is not None else line_topology(5),
        program="best-path",
        provenance=provenance,
        **overrides,
    )


def longest_best_path(network, source):
    return max(
        network.node(source).facts("bestPath"), key=lambda f: len(f.values[2])
    )


class TestStaticQueries:
    @pytest.fixture(scope="class")
    def converged(self):
        network = build_network()
        network.run()
        return network

    def test_matches_zero_cost_oracle(self, converged):
        network = converged
        target = longest_best_path(network, "n0")
        oracle = network.legacy_traceback(target, at="n0")
        answer = network.query(target, at="n0")
        assert answer.complete and oracle.complete
        assert answer.graph.same_structure(oracle.graph)
        assert set(answer.nodes_visited) == set(oracle.nodes_visited)
        assert not answer.missing

    def test_every_dereference_is_a_request_response_pair(self, converged):
        network = converged
        target = longest_best_path(network, "n0")
        answer = network.query(target, at="n0")
        assert answer.remote_lookups > 0
        assert answer.messages == 2 * answer.remote_lookups
        assert answer.bytes > 0
        assert answer.latency > 0

    def test_base_fact_resolves_locally_for_free(self, converged):
        network = converged
        link = network.node("n0").facts("link")[0]
        answer = network.query(link, at="n0")
        assert answer.complete
        assert answer.messages == 0 and answer.bytes == 0
        assert answer.graph.is_base(link.key())

    def test_query_traffic_is_itemized_and_charged(self):
        network = build_network()
        network.run()
        before = network.stats.summary()
        assert before["query_bytes"] == 0 and before["query_messages"] == 0
        target = longest_best_path(network, "n0")
        answer = network.query(target, at="n0")
        after = network.stats.summary()
        assert after["query_messages"] == answer.messages
        assert after["query_bytes"] == answer.bytes
        assert after["queries_issued"] == 1
        # Query traffic is real traffic: the bandwidth total includes it.
        assert after["total_bytes"] == before["total_bytes"] + answer.bytes
        assert after["total_messages"] == before["total_messages"] + answer.messages
        # ... and every byte (requests AND responses) is billed to the asker.
        assert network.stats.node("n0").query_bytes_charged == answer.bytes
        assert after["total_bytes"] - after["query_bytes"] == before["total_bytes"]

    def test_request_bytes_attributed_to_sender_side(self):
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        answer = network.query(target, at="n0")
        per_node = network.stats.nodes
        # The querier ships the requests; responders ship the responses.
        assert per_node["n0"].query_messages_sent == answer.remote_lookups
        responders = sum(
            stats.query_messages_sent
            for address, stats in per_node.items()
            if address != "n0"
        )
        assert responders == answer.remote_lookups

    def test_condensed_annotations_cost_extra_bytes(self, converged):
        network = converged
        target = longest_best_path(network, "n2")
        plain = network.query(target, at="n2")
        rich = network.query(target, at="n2", condensed=True)
        assert rich.condensed is not None
        # Real principals, not the identity fallback for unknown keys.
        assert rich.condensed.variables() <= set(network.topology.nodes)
        assert rich.bytes > plain.bytes
        # Every wire-fetched annotation names real principals too, and the
        # shipped annotation bytes land in the provenance attribution.
        assert rich.annotations
        for annotation in rich.annotations.values():
            assert annotation.variables() <= set(network.topology.nodes)

    def test_condensed_query_for_a_foreign_fact_does_not_fabricate(self):
        """A querier that holds neither the fact nor its provenance must not
        report the identity-fallback pseudo-annotation as provenance."""
        network = build_network()
        network.run()
        foreign = longest_best_path(network, "n3")
        answer = network.query(foreign, at="n0", condensed=True)
        assert not answer.complete
        assert answer.condensed is None

    def test_condensed_bytes_are_attributed_to_provenance(self):
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        before = network.stats.total("provenance_bytes_sent")
        network.query(target, at="n0", condensed=True)
        assert network.stats.total("provenance_bytes_sent") > before

    def test_authenticated_responses_are_signed_and_verified(self, converged):
        network = converged
        target = longest_best_path(network, "n1")
        plain = network.query(target, at="n1")
        signed = network.query(target, at="n1", authenticated=True)
        assert signed.complete
        assert signed.responses_verified == signed.remote_lookups
        assert signed.verification_failures == 0
        assert signed.bytes > plain.bytes

    def test_signature_bytes_are_attributed_to_security(self):
        # The "condensed" preset never signs data traffic, so any security
        # bytes on the books come from the authenticated query plane.
        network = build_network()
        network.run()
        assert network.stats.total("security_bytes_sent") == 0
        target = longest_best_path(network, "n0")
        network.query(target, at="n0", authenticated=True)
        assert network.stats.total("security_bytes_sent") > 0

    def test_answered_timeouts_do_not_burn_the_event_budget(self):
        """Each request schedules a timeout; once its response arrives the
        timeout is cancelled and must neither fire nor count as a processed
        event — a successful query costs exactly one delivery per message."""
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        before = network.simulator._events_processed
        answer = network.query(target, at="n0")
        assert answer.complete
        assert network.simulator._events_processed - before == answer.messages
        assert len(network.scheduler) == 0

    def test_offline_mode_matches_online_on_static_topology(self, converged):
        network = converged
        target = longest_best_path(network, "n0")
        online = network.query(target, at="n0")
        offline = network.query(target, at="n0", mode="offline")
        assert offline.complete
        assert offline.graph.same_structure(online.graph)


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ProvenanceQuery(root=("x", ()), at="n0", mode="psychic")

    def test_query_at_unknown_node(self):
        network = build_network()
        network.run()
        with pytest.raises(ValueError, match="unknown node"):
            network.query(("bestPath", ("n0", "n1")), at="nope")

    def test_query_at_crashed_node(self):
        network = build_network()
        network.run()
        network.schedule(NodeCrash(time=network.current_time() + 1.0, address="n0"))
        network.run_until_idle()
        with pytest.raises(RuntimeError, match="crashed"):
            network.query(("bestPath", ("n0", "n1")), at="n0")

    def test_online_query_needs_provenance(self):
        network = Network.build(topology=line_topology(3), provenance="ndlog")
        network.run()
        with pytest.raises(ValueError, match="provenance"):
            network.query(("bestPath", ("n0", "n1")), at="n0")

    def test_offline_query_needs_archives(self):
        network = Network.build(topology=line_topology(3), provenance="condensed")
        network.run()
        with pytest.raises(ValueError, match="keep_offline_provenance"):
            network.query(("bestPath", ("n0", "n1")), at="n0", mode="offline")

    def test_offline_query_needs_maintained_provenance(self):
        """keep_offline_provenance under a no-provenance preset archives
        nothing — the query must fail loudly, not report empty results."""
        network = Network.build(
            topology=line_topology(3),
            provenance="ndlog",
            keep_offline_provenance=True,
        )
        network.run()
        with pytest.raises(ValueError, match="provenance"):
            network.query(("bestPath", ("n0", "n1")), at="n0", mode="offline")

    def test_bare_key_needs_at(self):
        network = build_network()
        network.run()
        with pytest.raises(ValueError, match="at="):
            network.query(("bestPath", ("n0", "n4")))


class TestQueriesUnderDynamics:
    def crash_and_query(self):
        """Converge, crash a mid-chain node, query across the hole."""
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        network.schedule(
            NodeCrash(time=network.current_time() + 1.0, address="n2")
        )
        network.run_until_idle()
        answer = network.query(target, at="n0")
        return network, answer

    def test_query_across_crashed_node_is_partial(self):
        network, answer = self.crash_and_query()
        assert not answer.complete
        assert answer.missing
        assert answer.timeouts >= 1
        # The request was paid for and lost on delivery.
        assert network.stats.messages_lost >= 1
        assert "n2" not in answer.nodes_visited

    def test_partial_query_bytes_still_charged_to_querier(self):
        network, answer = self.crash_and_query()
        assert answer.bytes > 0
        assert network.stats.node("n0").query_bytes_charged == answer.bytes
        assert network.stats.summary()["query_bytes"] == answer.bytes

    def test_query_across_downed_link_times_out(self):
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        lost_before = network.stats.messages_lost
        network.schedule(
            LinkDown(
                time=network.current_time() + 1.0,
                source="n0",
                destination="n1",
                retract=False,
            )
        )
        network.run_until_idle()
        answer = network.query(target, at="n0")
        assert not answer.complete
        assert answer.missing
        assert network.stats.messages_lost > lost_before

    def test_queries_do_not_cross_partitions(self):
        """Query traffic routes over live links only: cutting both directions
        between n1 and n2 partitions n0|n1 from n2..n4, and no request may
        teleport across the cut."""
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        now = network.current_time()
        for source, destination in (("n1", "n2"), ("n2", "n1")):
            network.schedule(
                LinkDown(
                    time=now + 1.0,
                    source=source,
                    destination=destination,
                    retract=False,
                )
            )
        network.run_until_idle()
        answer = network.query(target, at="n0")
        assert not answer.complete
        assert set(answer.nodes_visited) <= {"n0", "n1"}

    def test_queries_route_around_failures_when_a_path_exists(self):
        """With a redundant route the dereference survives the direct-link
        failure, paying the longer path's latency."""
        from repro.net.topology import ring_topology

        network = build_network(topology=ring_topology(5))
        network.run()
        target = longest_best_path(network, "n0")
        direct = network.query(target, at="n0")
        assert direct.complete
        now = network.current_time()
        network.schedule(
            LinkDown(
                time=now + 1.0, source="n0", destination="n1", retract=False
            )
        )
        network.run_until_idle()
        rerouted = network.query(target, at="n0")
        assert rerouted.complete
        assert rerouted.latency > direct.latency

    def test_offline_condensed_annotations_survive_the_crash(self):
        """Archived annotations answer condensed offline queries even after
        the live stores were wiped."""
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        now = network.current_time()
        network.schedule(NodeCrash(time=now + 1.0, address="n2"))
        network.schedule(
            NodeRecover(time=now + 2.0, address="n2", reinject=False)
        )
        network.run_until_idle()
        answer = network.query(target, at="n0", mode="offline", condensed=True)
        assert answer.complete
        assert answer.condensed is not None
        assert answer.condensed.variables() <= set(network.topology.nodes)

    def test_offline_queries_survive_the_crash_online_ones_do_not(self):
        """The archive is the persistent log: a crash wipes the live pointer
        stores but not the archived history."""
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        now = network.current_time()
        network.schedule(NodeCrash(time=now + 1.0, address="n2"))
        network.schedule(
            NodeRecover(time=now + 2.0, address="n2", reinject=False)
        )
        network.run_until_idle()
        online = network.query(target, at="n0")
        offline = network.query(target, at="n0", mode="offline")
        assert not online.complete        # live pointers at n2 were wiped
        assert offline.complete           # the archive still answers
        oracle = traceback(
            target.key(),
            "n0",
            {
                address: engine.provenance
                for address, engine in network.engines.items()
            }.get,
        )
        assert not oracle.complete        # the oracle agrees about the hole

    def test_identical_runs_produce_identical_query_stats(self):
        def run_once():
            network = build_network()
            network.run()
            target = longest_best_path(network, "n0")
            network.schedule(
                NodeCrash(time=network.current_time() + 1.0, address="n2")
            )
            network.run_until_idle()
            answer = network.query(target, at="n0")
            healthy = network.query(
                network.node("n0").facts("link")[0], at="n0"
            )
            return answer.as_dict(), healthy.as_dict(), network.stats.summary()

        assert run_once() == run_once()

    def test_mid_scenario_query_is_ordinary_traffic(self):
        """A query issued between scenario phases shows up in the phase rows."""
        from repro.harness.scenarios import (
            Phase,
            Scenario,
            link_failure_scenario,
            run_scenario,
        )

        scenario, network = link_failure_scenario(
            node_count=10,
            seed=3,
            provenance="condensed",
            keep_offline_provenance=True,
        )
        report = run_scenario(scenario, network)
        assert report.converged
        source, _destination = scenario.details["failed_link"]
        target = longest_best_path(network, source)
        answer = network.query(target, at=source)
        assert answer.messages > 0
        # Continue the scenario machinery: one more (empty) phase whose row
        # must carry the query traffic we just generated... by construction
        # the counters are cumulative, so compare the summary split instead.
        summary = network.stats.summary()
        assert summary["query_messages"] == answer.messages
        assert summary["query_bytes"] == answer.bytes


class TestTracebackAccountingFix:
    """The legacy oracle now counts per remote pointer *dereference*."""

    def build_stores(self):
        """Node b derives two tuples; node a consumes both remotely."""
        link_ab = Fact("link", ("a", "b"))
        link_bc = Fact("link", ("b", "c"))
        link_bd = Fact("link", ("b", "d"))
        reach_bc = Fact("reachable", ("b", "c"))
        reach_bd = Fact("reachable", ("b", "d"))
        out = Fact("twohop", ("a", "c", "d"))
        store_a = DerivationLog("a")
        store_b = DerivationLog("b")
        store_b.record_base(link_bc)
        store_b.record_base(link_bd)
        fire(store_b, reach_bc, "r1", (link_bc,))
        fire(store_b, reach_bd, "r1", (link_bd,))
        store_a.record_base(link_ab)
        store_a.record_remote(reach_bc.with_metadata(origin="b"))
        store_a.record_remote(reach_bd.with_metadata(origin="b"))
        fire(store_a, out, "r2", (link_ab, reach_bc, reach_bd))
        return out, {"a": store_a, "b": store_b}

    def test_two_pointers_to_one_node_are_two_lookups(self):
        out, stores = self.build_stores()
        result = traceback(out.key(), "a", stores.get)
        assert result.complete
        # Two remote pointers were dereferenced, both at node b; the old
        # per-node accounting reported 1.
        assert result.remote_lookups == 2
        assert set(result.nodes_visited) == {"a", "b"}

    def test_unreachable_node_counts_the_lookup_but_not_the_visit(self):
        out, stores = self.build_stores()
        del stores["b"]
        result = traceback(out.key(), "a", stores.get)
        assert not result.complete
        # Both dereference attempts were paid for...
        assert result.remote_lookups == 2
        # ... but an unreachable node was never actually visited.
        assert result.nodes_visited == ("a",)
        assert len(result.missing) == 2

    def test_engine_never_pays_more_than_the_fixed_oracle(self):
        """The oracle bills every remote pointer edge; the engine's responses
        carry whole local closures, so repeated dereferences into a node
        already expanded are amortized away — the engine pays at most (and
        usually fewer than) the oracle's count, two messages per request."""
        network = build_network(topology=line_topology(4))
        network.run()
        target = longest_best_path(network, "n3")
        oracle = network.legacy_traceback(target, at="n3")
        answer = network.query(target, at="n3")
        assert 0 < answer.remote_lookups <= oracle.remote_lookups
        assert answer.messages == 2 * answer.remote_lookups
        assert answer.graph.same_structure(oracle.graph)


class TestQueryWireFormat:
    def test_request_and_response_sizes(self):
        request = QueryRequest(
            source="a", destination="b", key=("r", ("x", "y")), query_id=1, request_id=1
        )
        assert request.size_bytes() > len(b"r(x,y)")
        assert request.tuple_count == 0
        response = QueryResponse(
            source="b", destination="a", query_id=1, request_id=1, closure=QueryClosure()
        )
        # A response names its request, not its key: with no records it is
        # the header and flags alone.
        assert response.size_bytes() == request.size_bytes() - request.payload_bytes()
        signed = QueryResponse(
            source="b",
            destination="a",
            query_id=1,
            request_id=1,
            closure=QueryClosure(),
            signature=b"\x00" * 32,
        )
        assert signed.size_bytes() == response.size_bytes() + 32
        # Signature bytes count as security overhead, like data envelopes.
        assert signed.security_bytes == 32 and response.security_bytes == 0

    def test_signed_payload_binds_the_answer_substance(self):
        """Rewriting a pointer's inputs or the annotation must change the
        signed payload — otherwise a relay could shift blame undetected."""
        from repro.net.message import RECORD_DERIVED, QueryClosure
        from repro.provenance.log import ProvenancePointer

        def response(origin, annotation=None):
            pointer = ProvenancePointer(
                output=("r", ("x",)),
                rule_label="r1",
                node="b",
                inputs = ((("link", ("b", "c")), origin),),
            )
            return QueryResponse(
                source="b",
                destination="a",
                query_id=1,
                request_id=1,
                closure=QueryClosure(bytes([RECORD_DERIVED]), ((pointer,),)),
                annotation=annotation,
            )

        key = ("r", ("x",))
        honest = response(origin="c")
        blame_shifted = response(origin="d")
        assert honest.signed_payload(key) != blame_shifted.signed_payload(key)
        annotated = response(origin="c", annotation="<c*d>")
        assert honest.signed_payload(key) != annotated.signed_payload(key)
        # The keys the walk rebuilds are signed too.
        assert honest.signed_payload(key) != honest.signed_payload(("r", ("y",)))

    def test_tampered_authenticated_response_is_discarded(self):
        """End-to-end: corrupt every signature in flight; the querier must
        reject the answers instead of building a graph from them."""
        from repro.net.message import QueryRequest as Req, QueryResponse as Resp

        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        simulator = network.simulator
        original = simulator.queries._ship

        def corrupting_ship(query_id, source, message, send_time):
            if isinstance(message, Resp) and message.signature is not None:
                message = replace_signature(message)
            original(query_id, source, message, send_time)

        def replace_signature(message):
            import dataclasses

            return dataclasses.replace(
                message, signature=bytes(len(message.signature))
            )

        simulator.queries._ship = corrupting_ship
        answer = network.query(target, at="n0", authenticated=True)
        assert not answer.complete
        assert answer.verification_failures > 0
        assert answer.responses_verified == 0


def _flag_base(response):
    """The response's first record, derived, flagged base with its pointers."""
    closure = response.closure
    assert closure.flags[0] == RECORD_DERIVED and closure.pointers[0]
    return QueryClosure(bytes([RECORD_BASE]) + closure.flags[1:], closure.pointers)


class TestRecordStreamRefusal:
    """A response's records rebuild every key but the one its querier asked
    for.  Records that do not fit the walk, and an authenticated answer
    whose signature does not verify over the rebuilt keys, are refused and
    counted: the asked-for key goes missing, nothing raises."""

    def tampered_query(self, rewrite, authenticated=False):
        """Query n0's longest best path, replacing the closure of the first
        response in flight with ``rewrite(response)``; returns the answer
        and ``(asked-for key, tampered response)``."""
        network = build_network()
        network.run()
        target = longest_best_path(network, "n0")
        engine = network.simulator.queries
        ship = engine._ship
        tampered = []

        def tampering_ship(query_id, source, message, send_time):
            if type(message) is QueryResponse and not tampered:
                key = engine._queries[query_id].outstanding[message.request_id][0]
                message = dataclasses.replace(
                    message, closure=rewrite(message)
                )
                tampered.append((key, message))
            ship(query_id, source, message, send_time)

        engine._ship = tampering_ship
        answer = network.query(target, at="n0", authenticated=authenticated)
        assert len(tampered) == 1
        return answer, tampered[0]

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda response: QueryClosure(
                response.closure.flags[:-1], response.closure.pointers[:-1]
            ),
            lambda response: QueryClosure(
                response.closure.flags + bytes([RECORD_BASE]),
                response.closure.pointers + ((),),
            ),
            _flag_base,
        ],
        ids=["record-dropped", "record-added", "base-flag-with-pointers"],
    )
    @pytest.mark.parametrize("authenticated", [False, True])
    def test_records_that_do_not_fit_the_walk_are_refused(self, rewrite, authenticated):
        answer, (key, response) = self.tampered_query(rewrite, authenticated)
        assert response.closure.walk(key, response.source) is None
        assert key in answer.missing and not answer.complete
        assert answer.verification_failures == 1
        if authenticated:
            assert answer.responses_verified == answer.messages // 2 - 1

    def test_an_altered_pointer_input_fails_the_signature_over_rebuilt_keys(self):
        forged = ("link", ("n1", "forged"))

        def forge(response):
            closure = response.closure
            pointer_lists = list(closure.pointers)
            for index, pointers in enumerate(pointer_lists):
                for number, pointer in enumerate(pointers):
                    for position, (input_key, origin) in enumerate(pointer.inputs):
                        if (origin or response.source) == response.source:
                            inputs = list(pointer.inputs)
                            inputs[position] = (forged, origin)
                            pointers = list(pointers)
                            pointers[number] = dataclasses.replace(
                                pointer, inputs=tuple(inputs)
                            )
                            pointer_lists[index] = tuple(pointers)
                            return QueryClosure(closure.flags, tuple(pointer_lists))
            raise AssertionError("no local pointer input to alter")

        answer, (key, response) = self.tampered_query(forge, authenticated=True)
        # The records still fit the walk: the signature is what refuses them.
        entries, _missing = response.closure.walk(key, response.source)
        assert forged in {entry.key for entry in entries}
        assert answer.verification_failures == 1
        assert answer.responses_verified == answer.messages // 2 - 1
        assert key in answer.missing and not answer.complete
