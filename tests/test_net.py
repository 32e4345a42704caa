"""Tests for the network substrate: addresses, messages, links, topologies, stats."""

from __future__ import annotations

import pytest
from wire import batch_of_one

from repro.engine.tuples import Fact
from repro.net.address import node_name, node_names
from repro.net.link import Link
from repro.net.message import MESSAGE_HEADER_BYTES
from repro.net.stats import NetworkStats, NodeStats
from repro.net.topology import (
    grid_topology,
    line_topology,
    paper_example_topology,
    random_topology,
    ring_topology,
)
from repro.security.authenticator import Seal


class TestAddress:
    def test_node_name(self):
        assert node_name(0) == "n0"
        assert node_name(42) == "n42"
        assert node_name(3, prefix="as") == "as3"

    def test_node_names(self):
        assert node_names(3) == ("n0", "n1", "n2")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            node_name(-1)


class TestMessage:
    def test_size_accounts_for_all_components(self):
        fact = Fact("link", ("a", "b", 1.0))
        # The seal: principal "a" and an 8-byte first number, then 31 bytes of signature.
        seal = Seal("a", 1, b"\x00" * 31)
        message = batch_of_one("a", "b", fact, provenance_bytes=20, seal=seal)
        assert message.security_bytes == 40
        assert message.size_bytes() == MESSAGE_HEADER_BYTES + fact.payload_size() + 60

    def test_plain_message_size(self):
        fact = Fact("link", ("a", "b", 1.0))
        message = batch_of_one("a", "b", fact)
        assert message.size_bytes() == MESSAGE_HEADER_BYTES + fact.payload_size()

    def test_sequence_is_caller_assigned(self):
        # Sequence numbers come from the sending simulator's per-run counter,
        # not a process-global source.
        fact = Fact("link", ("a", "b"))
        message = batch_of_one("a", "b", fact, sequence=7)
        assert message.sequence == 7
        assert batch_of_one("a", "b", fact).sequence == 0

    def test_str_mentions_endpoints(self):
        message = batch_of_one("a", "b", Fact("link", ("a", "b")))
        assert "a -> b" in str(message)


class TestLink:
    def test_transmission_delay(self):
        link = Link(source="a", destination="b", latency=0.01, bandwidth=1000.0)
        assert link.transmission_delay(500) == pytest.approx(0.01 + 0.5)

    def test_zero_bandwidth_falls_back_to_latency(self):
        link = Link(source="a", destination="b", latency=0.01, bandwidth=0.0)
        assert link.transmission_delay(500) == 0.01

    def test_reversed(self):
        link = Link(source="a", destination="b", cost=7.0)
        back = link.reversed()
        assert back.source == "b" and back.destination == "a" and back.cost == 7.0


class TestTopologies:
    def test_random_topology_matches_paper_parameters(self):
        topo = random_topology(50, average_outdegree=3.0, seed=1)
        assert topo.node_count == 50
        assert abs(topo.average_outdegree() - 3.0) < 0.2
        assert topo.is_strongly_connected()

    def test_random_topology_is_deterministic_in_seed(self):
        a = random_topology(20, seed=7)
        b = random_topology(20, seed=7)
        assert [(l.source, l.destination, l.cost) for l in a.links] == [
            (l.source, l.destination, l.cost) for l in b.links
        ]

    def test_different_seeds_differ(self):
        a = random_topology(20, seed=1)
        b = random_topology(20, seed=2)
        assert {(l.source, l.destination) for l in a.links} != {
            (l.source, l.destination) for l in b.links
        }

    def test_random_topology_has_no_self_loops_or_duplicates(self):
        topo = random_topology(30, seed=3)
        pairs = [(l.source, l.destination) for l in topo.links]
        assert len(pairs) == len(set(pairs))
        assert all(s != d for s, d in pairs)

    def test_random_topology_needs_two_nodes(self):
        with pytest.raises(ValueError):
            random_topology(1)

    def test_ring_topology(self):
        topo = ring_topology(5, bidirectional=False)
        assert topo.link_count == 5
        assert topo.is_strongly_connected()

    def test_bidirectional_ring(self):
        topo = ring_topology(5, bidirectional=True)
        assert topo.link_count == 10

    def test_line_topology(self):
        topo = line_topology(4)
        assert topo.link_count == 6
        assert topo.is_strongly_connected()

    def test_grid_topology(self):
        topo = grid_topology(3, 3)
        assert topo.node_count == 9
        assert topo.is_strongly_connected()
        # Interior node has 4 bidirectional neighbours.
        assert len(topo.neighbors("n4")) == 4

    def test_paper_example_topology(self):
        topo = paper_example_topology()
        assert topo.nodes == ("a", "b", "c")
        assert topo.link_count == 3
        assert not topo.is_strongly_connected()  # c has no outgoing links

    def test_link_between_and_neighbors(self):
        topo = paper_example_topology()
        assert topo.link_between("a", "b") is not None
        assert topo.link_between("b", "a") is None
        assert set(topo.neighbors("a")) == {"b", "c"}

    def test_outgoing(self):
        topo = paper_example_topology()
        assert len(topo.outgoing("a")) == 2
        assert topo.outgoing("c") == ()

    def test_with_extra_links(self):
        topo = paper_example_topology()
        extended = topo.with_extra_links([Link(source="c", destination="a")])
        assert extended.link_count == 4
        assert extended.is_strongly_connected()


class TestStats:
    def test_node_stats_record_send_and_receive(self):
        stats = NodeStats(address="a")
        fact = Fact("link", ("a", "b"))
        message = batch_of_one("a", "b", fact, provenance_bytes=5, seal=Seal("a", 1, b"\x00"))
        stats.record_send(message, message.size_bytes())
        stats.record_receive(message)
        assert stats.messages_sent == 1 and stats.messages_received == 1
        assert stats.bytes_sent == message.size_bytes()
        assert stats.security_bytes_sent == 10
        assert stats.provenance_bytes_sent == 5

    def test_network_stats_aggregation(self):
        network = NetworkStats()
        fact = Fact("link", ("a", "b"))
        message = batch_of_one("a", "b", fact, seal=Seal("a", 1, b"\x00"))
        network.node("a").record_send(message, message.size_bytes())
        network.node("b").record_receive(message)
        assert network.total("bytes_sent") == message.size_bytes()
        assert network.summary()["bandwidth_mb"] == pytest.approx(message.size_bytes() / 1e6)
        assert network.total("security_bytes_sent") == 10

    def test_node_accessor_creates_entries(self):
        network = NetworkStats()
        assert network.node("x").address == "x"
        assert "x" in network.nodes

    def test_summary_keys(self):
        summary = NetworkStats().summary()
        for key in ("completion_time_s", "bandwidth_mb", "total_messages", "facts_derived"):
            assert key in summary
