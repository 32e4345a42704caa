"""Tests for derivation graphs, local provenance and distributed provenance.

Local and distributed provenance are two readings of one per-node
:class:`DerivationLog`: the annotation / piggy-back / ``graph(root)`` views,
and the pointers a cross-node ``traceback`` chases.
"""

from __future__ import annotations

from reference_stores import fire

from repro.engine.tuples import Fact
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.distributed import traceback
from repro.provenance.graph import DerivationGraph
from repro.provenance.log import DerivationLog


# The paper's Section 4 example network: links a->b, a->c, b->c, and the
# derivation of reachable(a, c) shown in Figure 1.
LINK_AB = Fact("link", ("a", "b"), asserted_by="a")
LINK_AC = Fact("link", ("a", "c"), asserted_by="a")
LINK_BC = Fact("link", ("b", "c"), asserted_by="b")
REACH_BC = Fact("reachable", ("b", "c"), asserted_by="b")
REACH_AC = Fact("reachable", ("a", "c"), asserted_by="a")


def figure1_graph() -> DerivationGraph:
    graph = DerivationGraph()
    # r1: reachable(a,c) :- link(a,c)
    graph.add_derivation(REACH_AC, "r1", [LINK_AC], location="a")
    # r1 at b: reachable(b,c) :- link(b,c)
    graph.add_derivation(REACH_BC, "r1", [LINK_BC], location="b")
    # r2: reachable(a,c) :- link(a,b), reachable(b,c)
    graph.add_derivation(REACH_AC, "r2", [LINK_AB, REACH_BC], location="a")
    return graph


class TestDerivationGraph:
    def test_base_tuples_are_figure1_leaves(self):
        graph = figure1_graph()
        leaves = graph.base_tuples(REACH_AC.key())
        assert leaves == frozenset({LINK_AC.key(), LINK_AB.key(), LINK_BC.key()})

    def test_producers_lists_alternative_derivations(self):
        graph = figure1_graph()
        assert len(graph.producers(REACH_AC.key())) == 2
        assert {op.rule_label for op in graph.producers(REACH_AC.key())} == {"r1", "r2"}

    def test_is_base(self):
        graph = figure1_graph()
        assert graph.is_base(LINK_AB.key())
        assert not graph.is_base(REACH_AC.key())

    def test_to_expression_over_principals(self):
        # Figure 2's condensed provenance: <a + a*b> over asserting principals.
        graph = figure1_graph()
        expression = graph.to_expression(REACH_AC.key())
        assert expression.condense().to_string() == "a"
        assert expression.variables() == frozenset({"a", "b"})

    def test_to_condensed_matches_paper(self):
        graph = figure1_graph()
        assert str(graph.to_condensed(REACH_AC.key())) == "<a>"

    def test_to_expression_over_base_tuples(self):
        graph = figure1_graph()
        expression = graph.to_expression(
            REACH_AC.key(), variable_of=lambda node: f"{node.relation}{node.values}"
        )
        assert len(expression.variables()) == 3

    def test_subgraph_is_self_contained(self):
        graph = figure1_graph()
        sub = graph.subgraph(REACH_BC.key())
        assert sub.tuple_node(REACH_BC.key()) is not None
        assert sub.tuple_node(LINK_BC.key()) is not None
        assert sub.tuple_node(LINK_AB.key()) is None

    def test_merge_deduplicates_operators(self):
        graph = figure1_graph()
        other = figure1_graph()
        before = len(graph.operators())
        graph.merge(other)
        assert len(graph.operators()) == before

    def test_render_mentions_rules_and_tuples(self):
        rendered = figure1_graph().render(REACH_AC.key())
        assert "reachable(a, c)" in rendered
        assert "[r2 @a]" in rendered
        assert "link(a, b)" in rendered

    def test_cycles_do_not_loop_forever(self):
        graph = DerivationGraph()
        x = Fact("p", ("x",))
        y = Fact("p", ("y",))
        graph.add_derivation(x, "r", [y])
        graph.add_derivation(y, "r", [x])
        expression = graph.to_expression(x.key())
        assert expression is not None
        assert "cycle" in graph.render(x.key())

    def test_len_counts_nodes_and_operators(self):
        assert len(figure1_graph()) == 5 + 3


class TestLocalProvenance:
    def test_record_base_and_annotation(self):
        store = DerivationLog("a")
        store.record_base(LINK_AB, source="a")
        assert str(store.annotation(LINK_AB.key())) == "<a>"

    def test_record_derivation_joins_annotations(self):
        store = DerivationLog("a")
        store.record_base(LINK_AB, source="a")
        store.record_remote(REACH_BC, CondensedProvenance.from_source("b"))
        annotation = fire(store, REACH_AC, "r2", (LINK_AB, REACH_BC))
        assert annotation.sources() == frozenset({"a", "b"})

    def test_alternative_derivations_merge(self):
        store = DerivationLog("a")
        store.record_base(LINK_AB, source="a")
        store.record_base(LINK_AC, source="a")
        store.record_remote(REACH_BC, CondensedProvenance.from_source("b"))
        fire(store, REACH_AC, "r1", (LINK_AC,))
        fire(store, REACH_AC, "r2", (LINK_AB, REACH_BC))
        # <a + a*b> condenses to <a>.
        assert str(store.annotation(REACH_AC.key())) == "<a>"

    def test_piggyback_contains_subgraph_and_annotation(self):
        store = DerivationLog("a")
        store.record_base(LINK_AC, source="a")
        fire(store, REACH_AC, "r1", (LINK_AC,))
        piggyback = store.piggyback_for(REACH_AC)
        assert piggyback.root == REACH_AC.key()
        assert piggyback.condensed.sources() == frozenset({"a"})
        assert piggyback.graph.tuple_node(LINK_AC.key()) is not None
        assert piggyback.serialized_size(condensed_only=True) < piggyback.serialized_size(
            condensed_only=False
        )

    def test_record_remote_merges_piggyback(self):
        # What travels with a shipped tuple is the piggy-back's condensed
        # annotation (the tree is charged for, never shipped); the derivation
        # structure stays at the sender and is reached through the origin.
        sender = DerivationLog("b")
        sender.record_base(LINK_BC, source="b")
        fire(sender, REACH_BC, "r1", (LINK_BC,))
        piggyback = sender.piggyback_for(REACH_BC)
        assert piggyback.graph.tuple_node(LINK_BC.key()) is not None
        receiver = DerivationLog("a")
        receiver.record_remote(REACH_BC.with_metadata(origin="b"), piggyback.condensed)
        assert receiver.annotation(REACH_BC.key()).sources() == frozenset({"b"})
        assert receiver.origin_of(REACH_BC.key()) == "b"
        assert receiver.graph(REACH_BC.key()).tuple_node(REACH_BC.key()) is not None

    def test_unknown_fact_annotation_defaults_to_identity(self):
        store = DerivationLog("a")
        annotation = store.annotation(("mystery", ("x",)))
        assert annotation.sources() == frozenset({"mystery(x)"})


class TestDistributedProvenance:
    def build_stores(self):
        """Node b derives reachable(b,c); node a derives reachable(a,c) from it."""
        store_a = DerivationLog("a")
        store_b = DerivationLog("b")
        store_b.record_base(LINK_BC)
        fire(store_b, REACH_BC, "r1", (LINK_BC,))
        store_a.record_base(LINK_AB)
        store_a.record_remote(REACH_BC.with_metadata(origin="b"))
        fire(store_a, REACH_AC, "r2", (LINK_AB, REACH_BC))
        return {"a": store_a, "b": store_b}

    def test_pointers_recorded(self):
        stores = self.build_stores()
        pointers = stores["a"].pointers(REACH_AC.key())
        assert len(pointers) == 1
        inputs = dict(pointers[0].inputs)
        assert inputs[REACH_BC.key()] == "b"
        assert inputs[LINK_AB.key()] is None

    def test_traceback_reconstructs_full_derivation(self):
        stores = self.build_stores()
        result = traceback(REACH_AC.key(), "a", stores.get)
        assert result.complete
        leaves = result.graph.base_tuples(REACH_AC.key())
        assert leaves == frozenset({LINK_AB.key(), LINK_BC.key()})

    def test_traceback_counts_remote_lookups(self):
        stores = self.build_stores()
        result = traceback(REACH_AC.key(), "a", stores.get)
        assert result.remote_lookups == 1
        assert set(result.nodes_visited) == {"a", "b"}

    def test_traceback_reports_missing_stores(self):
        stores = self.build_stores()
        del stores["b"]
        result = traceback(REACH_AC.key(), "a", stores.get)
        assert not result.complete
        assert REACH_BC.key() in result.missing

    def test_traceback_of_base_fact_is_trivial(self):
        stores = self.build_stores()
        result = traceback(LINK_AB.key(), "a", stores.get)
        assert result.complete
        assert result.remote_lookups == 0

    def test_storage_overhead_counts_entries(self):
        stores = self.build_stores()
        assert stores["a"].storage_overhead() == 2  # one pointer + one base
        assert stores["b"].storage_overhead() == 2

    def test_traceback_matches_local_provenance_expression(self):
        """Distributed reconstruction and local provenance agree (Section 4.1)."""
        stores = self.build_stores()
        distributed_graph = traceback(REACH_AC.key(), "a", stores.get).graph

        local = DerivationLog("a")
        local.record_base(LINK_AB, source="a")
        local.record_remote(REACH_BC, CondensedProvenance.from_source("b"))
        fire(local, REACH_AC, "r2", (LINK_AB, REACH_BC))
        assert local.annotation(REACH_AC.key()).sources() == frozenset({"a", "b"})
        naming = lambda node: f"{node.relation}{node.values}"
        reconstructed = distributed_graph.to_expression(REACH_AC.key(), naming).condense()
        assert reconstructed.variables() == {
            f"{LINK_AB.relation}{LINK_AB.values}",
            f"{LINK_BC.relation}{LINK_BC.values}",
        }
