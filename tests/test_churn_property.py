"""Property-based churn scripts against a from-scratch oracle (hypothesis).

The one-fixpoint deletion claim, stated as a property: after an arbitrary
script of base-tuple churn — injections, retractions, node crashes, link
flaps — the network's converged state must equal what a *fresh* network
computes from the surviving base facts alone.  Retraction-only scripts must
match the oracle at quiescence with no help (the anti-delta flood is the
whole repair); scripts with crashes are allowed one refresh-plus-decay
cycle, the paper's fallback for state lost rather than withdrawn.

A second property pins the forensics contract: the offline provenance
archive still answers for retracted tuples after the online stores have
stopped vouching for them.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.network import Network
from repro.datalog import localize_program, parse_program
from repro.datalog.planner import compile_program
from repro.engine.tuples import Fact
from repro.net.events import (
    FactInjection,
    FactRetraction,
    LinkDown,
    LinkUp,
    NodeCrash,
    NodeRecover,
    SoftStateRefresh,
)
from repro.net.topology import Link, line_topology
from repro.queries.reachable import REACHABLE_LOCALIZED

TTL = 30.0

_COMPILED = compile_program(localize_program(parse_program(REACHABLE_LOCALIZED)))


def _build(topology, rederivation: bool = True):
    return Network.build(
        topology=topology,
        program=_COMPILED,
        provenance="condensed",
        default_ttl=TTL,
        track_dependencies=True,
        keep_offline_provenance=True,
        rederivation=rederivation,
    )


def _inject_base(simulator, base: Dict[str, Set[Tuple[str, str]]], at: float):
    for node in sorted(base):
        facts = tuple(Fact("link", pair) for pair in sorted(base[node]))
        if facts:
            simulator.schedule(FactInjection(time=at, address=node, facts=facts))


def _state(simulator) -> Dict[str, Set[Tuple[str, ...]]]:
    """Per-node stored ``reachable`` tuples (the program's derived state)."""
    return {
        address: {fact.values for fact in engine.facts("reachable")}
        for address, engine in simulator.engines.items()
    }


def _oracle(topology, base: Dict[str, Set[Tuple[str, str]]]):
    """From-scratch rebuild: a fresh network fed only the surviving base."""
    network = _build(topology)
    simulator = network.simulator
    _inject_base(simulator, base, 0.0)
    assert simulator.run_until_idle()
    return _state(simulator)


def _topology(chords: List[int]):
    """A 5-node line plus the chosen redundant chords (both directions)."""
    topology = line_topology(5)
    nodes = topology.nodes
    pool = [(0, 2), (1, 3), (2, 4), (0, 3)]
    extra = []
    for index in chords:
        a, b = pool[index]
        extra.append(Link(source=nodes[a], destination=nodes[b], cost=1.0))
        extra.append(Link(source=nodes[b], destination=nodes[a], cost=1.0))
    return topology.with_extra_links(extra) if extra else topology


def _base_facts(topology) -> Dict[str, Set[Tuple[str, str]]]:
    return {
        node: {
            (link.source, link.destination)
            for link in topology.outgoing(node)
        }
        for node in topology.nodes
    }


def _play(simulator, topology, base, script):
    """Schedule each ``(op, choice)`` of *script*, settle, and yield the
    instant it was scheduled at; retractions are removed from *base*."""
    nodes = topology.nodes
    at = simulator.current_time()
    for op, choice in script:
        at = max(at, simulator.current_time()) + 1.0
        if op == "retract":
            live = [
                (node, pair)
                for node in sorted(base)
                for pair in sorted(base[node])
            ]
            if not live:
                continue
            node, pair = live[choice % len(live)]
            base[node].discard(pair)
            simulator.schedule(
                FactRetraction(
                    time=at, address=node, facts=(Fact("link", pair),)
                )
            )
        elif op == "flap":
            links = sorted(
                (link.source, link.destination)
                for link in topology.links
            )
            source, destination = links[choice % len(links)]
            simulator.schedule(
                LinkDown(
                    time=at,
                    source=source,
                    destination=destination,
                    retract=True,
                )
            )
            simulator.schedule(
                LinkUp(time=at + 0.5, source=source, destination=destination)
            )
            # The flap re-injects the remembered link fact: the base
            # set is unchanged once the dust settles.
        else:  # crash
            victim = nodes[choice % len(nodes)]
            simulator.schedule(NodeCrash(time=at, address=victim))
            simulator.schedule(
                NodeRecover(time=at + 0.5, address=victim, reinject=True)
            )
        assert simulator.run_until_idle()
        yield at


chords_strategy = st.lists(
    st.integers(min_value=0, max_value=3), max_size=3, unique=True
)


class TestRetractionScriptsMatchOracle:
    """Retract-only churn: equality at quiescence, no refresh allowed."""

    @given(
        chords=chords_strategy,
        retractions=st.lists(
            st.integers(min_value=0, max_value=1_000_000),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_final_state_equals_from_scratch_rebuild(
        self, chords, retractions
    ):
        topology = _topology(chords)
        base = _base_facts(topology)
        network = _build(topology)
        simulator = network.simulator
        _inject_base(simulator, base, 0.0)
        assert simulator.run_until_idle()
        at = simulator.current_time()
        for choice in retractions:
            live = [
                (node, pair)
                for node in sorted(base)
                for pair in sorted(base[node])
            ]
            if not live:
                break
            node, pair = live[choice % len(live)]
            base[node].discard(pair)
            at = max(at, simulator.current_time()) + 1.0
            simulator.schedule(
                FactRetraction(
                    time=at, address=node, facts=(Fact("link", pair),)
                )
            )
            assert simulator.run_until_idle()
        # No refresh round, no decay: the anti-delta fixpoint alone must
        # leave exactly the state a fresh network derives from what's left.
        final = _state(simulator)
        assert final == _oracle(topology, base)
        # Well inside a single TTL: deletions did not wait for decay.
        assert simulator.current_time() < TTL

    @given(chords=st.just([0]))
    @settings(max_examples=1, deadline=None)
    def test_offline_archive_answers_retracted_tuples(self, chords):
        topology = _topology(chords)
        base = _base_facts(topology)
        network = _build(topology)
        simulator = network.simulator
        _inject_base(simulator, base, 0.0)
        assert simulator.run_until_idle()
        nodes = topology.nodes
        victim = (nodes[0], nodes[1])
        simulator.schedule(
            FactRetraction(
                time=simulator.current_time() + 1.0,
                address=nodes[0],
                facts=(Fact("link", victim),),
            )
        )
        assert simulator.run_until_idle()
        engine = simulator.engines[nodes[0]]
        key = Fact("link", victim).key()
        # The live log stopped vouching; the offline archive — the
        # persistent log — still answers for the retracted tuple.
        assert key not in engine.provenance.keys()
        assert not engine.provenance.knows(key)
        assert engine.offline_provenance.knows(key)
        assert engine.offline_provenance.is_base(key)
        # Derived tuples killed by the retraction keep their derivation
        # entries in the archive too.
        dead = Fact("reachable", victim).key()
        assert engine.offline_provenance.entries(dead)


class TestFullChurnScriptsMatchOracle:
    """Crashes and link flaps: equality after one refresh + decay cycle."""

    @given(
        chords=chords_strategy,
        script=st.lists(
            st.tuples(
                st.sampled_from(["retract", "flap", "crash"]),
                st.integers(min_value=0, max_value=1_000_000),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_refresh_cycle_restores_oracle_state(self, chords, script):
        topology = _topology(chords)
        base = _base_facts(topology)
        network = _build(topology)
        simulator = network.simulator
        _inject_base(simulator, base, 0.0)
        assert simulator.run_until_idle()
        at = simulator.current_time()
        for at in _play(simulator, topology, base, script):
            pass
        # One soft-state repair cycle: stale copies (crash fallout) decay
        # by TTL while a refresh round re-derives what still holds.
        repair_at = max(at, simulator.current_time()) + TTL + 1.0
        simulator.schedule(SoftStateRefresh(time=repair_at))
        assert simulator.run_until_idle()
        simulator.expire_all(max(simulator.current_time(), repair_at))
        assert _state(simulator) == _oracle(topology, base)
