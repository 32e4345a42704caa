"""A run makes no reference cycles.

Everything a run allocates is freed by reference counting alone: with the
cyclic collector off, a fixpoint, a link flap under one-fixpoint deletions
and a served query batch each leave nothing for ``gc.collect()`` to find.
The collector's passes over a run's timed section therefore only ever
scan; a change that introduces a cycle (a closure over its owner, a
back-pointer, an exception kept with its traceback) fails here.

Each network is built and collected before the collector is switched off:
building compiles the program, which is allowed its own cycles.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import Network
from repro.net.events import LinkDown, LinkUp
from repro.net.topology import random_topology
from repro.service import QueryWorkload


@pytest.fixture
def collector_off():
    """Collect what came before, switch the cyclic collector off, and
    switch it back on whatever the test does."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _quiet(network: Network) -> Network:
    gc.collect()
    return network


def test_a_sendlog_prov_fixpoint_makes_no_cycles(collector_off):
    network = _quiet(
        Network.build(
            topology=10, program="best-path", provenance="sendlog-prov", seed=3,
            key_bits=128,
        )
    )
    assert network.run().converged
    assert gc.collect() == 0


def test_a_condensed_link_flap_makes_no_cycles(collector_off):
    topology = random_topology(10, seed=2)
    network = Network.build(
        topology=topology,
        program="best-path",
        provenance="condensed",
        default_ttl=1e6,
        track_dependencies=True,
        rederivation=True,
    )
    assert network.run().converged
    _quiet(network)
    link = topology.redundant_links()[0]
    for event_type in (LinkDown, LinkUp):
        network.schedule(
            event_type(
                time=network.current_time() + 1.0,
                source=link.source,
                destination=link.destination,
            )
        )
        assert network.run_until_idle()
    assert network.stats.total("facts_retracted") > 0
    assert gc.collect() == 0


def test_a_served_query_batch_makes_no_cycles(collector_off):
    network = Network.build(
        topology=12, program="best-path", provenance="condensed", query_cache=True,
        seed=4,
    )
    assert network.run().converged
    _quiet(network)
    result = network.serve(
        QueryWorkload(rate=100, duration=2.0, seed=4, pool=16), converge=False
    )
    assert result.queries_completed == result.offered > 0
    assert gc.collect() == 0
