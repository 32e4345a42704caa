"""Property test: the tiered archive is indistinguishable from the oracle.

Hypothesis drives random scripts of dynamics — retracting link failures,
node crashes and recoveries, quiet periods — against two identically-seeded
networks: one with the unbounded in-memory offline archive (the oracle) and
one with the tiered store at a hot-tier capacity drawn down to a single
entry.  After every script, every key the oracle ever archived must be
answerable offline under the tiered store with a structurally identical
derivation graph: eviction, spill reads and crash-driven cache loss must
never change a forensic answer.
"""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Network
from repro.net.events import LinkDown, NodeCrash, NodeRecover
from repro.net.topology import line_topology

NODES = 4
ADDRESSES = tuple(f"n{i}" for i in range(NODES))
LINKS = tuple(
    (f"n{i}", f"n{i + 1}") for i in range(NODES - 1)
)

#: One scripted dynamic: (kind, operand index).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("retract_link"), st.integers(0, len(LINKS) - 1)),
        st.tuples(st.just("crash"), st.integers(1, NODES - 2)),
        st.tuples(st.just("recover"), st.integers(1, NODES - 2)),
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
        keep_offline_provenance=True,
        **overrides,
    )


def _apply(network, script):
    network.run()
    for kind, index in script:
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
            network.schedule(
                NodeCrash(time=now + 1.0, address=f"n{index}")
            )
        elif kind == "recover":
            network.schedule(
                NodeRecover(time=now + 1.0, address=f"n{index}", reinject=False)
            )
        network.run_until_idle()
    network.finish()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=operations, hot_entries=st.sampled_from([1, 2, 4, 64]))
def test_tiered_forensics_match_memory_oracle(script, hot_entries):
    oracle = _build()
    tiered = _build(
        provenance_store="tiered",
        hot_tier_entries=hot_entries,
        spill_dir=tempfile.mkdtemp(prefix="repro-prop-"),
    )
    _apply(oracle, script)
    _apply(tiered, script)

    checked = 0
    for address in ADDRESSES:
        oracle_archive = oracle.simulator.engines[address].offline_provenance
        tiered_archive = tiered.simulator.engines[address].offline_provenance
        keys = {entry.key for entry in oracle_archive.entries()}
        for key in sorted(keys, key=str):
            assert tiered_archive.knows(key)
            assert tiered_archive.graph(key).same_structure(
                oracle_archive.graph(key)
            ), f"forensic divergence at {address} for {key}"
            checked += 1
    # The script must actually archive something, or the property is vacuous.
    assert checked > 0
