"""Trust management over condensed provenance (Sections 3, 4.4 and 4.5).

Scenario: a node receives route updates from its neighbours, each carrying
its condensed provenance (the principals whose assertions it rests on).
Orchestra-style, the node decides which updates to accept:

* by *source set*   — accept only routes derivable entirely from trusted ASes;
* by *trust level*  — the paper's ``<a + a*b>`` example with security levels;
* by *vote*         — accept only updates asserted by at least K principals.

The last section runs the same policy against a live network built through
the ``Network`` facade: the deciding node fetches the update's provenance
with an authenticated in-network query — signed responses, verified at the
querier, with the wire cost on the books.

Run with::

    python examples/trust_management.py
"""

from __future__ import annotations

from repro.api import Network
from repro.provenance.polynomial import p_product, p_sum, p_var
from repro.provenance.quantify import count_derivations, trust_level, vote_principals
from repro.security.principal import PrincipalRegistry
from repro.usecases.trust import TrustManager, TrustPolicy


def main() -> None:
    # --- the paper's running example -------------------------------------------
    # reachable(a, c) can be derived from a alone, or from a joined with b.
    raw = p_sum(p_var("a"), p_product(p_var("a"), p_var("b")))
    condensed = raw.condense()
    print(f"raw provenance        : <{raw.to_string()}>")
    print(f"condensed provenance  : {condensed}   (a + a*b collapses to a)")

    registry = PrincipalRegistry()
    registry.register("a", security_level=2)
    registry.register("b", security_level=1)
    level = trust_level(raw, {"a": 2, "b": 1})
    print(f"trust level           : max(2, min(2, 1)) = {level}")
    print(f"number of derivations : {count_derivations(raw)}")
    print(f"asserting principals  : {vote_principals(raw)}")

    # --- policy 1: source-set trust ----------------------------------------------
    print("\n-- policy: only principal 'a' is trusted --")
    manager = TrustManager(TrustPolicy.trust_sources("a"), registry)
    decision = manager.evaluate(condensed)
    print(f"accepted={decision.accepted}; " + "; ".join(decision.reasons))

    print("\n-- policy: only principal 'b' is trusted --")
    manager = TrustManager(TrustPolicy.trust_sources("b"), registry)
    decision = manager.evaluate(condensed)
    print(f"accepted={decision.accepted}; " + "; ".join(decision.reasons))

    # --- policy 2: minimum security level ------------------------------------------
    print("\n-- policy: require trust level >= 2 --")
    manager = TrustManager(TrustPolicy.require_level(2), registry)
    decision = manager.evaluate(raw)
    print(f"accepted={decision.accepted}; trust level={decision.trust_level}")

    # --- policy 3: quantified voting --------------------------------------------------
    print("\n-- policy: require at least 3 asserting principals --")
    multi_asserted = p_sum(p_var("a"), p_var("b"), p_var("c")).condense()
    manager = TrustManager(TrustPolicy.require_votes(3), registry)
    for name, annotation in (("a+b+c", multi_asserted), ("a only", condensed)):
        decision = manager.evaluate(annotation)
        print(f"update supported by {name:>6s}: accepted={decision.accepted} "
              f"(votes={decision.votes})")

    print(f"\nacceptance rate of the last manager: {manager.acceptance_rate():.0%}")

    # --- the same decision against a live network --------------------------------
    print("\n-- in-network: provenance fetched by authenticated query --")
    network = Network.build(topology=8, provenance="sendlog-prov", seed=1)
    network.run()
    decider = network.topology.nodes[0]
    update = max(
        network.node(decider).facts("bestPath"), key=lambda f: len(f.values[2])
    )
    manager = TrustManager(
        TrustPolicy.trust_sources(*network.topology.nodes), network.registry
    )
    decision, cost = manager.evaluate_over_network(
        network, update, at=decider, authenticated=True
    )
    print(f"update                : {update}")
    print(f"accepted              : {decision.accepted}")
    print(f"signed responses ok   : {cost.responses_verified} "
          f"(failures {cost.verification_failures})")
    print(f"query wire cost       : {cost.messages} messages, {cost.bytes} bytes, "
          f"{cost.latency * 1000:.1f} ms")


if __name__ == "__main__":
    main()
