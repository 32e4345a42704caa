#!/usr/bin/env python3
"""Census of the provenance algebra's traffic on one named configuration.

Wraps ``ProvenanceExpression.__mul__`` / ``__add__`` / ``absorb`` /
``condense`` with counters, runs the configuration, and prints per operation:
calls, the operand monomial-count histogram, the share of calls whose result
equals an operand (work whose answer is its own argument) and the number of
distinct operand tuples (what a hash-consed DAG would compute once).  With
``--flaps`` the network converges first and only the link flaps are counted.

With ``--shipped`` it counts the annotations the run ships instead: how many
are one monomial, how many the tuple's own payload names (so they travel as a
position mask), how many repeat an annotation already sent on the same link,
and the annotation bytes of each wire form — as shipped, and as the explicit
polynomial would have cost.  ``--per-tuple`` runs the paper's per-tuple
format (``batching=False``).

    python tools/poly_census.py --provenance condensed --nodes 20 --flaps 0
    python tools/poly_census.py --shipped --provenance sendlog-prov --nodes 25
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.api import Network  # noqa: E402
from repro.net.events import LinkDown, LinkUp  # noqa: E402
from repro.net.kernel import SimulationKernel  # noqa: E402
from repro.net.topology import random_topology  # noqa: E402
from repro.provenance.polynomial import ProvenanceExpression, position_mask  # noqa: E402

OPERATIONS = ("__mul__", "__add__", "absorb", "condense")


class Census:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.shapes: Counter = Counter()
        self.identity = 0
        self.operands: set = set()


def install() -> dict:
    """Wrap each operation on the class; returns name -> :class:`Census`."""
    table = {}
    for name in OPERATIONS:
        census = table[name] = Census()

        def counted(*operands, _call=getattr(ProvenanceExpression, name), _c=census):
            result = _call(*operands)
            monomials = tuple(operand.monomials for operand in operands)
            _c.calls += 1
            _c.shapes[tuple(len(m) for m in monomials)] += 1
            _c.identity += result.monomials in monomials
            _c.operands.add(monomials)
            return result

        setattr(ProvenanceExpression, name, counted)
    return table


class ShippedCensus(Counter):
    def reset(self) -> None:
        self.clear()


def install_shipped() -> ShippedCensus:
    """Count every annotation the kernel ships, by wire form."""
    census = ShippedCensus()
    sent_on_link: dict = {}
    dispatch = SimulationKernel._dispatch_outgoing

    def counted(kernel, source, outgoing, node_stats):
        for item in outgoing:
            fact = item.fact
            annotation = fact.provenance
            if not isinstance(annotation, ProvenanceExpression):
                continue
            explicit = annotation.serialized_size()
            census["shipped"] += 1
            census["one monomial"] += len(annotation.monomials) == 1
            link = sent_on_link.setdefault((source, item.destination), set())
            census["repeat on their link"] += annotation.monomials in link
            link.add(annotation.monomials)
            form = "explicit"
            if fact.annotation_mask is not None:
                form = "mask"
                census["named by the payload"] += 1
                census["mask bytes"] += position_mask(annotation, fact.values)[1]
            else:
                census["explicit bytes"] += explicit
            census[f"{form} tuples"] += 1
            census[f"{form} bytes if explicit"] += explicit
        return dispatch(kernel, source, outgoing, node_stats)

    SimulationKernel._dispatch_outgoing = counted
    return census


def print_shipped(census: ShippedCensus) -> None:
    shipped = census["shipped"]
    for label in ("shipped", "one monomial", "named by the payload", "repeat on their link"):
        share = f" ({census[label] / shipped:.1%})" if shipped and label != "shipped" else ""
        print(f"annotations {label:<22} {census[label]:>8}{share}")
    print(f"{'wire form':<10} {'tuples':>8} {'bytes':>9} {'if explicit':>12}")
    for form in ("mask", "explicit"):
        print(
            f"{form:<10} {census[f'{form} tuples']:>8} {census[f'{form} bytes']:>9}"
            f" {census[f'{form} bytes if explicit']:>12}"
        )
    total = census["mask bytes"] + census["explicit bytes"]
    explicit = census["mask bytes if explicit"] + census["explicit bytes if explicit"]
    print(f"{'total':<10} {shipped:>8} {total:>9} {explicit:>12}")


def build(args: argparse.Namespace):
    """The named configuration, not yet run: ``(topology, network)``."""
    topology = random_topology(args.nodes, seed=args.seed)
    churn = {}
    if args.flaps is not None:
        churn = dict(default_ttl=1e6, track_dependencies=True, rederivation=True)
    network = Network.build(
        topology=topology, program=args.program, provenance=args.provenance,
        # engine_census.py shares this driver without a --per-tuple flag.
        seed=args.seed, batching=not getattr(args, "per_tuple", False), **churn,
    )
    return topology, network


def run(args: argparse.Namespace, table: dict, topology, network) -> None:
    """Converge; with ``--flaps`` reset *table* and flap the links."""
    assert network.run().converged, "the network did not converge"
    if args.flaps is None:
        return
    for census in table.values():
        census.reset()  # count the flaps only
    links = list(topology.redundant_links())
    random.Random(args.seed + 1).shuffle(links)
    for link in links[: args.flaps] if args.flaps else links:
        for event in (LinkDown, LinkUp):
            network.schedule(event(
                time=network.current_time() + 1.0,
                source=link.source, destination=link.destination,
            ))
            assert network.run_until_idle(), "a flap did not settle"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default="best-path")
    parser.add_argument("--provenance", default="condensed",
                        choices=("condensed", "sendlog-prov"))
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flaps", type=int, default=None,
                        help="flap K redundant links after convergence (0: all)")
    parser.add_argument("--shipped", action="store_true",
                        help="count the shipped annotations by wire form instead")
    parser.add_argument("--per-tuple", action="store_true",
                        help="the paper's per-tuple format (batching off)")
    args = parser.parse_args()
    if args.shipped:
        census = install_shipped()
        run(args, {"shipped": census}, *build(args))
        print_shipped(census)
        return
    table = install()
    run(args, table, *build(args))
    print(f"{'operation':<10} {'calls':>7} {'identity':>9} {'distinct':>9}  operand monomial counts")
    for name, census in table.items():
        share = census.identity / census.calls if census.calls else 0.0
        shapes = ", ".join(
            f"{'x'.join(map(str, shape))}: {count}"
            for shape, count in census.shapes.most_common(4)
        )
        print(f"{name:<10} {census.calls:>7} {share:>9.1%} {len(census.operands):>9}  {shapes}")


if __name__ == "__main__":
    main()
