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
polynomial would have cost.  With ``--flaps`` (one-fixpoint deletions) it
counts the shipped base-support polynomials the same way — as support codes
or explicit — and the arguments the codes carry as payload positions or as
literals.  ``--per-tuple`` runs the paper's per-tuple format
(``batching=False``).

With ``--resident`` it counts what each node's provenance keeps after the run
instead, summed over the nodes: annotation objects (the log's, and those its
stored tuples carry) against the distinct values they hold, the pair objects
those annotations are built of against the distinct pairs, the key objects
the log's firings name (output and inputs) against the distinct keys, the
``(key, origin)`` pairs the firings name their inputs by against the distinct
pairs, the firings kept in a list, and the log's annotation table against the
live annotations; plus the bytes the run left allocated (``tracemalloc``).  It
exits 1 when any object repeats a value another holds at the same node, or
any firing sits in a list.

    python tools/poly_census.py --provenance condensed --nodes 20 --flaps 0
    python tools/poly_census.py --shipped --provenance sendlog-prov --nodes 25
    python tools/poly_census.py --shipped --provenance condensed --nodes 20 --flaps 0
    python tools/poly_census.py --resident --provenance sendlog-prov --nodes 25
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys
import tracemalloc
from collections import Counter
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.api import Network  # noqa: E402
from repro.net.events import LinkDown, LinkUp  # noqa: E402
from repro.net.kernel import SimulationKernel  # noqa: E402
from repro.net.topology import random_topology  # noqa: E402
from repro.provenance.polynomial import (  # noqa: E402
    ProvenanceExpression,
    flat_values,
    position_mask,
)

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

        def counted(*arguments, _call=getattr(ProvenanceExpression, name), _c=census):
            result = _call(*arguments)
            # The expressions operated on; a node's pair table is no operand.
            monomials = tuple(
                operand.monomials
                for operand in arguments
                if isinstance(operand, ProvenanceExpression)
            )
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
            if isinstance(fact.support, ProvenanceExpression):
                count_support(census, kernel.engines[source], item)
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
            if item.mask is not None:
                form = "mask"
                census["named by the payload"] += 1
                census["mask bytes"] += position_mask(annotation, flat_values(fact.values))[1]
            else:
                census["explicit bytes"] += explicit
            census[f"{form} tuples"] += 1
            census[f"{form} bytes if explicit"] += explicit
        return dispatch(kernel, source, outgoing, node_stats)

    SimulationKernel._dispatch_outgoing = counted
    return census


def count_support(census: ShippedCensus, engine, item) -> None:
    """One shipped support: its wire form, bytes, and the arguments of a code."""
    fact, code = item.fact, item.code
    support = fact.support
    explicit = support.serialized_size()
    form = "explicit" if code is None else "coded"
    census["supports"] += 1
    census[f"{form} supports"] += 1
    census[f"{form} support bytes"] += explicit if code is None else len(code)
    census[f"{form} support bytes if explicit"] += explicit
    if code is None:
        return
    flat = flat_values(fact.values)[:0x7C]
    for monomial, _ in support.monomials:
        for name, _ in monomial:
            # The variable's template: its relation's byte, then per argument
            # a str to find in the payload or a literal's encoded bytes.
            for part in engine._bases.keys[name][1:]:
                census["positions" if type(part) is str and part in flat else "literals"] += 1


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
    if not census["supports"]:
        return
    print(f"{'support':<10} {'tuples':>8} {'bytes':>9} {'if explicit':>12}")
    for form in ("coded", "explicit"):
        print(
            f"{form:<10} {census[f'{form} supports']:>8} {census[f'{form} support bytes']:>9}"
            f" {census[f'{form} support bytes if explicit']:>12}"
        )
    total = census["coded support bytes"] + census["explicit support bytes"]
    explicit = (
        census["coded support bytes if explicit"] + census["explicit support bytes if explicit"]
    )
    print(f"{'total':<10} {census['supports']:>8} {total:>9} {explicit:>12}")
    arguments = census["positions"] + census["literals"]
    for label in ("positions", "literals"):
        share = f" ({census[label] / arguments:.1%})" if arguments else ""
        print(f"code arguments as {label:<10} {census[label]:>8}{share}")


#: ``--resident`` lines: (label, objects counted, distinct values they hold).
RESIDENT = (
    ("annotations", "annotation objects", "distinct annotations"),
    ("pairs", "pair objects", "distinct pairs"),
    ("keys", "key objects", "distinct keys"),
    ("inputs", "input pair objects", "distinct input pairs"),
)


def count_resident(network) -> Counter:
    """What each node's provenance keeps, summed over the nodes."""
    census = Counter()
    for engine in network.engines.values():
        log = engine.provenance
        live = {id(a): a for a in log._condensed.values()}
        annotations = {id(a): a for a in log._kept.values()}
        annotations.update(live)
        for fact in engine.database.all_facts():
            if isinstance(fact.provenance, ProvenanceExpression):
                annotations[id(fact.provenance)] = fact.provenance
        pairs = {
            id(pair): pair
            for annotation in annotations.values()
            for monomial, _ in annotation.monomials
            for pair in monomial
        }
        keys, inputs = {}, {}
        for firings in log._pointers.values():
            for pointer in firings:
                keys[id(pointer.output)] = pointer.output
                keys.update((id(key), key) for key, _ in pointer.inputs)
                inputs.update((id(located), located) for located in pointer.inputs)
        for (_, objects, distinct), held in zip(
            RESIDENT, (annotations.values(), pairs.values(), keys.values(), inputs.values())
        ):
            census[objects] += len(held)
            census[distinct] += len({
                value.monomials if isinstance(value, ProvenanceExpression) else value
                for value in held
            })
        census["firing lists"] += sum(
            type(firings) is list for firings in log._pointers.values()
        )
        census["table entries"] += len(log._kept)
        census["live annotations"] += len(live)
    return census


def print_resident(census: Counter, traced: int) -> int:
    """Print the ``--resident`` census; 1 when anything is kept twice."""
    duplicates = census["firing lists"]
    for label, objects, distinct in RESIDENT:
        extra = census[objects] - census[distinct]
        duplicates += extra
        print(f"{label:<12} {census[objects]:>8} objects for {census[distinct]:>8} values"
              f"  ({extra} repeated)")
    print(f"{'lists':<12} {census['firing lists']:>8} firings kept in a list")
    print(f"{'table':<12} {census['table entries']:>8} entries for "
          f"{census['live annotations']:>8} live annotations")
    print(f"{'traced':<12} {traced:>8} bytes left allocated by the run")
    return 1 if duplicates else 0


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


def check_sizes(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse sizes no run can have: a negative flap count would slice the
    link list from its end, and a network needs two nodes."""
    if args.flaps is not None and args.flaps < 0:
        parser.error(f"--flaps must be 0 (every link) or more, got {args.flaps}")
    if args.nodes < 2:
        parser.error(f"--nodes must be at least 2, got {args.nodes}")


def main(argv: Optional[List[str]] = None) -> None:
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
    parser.add_argument("--resident", action="store_true",
                        help="count what each node's provenance keeps after the run")
    args = parser.parse_args(argv)
    check_sizes(parser, args)
    if args.resident:
        topology, network = build(args)
        gc.collect()
        tracemalloc.start()
        try:
            run(args, {}, topology, network)
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        sys.exit(print_resident(count_resident(network), traced))
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
