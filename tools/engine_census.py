#!/usr/bin/env python3
"""Census of the engine's write path on one named configuration.

Wraps the doors between the delta queue and the tables — from outside
``src/``, nothing in the program counts any of this — runs the configuration
and prints what the traffic looked like: how many rule firings were found
twice (the same node, rule, head, inputs and instant within one processing
round; the tool exits 1 unless that is 0), how long the runs of same-relation
deltas are, how many ``Table.expire`` / ``Database.table`` calls had anything
to do, how long an index bucket is when a fact in it is replaced or removed
(and where in it that fact sits: what a list walk would have cost), what the
payload renderer is asked to render, how often a tuple's payload is rendered
(``Fact.payload`` renders on every call; ``Fact.payload_size`` renders once
per fact and keeps the length) per stored row and per shipped tuple (the tool
exits 1 when ``Fact.payload`` renders one shipped tuple more than twice: once
to seal and once to verify), how firings end, and how many ``Fact``
constructions a firing, an admitted tuple and a base insert cost (the tool
exits 1 when a firing builds more than one, a receive round more than the
tuples it admits, or the run more than one per base insert).  After the run
it prints the tables' residency: index buckets by the rows they hold, the
share stored as the bare row, and the type of each table's rows mapping (it
exits 1 when a one-row bucket is a dict or a dict bucket holds fewer than two
rows). It also counts the receive
schedule: data deliveries, how many of them arrive while their destination is
still busy with an earlier round, and the receive rounds that ran them (under
signed ``says`` a busy node's queued messages run as one round). Under a
signed preset it also prints the sealing traffic: the histogram and mean of
tuples per signed wire message, the bytes of each message's seal — its
envelope (principal and first export number, once per message) and its
signature — per message, ``rsa.sign`` / ``rsa.verify`` calls per message,
and the Merkle leaf and inner-node hashes computed. With ``--flaps``
the network converges first and only the link flaps are counted (the
write/delete use of the tables); with ``--opcodes`` the run is traced per
bytecode instruction (about fifty times slower) and the functions are ranked
by their share. A firing's inputs are its joined antecedents, which the joins
collect only when provenance, dependency tracking or re-derivation reads
them; the census asks for them on every other configuration too, except under
``--opcodes``, where it counts the program's own work and leaves duplicates
uncounted there.

    python tools/engine_census.py --provenance ndlog --nodes 40
    python tools/engine_census.py --provenance sendlog-prov --nodes 25
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import poly_census  # noqa: E402  (sibling tool: the build / converge / flap driver)
import repro.engine.node_engine as node_engine  # noqa: E402
import repro.engine.tuples as tuples  # noqa: E402
import repro.security.authenticator as authenticator  # noqa: E402
from repro.api import PROVENANCE_PRESETS  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.engine.table import Table  # noqa: E402
from repro.engine.tuples import Fact  # noqa: E402
from repro.net.kernel import SimulationKernel  # noqa: E402
from repro.net.message import MessageBatch  # noqa: E402

class Census(Counter):
    """Named counters; ``reset`` is what the flap driver calls between phases."""

    def __init__(self) -> None:
        super().__init__()
        #: id -> [a shipped fact, its ``Fact.payload`` renders]; the fact is
        #: held so that its id stays its own.
        self.shipped: dict = {}

    def reset(self) -> None:
        self.clear()
        self.shipped.clear()


def _close_run(census: Census) -> None:
    length = census.pop("_run length", 0)
    census.pop("_run relation", None)
    if length:
        census["delta runs"] += 1
        census["deltas"] += length
        census["delta runs of one"] += length == 1
        census["longest delta run"] = max(census["longest delta run"], length)


def install(identify_firings: bool = True) -> Census:
    """Wrap the write path's doors; returns the live :class:`Census`.

    With *identify_firings* the joins collect every firing's antecedents, so
    a firing found twice is counted under ``firings found twice``.
    """
    census = Census()
    engine = node_engine.NodeEngine
    drain, fire, handle = engine._drain, engine._fire, engine._handle_firing
    record = engine._record_derivation
    deliver, receive = SimulationKernel._deliver, engine.receive_batch
    insert_base = engine.insert_base
    entries = {name: getattr(engine, name) for name in ("retract_base", "retract_remote")}
    round_firings: set = set()  # (node, rule, head, inputs, instant) this round
    shipped = census.shipped
    evaluate = node_engine.evaluate_plan_with_delta
    outgoing = node_engine.OutgoingFact
    expire, table, insert, remove = Table.expire, Database.table, Table.insert, Table._remove_fact
    render, payload, size = tuples._render_value, Fact.payload, Fact.payload_size
    build = Fact.__init__
    signer = authenticator.Authenticator
    seal, open_batch = signer.seal_batch, signer.import_batch
    sign, verify = authenticator.sign, authenticator.verify
    leaf, node = authenticator._leaf_hash, authenticator._node_hash

    def counted_drain(self, *args):
        try:
            return drain(self, *args)
        finally:
            _close_run(census)  # every delta fired this round has drained

    def counted_fire(self, delta, *args):
        if delta.relation == census.get("_run relation"):
            census["_run length"] += 1
        else:
            _close_run(census)
            census["_run relation"] = delta.relation
            census["_run length"] = 1
        return fire(self, delta, *args)

    def round_entry(call):
        def entered(self, *args, **kwargs):
            round_firings.clear()
            return call(self, *args, **kwargs)
        return entered

    def counted_insert_base(self, fact, now=0.0):
        census["base inserts"] += 1
        round_firings.clear()
        return insert_base(self, fact, now)

    def counted_deliver(self, message, deliver_at):
        if isinstance(message, MessageBatch):
            census["data deliveries"] += 1
            busy_until = self.stats.node(message.destination).busy_until
            census["data deliveries arriving busy"] += deliver_at < busy_until
        return deliver(self, message, deliver_at)

    def counted_receive(self, messages, now):
        messages = list(messages)
        census["receive rounds"] += 1
        census["messages run by receive rounds"] += len(messages)
        round_firings.clear()
        built, in_firings = census["Fact constructions"], census["Fact constructions in firings"]
        result = receive(self, messages, now)
        built = census["Fact constructions"] - built
        built -= census["Fact constructions in firings"] - in_firings
        admitted = result.report.facts_received - result.report.facts_rejected
        census["tuples admitted"] += admitted
        census["Fact constructions admitting tuples"] += built
        census["receive rounds building more Facts than tuples admitted"] += built > admitted
        return result

    def counted_evaluate(*args, **kwargs):
        census["delta evaluations"] += 1
        if identify_firings:
            kwargs["collect_antecedents"] = True
        return evaluate(*args, **kwargs)

    def counted_handle(self, plan, firing, now, *args):
        census["firings"] += 1
        if identify_firings:
            found = (
                self.address, plan.label, firing.head_values,
                tuple(antecedent.key() for antecedent in firing.antecedents), now,
            )
            census["firings found twice"] += found in round_firings
            round_firings.add(found)
        census["firings whose destination is a str or None"] += (
            firing.destination is None or type(firing.destination) is str
        )
        built = census["Fact constructions"]
        handle(self, plan, firing, now, *args)
        built = census["Fact constructions"] - built
        census["Fact constructions in firings"] += built
        census["firings building more than one Fact"] += built > 1

    def counted_record(self, *args):
        census["_record_derivation calls"] += 1
        annotation = record(self, *args)
        census["_record_derivation calls returning None"] += annotation is None
        return annotation

    def counted_outgoing(*args, **kwargs):
        census["exported tuples"] += 1
        item = outgoing(*args, **kwargs)
        shipped[id(item.fact)] = [item.fact, 0]
        # The export charge sizes a tuple before its item exists.
        census["Fact.payload_size renders of shipped tuples"] += (
            item.fact._payload_size is not None
        )
        return item

    def counted_expire(self, now):
        census["Table.expire calls"] += 1
        census["Table.expire calls with nothing due"] += (
            not self._soft_count or now < self._next_expiry
        )
        return expire(self, now)

    def counted_table(self, relation, arity=None):
        census["Database.table calls"] += 1
        census["Database.table calls creating a table"] += relation not in self
        return table(self, relation, arity=arity)

    def walk(self, fact, kind):
        """What finding *fact* costs in each index bucket holding it."""
        for columns, index in self._indexes.items():
            bucket = index.get(self._index_getters[columns](fact.values))
            if bucket is None:
                continue
            entries = list(bucket.values()) if type(bucket) is dict else [bucket]
            position = next((i for i, f in enumerate(entries) if f is fact), None)
            if position is None:
                continue
            census[f"{kind}: buckets touched"] += 1
            census[f"{kind}: entries in those buckets"] += len(entries)
            census[f"{kind}: entries before the fact (a list walk)"] += position
            census[f"{kind}: fact was the last entry"] += position == len(entries) - 1

    def counted_insert(self, fact, now=None):
        census["Table.insert calls"] += 1
        existing = self._rows.get(self._primary_key(fact.values))
        if existing is not None and existing.values == fact.values:
            census["Table.insert refreshes"] += 1
            walk(self, existing, "index replace")
        return insert(self, fact, now=now)

    def counted_remove(self, key, fact):
        census["Table._remove_fact calls"] += 1
        walk(self, fact, "index remove")
        return remove(self, key, fact)

    def counted_render(value):
        census[f"_render_value({type(value).__name__})"] += 1
        if isinstance(value, (tuple, list)):
            kinds = {type(element) for element in value}
            census["_render_value sequences of str only"] += kinds <= {str}
        return render(value)

    def counted_payload(self):
        census["Fact.payload renders"] += 1
        entry = shipped.get(id(self))
        if entry is not None:
            census["Fact.payload renders of shipped tuples"] += 1
            entry[1] += 1
            census["shipped tuples rendered more than twice by Fact.payload"] += entry[1] == 3
        return payload(self)

    def counted_size(self):
        census["Fact.payload_size calls"] += 1
        if self._payload_size is None:
            census["Fact.payload_size renders"] += 1
            census["Fact.payload_size renders of shipped tuples"] += id(self) in shipped
        return size(self)

    def counted_build(self, *args, **kwargs):
        census["Fact constructions"] += 1
        build(self, *args, **kwargs)

    def counted_seal(self, facts, destination):
        census["signed wire messages sealed"] += 1
        census[f"_tuples per message {len(facts)}"] += 1
        sealed = seal(self, facts, destination)
        census["_signature bytes"] += len(sealed.signature)
        census["_envelope bytes"] += sealed.wire_bytes() - len(sealed.signature)
        return sealed

    def counted_open(self, carried, sealed=None):
        census["signed wire messages opened"] += bool(carried)
        return open_batch(self, carried, sealed)

    def counted_sign(*args):
        census["rsa.sign calls"] += 1
        return sign(*args)

    def counted_verify(*args):
        census["rsa.verify calls"] += 1
        return verify(*args)

    def counted_leaf(*args):
        census["Merkle leaf hashes"] += 1
        return leaf(*args)

    def counted_node(*args):
        census["Merkle inner hashes"] += 1
        return node(*args)

    signer.seal_batch, signer.import_batch = counted_seal, counted_open
    authenticator.sign, authenticator.verify = counted_sign, counted_verify
    authenticator._leaf_hash, authenticator._node_hash = counted_leaf, counted_node
    engine._drain, engine._fire = counted_drain, counted_fire
    engine._handle_firing = counted_handle
    for name, call in entries.items():
        setattr(engine, name, round_entry(call))
    engine.insert_base = counted_insert_base
    SimulationKernel._deliver, engine.receive_batch = counted_deliver, counted_receive
    engine._record_derivation = counted_record
    node_engine.evaluate_plan_with_delta = counted_evaluate
    node_engine.OutgoingFact = counted_outgoing
    Table.expire, Database.table = counted_expire, counted_table
    Table.insert, Table._remove_fact = counted_insert, counted_remove
    tuples._render_value = counted_render
    Fact.payload, Fact.payload_size, Fact.__init__ = counted_payload, counted_size, counted_build
    return census


def count_residency(network) -> Counter:
    """How the tables of every node keep their rows after the run: index
    buckets by the rows they hold and by form (a bare row or a dict), and
    the type of each table's rows mapping."""
    residency = Counter()
    for engine in network.engines.values():
        for table in engine.database.by_name.values():
            residency[f"rows mapping: {type(table._rows).__name__}"] += 1
            for index in table._indexes.values():
                for bucket in index.values():
                    rows = len(bucket) if type(bucket) is dict else 1
                    residency[f"_buckets of {rows}"] += 1
                    residency["index buckets"] += 1
                    if type(bucket) is dict:
                        residency["dict buckets"] += 1
                        residency["dict buckets of fewer than two rows"] += rows < 2
                    else:
                        residency["bare buckets"] += 1
                        residency["bare buckets that are not a Fact"] += (
                            not isinstance(bucket, Fact)
                        )
    return residency


def print_renders_per_row(census: Census, network) -> None:
    """Payload renders of the tuples the run did not ship, per row stored
    after it (a row keeps no rendering, so a refresh renders anew)."""
    rows = sum(
        len(table) for engine in network.engines.values()
        for table in engine.database.by_name.values()
    )
    local = sum(
        census[f"{kind} renders"] - census[f"{kind} renders of shipped tuples"]
        for kind in ("Fact.payload", "Fact.payload_size")
    )
    print(f"rows stored after the run {rows}; renders of unshipped tuples per "
          f"stored row {local / max(rows, 1):.2f}")


def print_residency(residency: Counter) -> int:
    """Print the table-residency section; 1 when a bucket has the wrong form."""
    print("table residency")
    histogram = sorted(
        (int(name.rsplit(" ", 1)[1]), count)
        for name, count in residency.items()
        if name.startswith("_buckets of ")
    )
    print("  index buckets by rows held (rows: buckets): "
          + ", ".join(f"{rows}: {count}" for rows, count in histogram))
    width = max(len(name) for name in residency)
    for name, count in residency.items():
        if not name.startswith("_"):
            print(f"  {name:<{width}} {count:>9}")
    if residency["index buckets"]:
        print(f"  {'share of buckets stored bare':<{width}} "
              f"{residency['bare buckets'] / residency['index buckets']:>9.1%}")
    return int(bool(
        residency["dict buckets of fewer than two rows"]
        or residency["bare buckets that are not a Fact"]
    ))


def trace_opcodes(run) -> Counter:
    """Run *run()* counting executed bytecode instructions per code object.

    Frames of this tool and its driver (the counting wrappers, the flap
    loop) are left out: the count is the program's.
    """
    executed: Counter = Counter()
    tools = os.path.dirname(os.path.abspath(__file__))

    def local(frame, event, _arg):
        if event == "opcode":
            executed[frame.f_code] += 1
        return local

    def enter(frame, _event, _arg):
        if os.path.dirname(frame.f_code.co_filename) == tools:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(None)
    return executed


def print_census(census: Census) -> None:
    width = max((len(name) for name in census), default=0)
    for name, count in census.items():
        if not name.startswith("_"):
            print(f"{name:<{width}} {count:>9}")
    rounds = census["receive rounds"]
    if rounds:
        print(f"{'messages per receive round':<{width}} "
              f"{census['messages run by receive rounds'] / rounds:>9.2f}")
    delivered = census["data deliveries"]
    if delivered:
        print(f"{'share of data deliveries arriving busy':<{width}} "
              f"{census['data deliveries arriving busy'] / delivered:>9.1%}")
    census["Fact constructions for base inserts"] = (
        census["Fact constructions"]
        - census["Fact constructions in firings"]
        - census["Fact constructions admitting tuples"]
    )
    print(f"{'Fact constructions for base inserts':<{width}} "
          f"{census['Fact constructions for base inserts']:>9}")
    for label, built, made in (
        ("firing", "Fact constructions in firings", "firings"),
        ("admitted tuple", "Fact constructions admitting tuples", "tuples admitted"),
        ("base insert", "Fact constructions for base inserts", "base inserts"),
    ):
        if census[made]:
            print(f"{'Fact constructions per ' + label:<{width}} "
                  f"{census[built] / census[made]:>9.2f}")
    exported = census["exported tuples"]
    if exported:
        for kind in ("Fact.payload", "Fact.payload_size"):
            print(f"{kind + ' renders per shipped tuple':<{width}} "
                  f"{census[kind + ' renders of shipped tuples'] / exported:>9.2f}")
    sealed = census["signed wire messages sealed"]
    if sealed:
        histogram = sorted(
            (int(name.rsplit(" ", 1)[1]), count)
            for name, count in census.items()
            if name.startswith("_tuples per message ")
        )
        print("tuples per signed wire message (size: messages): "
              + ", ".join(f"{size}: {count}" for size, count in histogram))
        tuples = sum(size * count for size, count in histogram)
        print(f"{'tuples per signed wire message':<{width}} {tuples / sealed:>9.2f}")
        for part in ("envelope", "signature"):
            print(f"{part + ' bytes per signed wire message':<{width}} "
                  f"{census[f'_{part} bytes'] / sealed:>9.2f}")
        print(f"{'rsa.sign calls per message sealed':<{width}} "
              f"{census['rsa.sign calls'] / sealed:>9.2f}")
        opened = census["signed wire messages opened"]
        print(f"{'rsa.verify calls per message opened':<{width}} "
              f"{census['rsa.verify calls'] / max(opened, 1):>9.2f}")


def print_opcodes(executed: Counter, firings: int) -> None:
    total = sum(executed.values())
    print(f"bytecode instructions {total:,} ({total / max(firings, 1):,.0f} per firing)")
    for code, count in executed.most_common(15):
        where = os.path.basename(code.co_filename)
        print(f"  {count / total:>6.1%} {count:>11,}  {where}:{code.co_firstlineno} {code.co_name}")


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default="best-path")
    parser.add_argument("--provenance", default="ndlog", choices=sorted(PROVENANCE_PRESETS))
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flaps", type=int, default=None,
                        help="flap K redundant links after convergence (0: all)")
    parser.add_argument("--opcodes", action="store_true",
                        help="also count bytecode instructions per function (slow)")
    args = parser.parse_args(argv)
    poly_census.check_sizes(parser, args)
    census = install(identify_firings=not args.opcodes)
    topology, network = poly_census.build(args)
    census.reset()  # building (compiling, keys) is not the write path

    def run() -> None:
        poly_census.run(args, {"engine": census}, topology, network)

    executed = trace_opcodes(run) if args.opcodes else run()
    print_census(census)
    if args.opcodes:
        print_opcodes(executed, census["firings"])
        return
    if census["firings found twice"]:
        sys.exit("a rule firing was found twice within one processing round")
    if census["firings building more than one Fact"]:
        sys.exit("a rule firing built more than one Fact")
    if census["receive rounds building more Facts than tuples admitted"]:
        sys.exit("a receive round built more than one Fact per tuple it admitted")
    if census["Fact constructions for base inserts"] > census["base inserts"]:
        sys.exit("the run built more than one Fact per base insert")
    print_renders_per_row(census, network)
    if census["shipped tuples rendered more than twice by Fact.payload"]:
        sys.exit("Fact.payload rendered a shipped tuple more than twice")
    if print_residency(count_residency(network)):
        sys.exit("an index bucket of one row is not the bare row, or a dict bucket "
                 "holds fewer than two rows")


if __name__ == "__main__":
    main()
