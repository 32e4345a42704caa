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
payload renderer is asked to render, how firings end, and how many
``with_metadata`` copies an exported tuple costs. It also counts the receive
schedule: data deliveries, how many of them arrive while their destination is
still busy with an earlier round, and the receive rounds that ran them (under
signed ``says`` a busy node's queued messages run as one round). Under a
signed preset it also prints the sealing traffic: the histogram and mean of
tuples per signed wire message, ``rsa.sign`` / ``rsa.verify`` calls per
message, and the Merkle leaf and inner-node hashes computed. With ``--flaps``
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

    def reset(self) -> None:
        self.clear()


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
    entries = {
        name: getattr(engine, name)
        for name in ("insert_base", "retract_base", "retract_remote")
    }
    round_firings: set = set()  # (node, rule, head, inputs, instant) this round
    evaluate = node_engine.evaluate_plan_with_delta
    outgoing = node_engine.OutgoingFact
    expire, table, insert, remove = Table.expire, Database.table, Table.insert, Table._remove_fact
    render, payload, size, copy = tuples._render_value, Fact.payload, Fact.payload_size, Fact.with_metadata
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
        return receive(self, messages, now)

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
        return handle(self, plan, firing, now, *args)

    def counted_record(self, *args):
        census["_record_derivation calls"] += 1
        annotation = record(self, *args)
        census["_record_derivation calls returning None"] += annotation is None
        return annotation

    def counted_outgoing(*args, **kwargs):
        census["exported tuples"] += 1
        return outgoing(*args, **kwargs)

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
            if not bucket:
                continue
            entries = list(bucket.values()) if isinstance(bucket, dict) else bucket
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
        census["Fact.payload calls"] += 1
        census["Fact.payload renders"] += self._payload_cache is None
        return payload(self)

    def counted_size(self):
        census["Fact.payload_size calls"] += 1
        return size(self)

    def counted_copy(self, **changes):
        census["Fact.with_metadata copies"] += 1
        return copy(self, **changes)

    def counted_seal(self, facts, destination):
        census["signed wire messages sealed"] += 1
        census[f"_tuples per message {len(facts)}"] += 1
        return seal(self, facts, destination)

    def counted_open(self, facts, signature=None):
        census["signed wire messages opened"] += self.mode.requires_signature and bool(facts)
        return open_batch(self, facts, signature)

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
    SimulationKernel._deliver, engine.receive_batch = counted_deliver, counted_receive
    engine._record_derivation = counted_record
    node_engine.evaluate_plan_with_delta = counted_evaluate
    node_engine.OutgoingFact = counted_outgoing
    Table.expire, Database.table = counted_expire, counted_table
    Table.insert, Table._remove_fact = counted_insert, counted_remove
    tuples._render_value = counted_render
    Fact.payload, Fact.payload_size, Fact.with_metadata = counted_payload, counted_size, counted_copy
    return census


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
    exported = census["exported tuples"]
    if exported:
        print(f"{'with_metadata copies per exported tuple':<{width}} "
              f"{census['Fact.with_metadata copies'] / exported:>9.2f}")
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


if __name__ == "__main__":
    main()
