#!/usr/bin/env python3
"""Census of the engine's write path on one named configuration.

Wraps the doors between the delta queue and the tables — from outside
``src/``, nothing in the program counts any of this — runs the configuration
and prints what the traffic looked like: how long the runs of same-relation
deltas are, how many ``Table.expire`` / ``Database.table`` calls had anything
to do, how long an index bucket is when a fact in it is replaced or removed
(and where in it that fact sits: what a list walk would have cost), what the
payload renderer is asked to render, how firings end, and how many
``with_metadata`` copies an exported tuple costs.  Under a signed preset it
also prints the sealing traffic: the histogram of tuples per signed wire
message, ``rsa.sign`` / ``rsa.verify`` calls per message, and the Merkle leaf
and inner-node hashes computed.  With ``--flaps`` the network
converges first and only the link flaps are counted (the write/delete use of
the tables); with ``--opcodes`` the run is traced per bytecode instruction
(about fifty times slower) and the functions are ranked by their share.

    python tools/engine_census.py --provenance ndlog --nodes 40
    python tools/engine_census.py --provenance sendlog-prov --nodes 25
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter, deque

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import poly_census  # noqa: E402  (sibling tool: the build / converge / flap driver)
import repro.engine.node_engine as node_engine  # noqa: E402
import repro.engine.tuples as tuples  # noqa: E402
import repro.security.authenticator as authenticator  # noqa: E402
from repro.api import PROVENANCE_PRESETS  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.engine.table import Table  # noqa: E402
from repro.engine.tuples import Fact  # noqa: E402

class Census(Counter):
    """Named counters; ``reset`` is what the flap driver calls between phases."""

    def reset(self) -> None:
        self.clear()


class _CountingQueue(deque):
    """A delta queue that notes the relation of every delta drained from it."""

    census: Census

    def popleft(self):
        delta = deque.popleft(self)
        census = self.census
        if delta.relation == census.get("_run relation"):
            census["_run length"] += 1
        else:
            _close_run(census)
            census["_run relation"] = delta.relation
            census["_run length"] = 1
        return delta


def _close_run(census: Census) -> None:
    length = census.pop("_run length", 0)
    census.pop("_run relation", None)
    if length:
        census["delta runs"] += 1
        census["deltas"] += length
        census["delta runs of one"] += length == 1
        census["longest delta run"] = max(census["longest delta run"], length)


def install() -> Census:
    """Wrap the write path's doors; returns the live :class:`Census`."""
    census = Census()
    engine = node_engine.NodeEngine
    drain, handle, record = engine._drain, engine._handle_firing, engine._record_derivation
    evaluate = node_engine.evaluate_plan_with_delta
    outgoing = node_engine.OutgoingFact
    expire, table, insert, remove = Table.expire, Database.table, Table.insert, Table._remove_fact
    render, payload, size, copy = tuples._render_value, Fact.payload, Fact.payload_size, Fact.with_metadata
    signer = authenticator.Authenticator
    seal, open_batch = signer.seal_batch, signer.import_batch
    sign, verify = authenticator.sign, authenticator.verify
    leaf, node = authenticator._leaf_hash, authenticator._node_hash

    def counted_drain(self, queue, *args):
        counting = _CountingQueue(queue)
        counting.census = census
        queue.clear()  # _drain runs its queue to empty; the copy stands in
        try:
            return drain(self, counting, *args)
        finally:
            _close_run(census)

    def counted_evaluate(*args, **kwargs):
        census["delta evaluations"] += 1
        return evaluate(*args, **kwargs)

    def counted_handle(self, plan, firing, *args):
        census["firings"] += 1
        census["firings whose destination is a str or None"] += (
            firing.destination is None or type(firing.destination) is str
        )
        return handle(self, plan, firing, *args)

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
    engine._drain, engine._handle_firing = counted_drain, counted_handle
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default="best-path")
    parser.add_argument("--provenance", default="ndlog", choices=sorted(PROVENANCE_PRESETS))
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flaps", type=int, default=None,
                        help="flap K redundant links after convergence (0: all)")
    parser.add_argument("--opcodes", action="store_true",
                        help="also count bytecode instructions per function (slow)")
    args = parser.parse_args()
    census = install()
    topology, network = poly_census.build(args)
    census.reset()  # building (compiling, keys) is not the write path

    def run() -> None:
        poly_census.run(args, {"engine": census}, topology, network)

    executed = trace_opcodes(run) if args.opcodes else run()
    print_census(census)
    if args.opcodes:
        print_opcodes(executed, census["firings"])


if __name__ == "__main__":
    main()
