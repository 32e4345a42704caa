"""The provenance write path's work budget, as exact counts.

Seconds cannot gate CI on a shared box; these counters can.  One fixed churn
script (N=8, ``condensed``, dependency tracking and one-fixpoint deletions on,
convergence then two link flaps) and one ``sendlog-prov`` fixpoint are run
under counting wrappers: the polynomial kernel allocates at most half of what
the ``Counter``-based kernel it replaced did, condenses once per product, and
renders each shipped annotation once — while leaving every fact, statistic
and stored polynomial exactly as the reference kernel
(``test_polynomial_kernel.py``) leaves them.

The one-signature budget: a wire message costs one ``rsa.sign`` and one
``rsa.verify`` — over the Merkle root of its tuples — whether or not
annotations ride on them, so the paper's per-tuple format (``batching=False``)
still pays one of each per tuple; and ``ndlog`` never enters
``repro.security`` while rules fire.

The one-log budget (PR 22) is pinned the same way: a recorded firing builds
exactly one ``ProvenancePointer`` and nothing else — no ``OperatorNode``, no
``DerivationGraph`` call; graph views are built on read, one operator per
pointer; and ``ndlog`` never enters ``repro.provenance`` while rules fire.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import hashlib
import random
import sys

from test_polynomial_kernel import patch_reference_kernel

from repro.api import Network
from repro.engine import node_engine
from repro.net.events import LinkDown, LinkUp
from repro.net.topology import random_topology
from repro.provenance.graph import OperatorNode
from repro.provenance import log
from repro.provenance.log import DerivationLog, ProvenancePointer
from repro.provenance.polynomial import ProvenanceExpression
from repro.security import authenticator

SEED = 4
#: ``ProvenanceExpression.__init__`` calls of this script at the parent
#: commit (the ``Counter`` kernel, ``join_all`` seeded with ``axiomatic()``).
PARENT_EXPRESSIONS_BUILT = 2909
#: Annotations this script's receivers rebuild from position masks.
REBUILT = 184
#: Supports this script's receivers rebuild from support codes.
DECODED = 194


def churn_script() -> Network:
    topology = random_topology(8, seed=SEED)
    links = list(topology.redundant_links())
    random.Random(SEED + 1).shuffle(links)
    network = Network.build(
        topology=topology,
        program="best-path",
        provenance="condensed",
        default_ttl=1e6,
        track_dependencies=True,
        rederivation=True,
    )
    assert network.run().converged
    for link in links[:2]:
        for event in (LinkDown, LinkUp):
            network.schedule(
                event(
                    time=network.current_time() + 1.0,
                    source=link.source,
                    destination=link.destination,
                )
            )
            assert network.run_until_idle()
    return network


def count_calls(monkeypatch, owner, name, counts) -> None:
    call = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return call(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def count_counters_built_by_provenance(monkeypatch, counts) -> None:
    build = collections.Counter.__init__

    def counted(self, *args, **kwargs):
        if "/provenance/" in sys._getframe(1).f_code.co_filename:
            counts["Counter"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(collections.Counter, "__init__", counted)


def state_of(network: Network) -> dict:
    """Everything the kernel could have changed, in comparable form."""
    relations = ("link", "path", "bestPath", "bestPathCost")
    return {
        "facts": {
            relation: sorted(repr(fact.values) for fact in network.all_facts(relation))
            for relation in relations
        },
        "summary": network.stats.summary(),
        "annotations": {
            address: {
                key: annotation.monomials
                for key, annotation in engine.provenance._condensed.items()
            }
            for address, engine in network.engines.items()
        },
        "supports": {
            address: {key: poly.monomials for key, poly in engine._support.items()}
            for address, engine in network.engines.items()
        },
    }


def test_churn_condenses_once_per_product_and_builds_under_half_the_expressions(
    monkeypatch,
):
    counts = collections.Counter()
    with monkeypatch.context() as patch:
        for name in ("__init__", "__mul__", "__add__", "condense"):
            count_calls(patch, ProvenanceExpression, name, counts)
        count_calls(patch, DerivationLog, "append", counts)
        # The one product, of annotations in the log and of supports in
        # the engine.
        count_calls(patch, log, "join_all", counts)
        count_calls(patch, node_engine, "join_all", counts)
        count_calls(patch, node_engine, "from_position_mask", counts)
        count_calls(patch, node_engine, "from_support_code", counts)
        count_counters_built_by_provenance(patch, counts)
        state = state_of(churn_script())

    assert counts["Counter"] == 0
    # One append per firing, each found once.
    assert counts["append"] == 358
    assert counts["join_all"] == 358 + 358
    # One condense per annotation product and one per support product; the
    # merges that follow them find the stored polynomial unchanged and stop.
    assert counts["condense"] == 358 + 358
    assert counts["__add__"] == 0
    assert counts["__mul__"] == 482
    # Plus one expression per annotation a receiver rebuilds from the
    # position mask it travelled as, and one per support it rebuilds from a
    # support code (681 when both travelled as their polynomials).
    assert counts["from_position_mask"] == REBUILT
    assert counts["from_support_code"] == DECODED
    assert counts["__init__"] == 681 + REBUILT + DECODED
    assert counts["__init__"] <= 0.5 * PARENT_EXPRESSIONS_BUILT

    # The same script on the reference kernel: same network, more work.
    reference = collections.Counter()
    with monkeypatch.context() as patch:
        patch_reference_kernel(patch)
        count_calls(patch, ProvenanceExpression, "__init__", reference)
        reference_state = state_of(churn_script())
    assert reference["__init__"] > counts["__init__"]
    assert state == reference_state
    assert state["summary"]["facts_retracted"] > 0  # the flaps did delete state


#: The churn script's shipped supports: those that travel as support codes
#: and as renderings, their variables, the variables' arguments by form, and
#: the supports' wire bytes (the codes' as renderings in brackets).
SUPPORTS = {"coded": 194, "explicit": 0}
VARIABLES = 541
ARGUMENTS = {"position": 1058, "int": 0, "float": 541, "str literal": 24}
SUPPORT_BYTES, AS_RENDERINGS = 3165, 10626


def test_churn_ships_each_support_as_a_code_relative_to_its_payload(monkeypatch):
    """Every support of the churn script names ``link`` tuples whose
    endpoints the payload carries, so each travels as a code: the endpoints
    as positions, the cost as a literal.  Nothing parses a rendering and no
    coded support is ever rendered — not by the sender, which sizes the
    code, nor by the receiver, which rebuilds the polynomial from it."""
    counts, coded = collections.Counter(), {}
    encode, decode = node_engine.support_code, node_engine.from_support_code
    render = ProvenanceExpression._render

    def counted_encode(support, flat, table):
        code = encode(support, flat, table)
        if code is None:
            counts["explicit"] += 1
            counts["bytes"] += len(render(support).encode())
            return None
        counts["coded"] += 1
        counts["bytes"] += len(code)
        counts["as renderings"] += len(render(support).encode())
        coded[id(support)] = support
        for monomial, _ in support.monomials:
            for name, _ in monomial:
                counts["variables"] += 1
                # The variable's template: its relation's byte, then per
                # argument a str to find in the payload or a tagged literal.
                for part in table.keys[name][1:]:
                    if type(part) is bytes:
                        counts["int" if part[0] == 0x7C else "float"] += 1
                    elif part in flat[:0x7C]:
                        counts["position"] += 1
                    else:
                        counts["str literal"] += 1
        return code

    def counted_decode(code, flat, table):
        support = decode(code, flat, table)
        coded[id(support)] = support
        return support

    def counted_render(self):
        counts["coded renders"] += id(self) in coded
        return render(self)

    with monkeypatch.context() as patch:
        patch.setattr(node_engine, "support_code", counted_encode)
        patch.setattr(node_engine, "from_support_code", counted_decode)
        patch.setattr(ProvenanceExpression, "_render", counted_render)
        count_calls(patch, ast, "literal_eval", counts)
        churn_script()

    assert {form: counts[form] for form in SUPPORTS} == SUPPORTS
    assert counts["variables"] == VARIABLES
    assert {form: counts[form] for form in ARGUMENTS} == ARGUMENTS
    assert (counts["bytes"], counts["as renderings"]) == (SUPPORT_BYTES, AS_RENDERINGS)
    assert counts["literal_eval"] == counts["coded renders"] == 0


def build(provenance: str, **options) -> Network:
    return Network.build(
        topology=8, program="best-path", provenance=provenance, seed=SEED, **options
    )


def fixpoint(provenance: str, **options) -> Network:
    network = build(provenance, **options)
    assert network.run().converged
    return network


#: The ``sendlog-prov`` fixpoint's shipped annotations: tuples shipped (one
#: annotation each), those that travel as position masks, and the provenance
#: bytes on the wire.
SHIPPED, MASKS, PROVENANCE_BYTES = 174, 163, 475


def test_sendlog_prov_renders_each_shipped_annotation_once(monkeypatch):
    counts, rebuilt = collections.Counter(), {}
    render = ProvenanceExpression._render
    mask, unmask = node_engine.position_mask, node_engine.from_position_mask

    def counted_mask(annotation, flat):
        packed = mask(annotation, flat)
        counts["explicit" if packed is None else "mask"] += 1
        return packed

    def kept_unmask(bits, flat):
        annotation = unmask(bits, flat)
        rebuilt[id(annotation)] = annotation
        return annotation

    def counted_render(self):
        counts["_render"] += 1
        counts["rebuilt renders"] += id(self) in rebuilt
        return render(self)

    with monkeypatch.context() as patch:
        for name in ("to_string", "condense"):
            count_calls(patch, ProvenanceExpression, name, counts)
        count_calls(patch, DerivationLog, "append", counts)
        count_counters_built_by_provenance(patch, counts)
        patch.setattr(node_engine, "position_mask", counted_mask)
        patch.setattr(node_engine, "from_position_mask", kept_unmask)
        patch.setattr(ProvenanceExpression, "_render", counted_render)
        network = fixpoint("sendlog-prov")

    summary = network.stats.summary()
    shipped = summary["tuples_sent"]  # one annotation each
    assert shipped == SHIPPED
    # The annotations the payload names travel as position masks; the rest
    # as explicit polynomials (before masks, all of them did).
    assert counts["mask"] == len(rebuilt) == MASKS
    assert counts["explicit"] == shipped - MASKS
    assert summary["provenance_bytes"] == PROVENANCE_BYTES
    # The sender's Merkle leaf and the receiver's read every rendering, and
    # the wire size an explicit one's; the sender renders each annotation
    # once, and a receiver's rebuilt copy arrives rendered.  (Were
    # ``3 * shipped`` reads, 522, for ``shipped`` renders.)
    assert counts["to_string"] == 2 * shipped + counts["explicit"]
    assert counts["_render"] == shipped
    assert counts["rebuilt renders"] == 0
    # One per firing.
    assert counts["condense"] == counts["append"] == 334
    assert counts["Counter"] == 0

    with monkeypatch.context() as patch:
        patch_reference_kernel(patch)
        reference = fixpoint("sendlog-prov")
    assert state_of(network) == state_of(reference)


# -- the one-signature budget ------------------------------------------------------


@contextlib.contextmanager
def calls_into(package_path: str):
    """Python-level calls into files under *package_path*, by qualified name."""
    calls = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call" and package_path in frame.f_code.co_filename:
            module = frame.f_code.co_filename.rsplit("/", 1)[1]
            calls[f"{module}:{frame.f_code.co_qualname}"] += 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def run_counting_security(provenance: str, **options):
    network = build(provenance, **options)
    with calls_into("/repro/security/") as calls:
        assert network.run().converged
    return network, calls


def test_a_shipped_tuple_is_signed_once_and_verified_once():
    """The paper's per-tuple format (``batching=False``): ``sendlog-prov``
    pays what ``sendlog`` pays per tuple, one ``rsa.sign`` by the sender and
    one ``rsa.verify`` by the receiver — each wire message is one tuple, and
    its annotation rides inside its Merkle leaf, not under a signature of
    its own."""
    for provenance, shipped in (("sendlog-prov", 171), ("sendlog", 171)):
        network, calls = run_counting_security(provenance, batching=False)
        summary = network.stats.summary()
        assert summary["tuples_sent"] == summary["total_messages"] == shipped
        assert calls["rsa.py:sign"] == summary["signatures_created"] == shipped
        # Every delivered tuple is either admitted or rejected, after exactly
        # one verification; nothing is lost or rejected in this run.
        received = sum(node.tuples_received for node in network.stats.nodes.values())
        assert received == shipped
        assert calls["rsa.py:verify"] == summary["signatures_verified"] == received
        assert summary["facts_verified"] == shipped
        assert summary["verification_failures"] == summary["facts_rejected"] == 0


def test_a_wire_message_is_signed_once_and_verified_once():
    """The default batched format: one ``rsa.sign`` per data message shipped
    and one ``rsa.verify`` per signed message received, however many tuples
    each carries; every tuple is still verified (admitted) on its own."""
    for provenance, messages, shipped in (("sendlog-prov", 93, 174), ("sendlog", 95, 181)):
        network, calls = run_counting_security(provenance)
        summary = network.stats.summary()
        assert summary["total_messages"] == summary["batches_sent"] == messages
        assert summary["tuples_sent"] == shipped
        assert calls["rsa.py:sign"] == summary["signatures_created"] == messages
        received = sum(node.messages_received for node in network.stats.nodes.values())
        assert received == messages
        assert calls["rsa.py:verify"] == summary["signatures_verified"] == received
        assert summary["facts_verified"] == shipped
        assert summary["verification_failures"] == summary["facts_rejected"] == 0


#: sha256 over every ``sealed_bytes`` result of the ``sendlog-prov`` fixpoint
#: in the paper's per-tuple format (``batching=False``): recorded when each
#: tuple was signed on its own, before one signature covered a message's
#: Merkle root — the leaves are those same sealed bytes.  Re-recorded when
#: the engine began to find each firing once: the rounds bill fewer firings,
#: so the deliveries interleave otherwise and 171 tuples ship instead of 166
#: (was ``a9a5faf2c69d49f44fa9478c31c37cd7aa5ab3099863a7054fdff2b72a68658e``).
PER_TUPLE_SEALED_DIGEST = "a1e6f9656f48604ca7aea118d040047d699bb1dab5c739146cc042d7f1bf8fe2"

#: The same digest at the default ``batching=True``, re-recorded when sealing
#: moved from each firing to each wire message (the cheaper signing charge
#: shifted the schedule: 163 tuples shipped instead of 166, was
#: ``20c7c072dd6e51a345b2320a7ae2256c182854e0c2eef1e10aa308e6ff5dc6ea``), and
#: again when a busy node began running its queued messages as one round:
#: 176 tuples ship in 88 messages instead of 163 in 95 (was
#: ``7b24c8a96a1784a0127c52a77e765c62cecbd036e1b5468bf6ccc9a3d1324e6d``), and
#: again when annotations the payload names began to travel as position
#: masks: the smaller messages reorder the deliveries, so the same 352 leaves
#: are built in another order (was
#: ``0f591ac689fb9b6b7e9870bfcc860b8e56edea52edb233fe6a6a0829f9f4cdef``), and
#: again when the engine began to find each firing once: 174 tuples ship in
#: 93 messages instead of 176 in 88 (was
#: ``1d6a316d79bfa2bd2925259bcf67fae8214420e13e2f918f3ab197c06ab0194c``), and
#: again when numbering moved from each firing to each sealed message: a
#: message's tuples take consecutive numbers, so a sender whose round ships
#: to several destinations numbers its tuples per destination instead of in
#: derivation order.  The same 174 tuples ship in the same 93 messages, and
#: the leaves with their number left out are the same multiset (was
#: ``6dfcb0b0806dbe1a40e91bc0db2e1fe5992c8691fcd6092b3f0c6df9c005ecaf``).
#: The per-tuple digest above does not move: a one-tuple message is numbered
#: in derivation order as before.
SEALED_BYTES_DIGEST = "2b065ccd88ec1adb8118c2875d726526775ce0cf6d9c6dc3d165ebbb6cccbce8"


def test_signatures_cover_the_same_bytes(monkeypatch):
    """The leaves render the annotation and the support with ``str``; the
    bytes sealed and opened must not move when their type does, nor when
    one signature covers a message of them instead of each alone."""
    for options, expected in (
        ({"batching": False}, PER_TUPLE_SEALED_DIGEST),
        ({}, SEALED_BYTES_DIGEST),
    ):
        digest, calls = hashlib.sha256(), collections.Counter()
        seal = authenticator.sealed_bytes

        def hashed(payload, *fields):
            sealed = seal(payload, *fields)
            digest.update(b"%d:%b" % (len(sealed), sealed))
            calls["sealed_bytes"] += 1
            return sealed

        with monkeypatch.context() as patch:
            patch.setattr(authenticator, "sealed_bytes", hashed)
            network = fixpoint("sendlog-prov", **options)
        # One leaf built by the sender, one rebuilt by the receiver.
        assert calls["sealed_bytes"] == 2 * network.stats.summary()["tuples_sent"]
        assert digest.hexdigest() == expected


def test_ndlog_never_enters_the_security_package_while_rules_fire():
    network, calls = run_counting_security("ndlog")
    assert network.stats.summary()["tuples_sent"] == 163
    assert not calls


# -- the one-log budget (PR 22) -------------------------------------------------


def count_built(monkeypatch, cls, counts) -> None:
    build = cls.__init__

    def counted(self, *args, **kwargs):
        counts[cls.__name__] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


def test_a_recorded_firing_is_one_pointer_and_views_are_built_on_read(monkeypatch):
    counts = collections.Counter()
    for cls in (ProvenancePointer, OperatorNode):
        count_built(monkeypatch, cls, counts)
    count_calls(monkeypatch, DerivationLog, "append", counts)
    network = Network.build(
        topology=8,
        program="best-path",
        provenance="condensed",
        query_cache=True,
        seed=SEED,
    )
    with calls_into("/repro/provenance/graph.py") as graph_calls:
        assert network.run().converged

    # The write path: one append and one pointer per recorded firing.
    firings = counts["append"]
    assert firings == 313
    assert counts["ProvenancePointer"] == firings
    assert counts["OperatorNode"] == 0
    assert not graph_calls  # no DerivationGraph / DerivationNode method ran
    # The engine finds each firing once (Best-Path's p4 was found from both
    # its inputs' deltas, 373 appends), so no log holds a pointer twice.
    held = [
        pointer
        for engine in network.engines.values()
        for key in engine.provenance.keys()
        for pointer in engine.provenance.pointers(key)
    ]
    assert len(held) == len(set(held)) == 313

    # graph(root): one operator per pointer the walk reaches, built now.
    address = network.topology.nodes[0]
    engine = network.engines[address]
    root = max(engine.facts("bestPath"), key=lambda fact: len(fact.values[2]))
    view = engine.provenance.graph(root.key())
    reached = {root.key()} | {key for op in view.operators() for key in op.inputs}
    assert len(view.operators()) == sum(
        len(engine.provenance.pointers(key)) for key in reached
    )
    assert counts["OperatorNode"] == len(view.operators()) > 0
    engine.provenance.graph(root.key())
    assert counts["OperatorNode"] == 2 * len(view.operators())  # views are not kept

    # A query: one operator per pointer in the closures it replays; asked
    # again, the cached closures hand back the operators they already built.
    counts["OperatorNode"] = 0
    first = network.query(root, at=address)
    assert first.complete and first.remote_lookups > 0
    assert counts["OperatorNode"] == len(first.graph.operators())
    # The querier builds the pointers it reads from the responses' codes:
    # one per pointer of the remote records, each record decoded once.
    decoded = counts["ProvenancePointer"] - firings
    assert decoded == 14
    second = network.query(root, at=address)
    assert second.graph.same_structure(first.graph)
    assert counts["OperatorNode"] == len(first.graph.operators())
    # Reading never writes: still one append per firing, and the cached
    # closures decode nothing again.
    assert counts["append"] == firings
    assert counts["ProvenancePointer"] == firings + decoded


def test_the_offline_archive_keeps_each_firing_once_too():
    network = Network.build(
        topology=8,
        program="best-path",
        provenance="condensed",
        keep_offline_provenance=True,
        seed=SEED,
    )
    assert network.run().converged
    for engine in network.engines.values():
        log = engine.provenance
        archived = engine.offline_provenance.entries()
        firings = {
            (entry.key, entry.rule_label, frozenset(entry.antecedent_keys), entry.timestamp)
            for entry in archived
        }
        assert len(archived) == len(firings) == sum(
            len(log.pointers(key)) for key in log.keys()
        ) > 0


def test_ndlog_never_enters_the_provenance_package_while_rules_fire():
    network = Network.build(
        topology=8, program="best-path", provenance="ndlog", seed=SEED
    )
    with calls_into("/repro/provenance/") as calls:
        result = network.run()
    assert result.converged and result.count("bestPathCost") > 0
    # All that is left is the end-of-run statistics snapshot reading each
    # node's (empty) archive gauges — once per node, not per firing.
    nodes = network.topology.node_count
    assert calls == {
        "store.py:OfflineProvenanceArchive.resident_bytes": nodes,
        "store.py:MemorySpillBackend.resident_bytes": nodes,
        "store.py:OfflineProvenanceArchive.spilled_bytes": nodes,
        "store.py:OfflineProvenanceArchive.spill_read_count": nodes,
    }
