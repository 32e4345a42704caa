"""The query-plane fast path: size memos and remote frontiers, the coded
record stream, the route table, shared replay nodes built on read.

Each cache must be invisible except in how much work gets done: sizes equal
a from-scratch count, a frontier lists exactly the remote inputs, a pointer
code decodes to exactly the pointer it was made from, routes equal a fresh
search, replayed graphs equal the zero-cost oracle — and the work counters
at the bottom pin that the caches actually save what they claim to.
"""

from __future__ import annotations

import math
import pickle
import struct
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.message as message_module
from repro.api import Network
from repro.engine.node_engine import EngineConfig
from repro.net.events import (
    EventScheduler,
    LinkDown,
    LinkUp,
    NodeCrash,
    NodeRecover,
    QueryTimeout,
)
from repro.net.kernel import SimulationKernel
from repro.net.message import (
    MESSAGE_HEADER_BYTES,
    QUERY_FLAG_BYTES,
    RECORD_BASE,
    RECORD_DERIVED,
    RECORD_MISSING,
    LocalClosure,
    PointerCodebook,
    QueryClosure,
    QueryClosureEntry,
    QueryRequest,
    QueryResponse,
)
from repro.net.query import _local_closure
from repro.net.stats import NetworkStats
from repro.net.topology import random_topology
from repro.net.transport import BinaryCodec
from repro.provenance.graph import DerivationGraph
from repro.provenance.log import ProvenancePointer
from repro.provenance.polynomial import flat_values
from repro.queries.best_path import compile_best_path
from repro.service import QueryWorkload

# -- (a) size memos ------------------------------------------------------------

#: Equal, hash-equal keys that render differently sit next to each other.
KEYS = [
    ("r", (1,)),
    ("r", (True,)),
    ("r", (1.0,)),
    ("r", (1.5, "n0")),
    ("path", ("n0", "n3", ("n0", "n1", "n3"), 7)),
    ("mixed", (("n0", 1, True), (2.0, ("x", "y")))),
    ("π", ("ü", ())),
]

#: What the miniature stores code their pointers against: their rule label
#: and every relation of ``KEYS`` at its arity.
CODEBOOK = PointerCodebook(
    ("r2",), {(relation, len(values)) for relation, values in KEYS}
)


def render(value) -> str:
    """The wire rendering, written out independently of ``_render_value``."""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return "[" + "|".join(render(element) for element in value) + "]"
    return str(value)


def key_bytes(key) -> int:
    relation, values = key
    return len((relation + "(" + ",".join(render(v) for v in values) + ")").encode())


def closure_bytes(closure) -> int:
    """One flag byte per record and each derived record's code: no key."""
    return len(closure.flags) + sum(len(code) for code in closure.codes)


def pointer_for(key) -> ProvenancePointer:
    return ProvenancePointer(
        output=key,
        rule_label="r2",
        node="n1",
        inputs=tuple((k, origin) for k, origin in zip(KEYS, ("n2", None) * 4)),
        timestamp=3.5,
    )


class OnePointerStore:
    """A node's store in miniature: *root* derived by one firing over every
    key of ``KEYS`` (the odd ones held here), ``KEYS[3]`` a base tuple and
    every other key unknown."""

    def __init__(self, root) -> None:
        self.root = root

    def is_base(self, key) -> bool:
        return key != self.root and key == KEYS[3]

    def pointers(self, key):
        return (pointer_for(key),) if key == self.root else ()


def closure_for(key) -> QueryClosure:
    return _local_closure(OnePointerStore(key), "n1", key).coded(CODEBOOK)


def request_for(key) -> QueryRequest:
    return QueryRequest(
        source="n0", destination="n1", key=key, query_id=1, request_id=2
    )


def response_for(key, **fields) -> QueryResponse:
    return QueryResponse(
        source="n1",
        destination="n0",
        query_id=1,
        request_id=2,
        closure=closure_for(key),
        **fields,
    )


def response_bytes(response) -> int:
    return (
        MESSAGE_HEADER_BYTES
        + QUERY_FLAG_BYTES
        + closure_bytes(response.closure)
        + response.annotation_bytes
        + len(response.signature or b"")
    )


def wire_size(sized) -> int:
    if isinstance(sized, QueryClosure):
        return sized.serialized_size()
    if isinstance(sized, LocalClosure):
        return len(sized.flags)
    return sized.size_bytes()


class TestSizeMemos:
    @pytest.mark.parametrize("key", KEYS)
    def test_sizes_equal_a_from_scratch_rendering(self, key):
        closure, request, response = closure_for(key), request_for(key), response_for(key)
        for _ in range(2):  # the memoised read answers like the first
            assert closure.serialized_size() == closure_bytes(closure)
            assert request.size_bytes() == (
                MESSAGE_HEADER_BYTES + QUERY_FLAG_BYTES + key_bytes(key)
            )
            assert request.payload_bytes() == key_bytes(key)
            assert response.size_bytes() == response_bytes(response)
            assert response.payload_bytes() == (
                response_bytes(response) - MESSAGE_HEADER_BYTES
            )
        # What is sized is what decodes: the responder's own pointer.
        (entry, *_), _missing = closure.walk(key, "n1", CODEBOOK)
        assert entry.pointers == (pointer_for(key),)

    def test_equal_keys_keep_their_own_sizes(self):
        one, true = KEYS[0], KEYS[1]
        assert one == true and hash(one) == hash(true)

        def naming(key) -> QueryClosure:
            root = ("r", ("x",))
            pointer = ProvenancePointer(
                output=root, rule_label="r2", node="n1", inputs=((key, "n2"),)
            )
            store = SimpleNamespace(
                is_base=lambda k: False,
                pointers=lambda k: (pointer,) if k == root else (),
            )
            return _local_closure(store, "n1", root).coded(CODEBOOK)

        # Interleaved on purpose: a table keyed by FactKey would hand the
        # second object the first one's size.
        sizes = [
            (request_for(key).size_bytes(), naming(key).serialized_size())
            for key in (one, true, one, true)
        ]
        assert sizes[0] == sizes[2] and sizes[1] == sizes[3]
        assert sizes[1][0] - sizes[0][0] == len("True") - len("1")
        # In a code ``True`` is one tag byte, ``1`` a tag and a varint.
        assert sizes[1][1] - sizes[0][1] == -1
        # A response ships no key, so the requested key's rendering does
        # not size it.
        assert response_for(one).size_bytes() == response_for(true).size_bytes()

    def test_replace_resizes_the_signed_response(self):
        plain = response_for(KEYS[4], annotation_bytes=11)
        unsigned_size = plain.size_bytes()
        signed = replace(plain, signature=b"s" * 16)
        assert signed.size_bytes() == response_bytes(signed) == unsigned_size + 16
        assert signed.security_bytes == 16 and signed.provenance_bytes == 11
        assert plain.size_bytes() == unsigned_size

    @pytest.mark.parametrize("key", KEYS)
    def test_frontier_lists_remote_inputs_with_their_sizes(self, key):
        entries, _missing = closure_for(key).walk(key, "n1", CODEBOOK)
        entry = entries[0]
        assert entry.key is key and entry.node == "n1"
        # Positions into the entry's own pointer's inputs, with each remote
        # input's rendered size: no key in the memo.
        expected = ()
        for position, (k, origin) in enumerate(entry.pointers[0].inputs):
            if origin and origin != entry.node:
                expected += (0, position, key_bytes(k))
        assert entry.frontier() == expected
        assert all(type(item) is int for item in entry.frontier())
        assert entry.frontier() is entry.frontier()
        assert QueryClosureEntry(key=key, node="n1", is_base=True).frontier() == ()
        # A known key size prices a request exactly as a rendering would.
        request = replace(request_for(key), key_bytes=key_bytes(key))
        assert request.size_bytes() == request_for(key).size_bytes()

    def test_memos_stay_out_of_equality_repr_and_pickles(self):
        local = _local_closure(OnePointerStore(KEYS[5]), "n1", KEYS[5])
        fresh_local = _local_closure(OnePointerStore(KEYS[5]), "n1", KEYS[5])
        closure, fresh = local.coded(CODEBOOK), closure_for(KEYS[5])
        local.expansion()
        (entry, *_), _missing = closure.walk(KEYS[5], "n1", CODEBOOK)
        entry.replay()
        entry.frontier()
        twin = QueryClosureEntry(entry.key, entry.node, entry.is_base, entry.pointers)
        assert closure == fresh and hash(closure) == hash(fresh)
        assert repr(closure) == repr(fresh)
        assert local == fresh_local and repr(local) == repr(fresh_local)
        assert entry == twin and hash(entry) == hash(twin)
        assert repr(entry) == repr(twin)
        known = replace(request_for(KEYS[5]), key_bytes=key_bytes(KEYS[5]))
        assert repr(known) == repr(request_for(KEYS[5]))
        response, unsized = response_for(KEYS[5]), response_for(KEYS[5])
        response.size_bytes()
        pairs = (
            (closure, fresh),
            (local, fresh_local),
            (entry, twin),
            (known, request_for(KEYS[5])),
            (response, unsized),
        )
        memos = (
            "_size_bytes", "_replay", "_frontier", "_walk", "_coded", "_expansion", "key_bytes"
        )
        for filled, empty in pairs:
            # A filled memo leaves the pickle byte for byte unchanged.
            assert pickle.dumps(filled) == pickle.dumps(empty)
            clone = pickle.loads(pickle.dumps(filled))
            assert all(getattr(clone, memo, None) is None for memo in memos)
            if filled is entry:
                assert clone == entry
            else:
                assert wire_size(clone) == wire_size(filled)

    @pytest.mark.parametrize("key", KEYS)
    def test_codec_round_trip_keeps_sizes(self, key):
        codec = BinaryCodec()
        sent = [
            replace(request_for(key), key_bytes=key_bytes(key)),
            response_for(key, signature=b"\x01\x02"),
        ]
        for message in sent:
            message.size_bytes()  # a filled memo must not leak into the frame
        sent[1].closure.walk(key, "n1", CODEBOOK)
        frame = codec.encode_frame([(1.0, message) for message in sent])
        received = [message for _, message in codec.decode_frame(frame)]
        for before, after in zip(sent, received):
            assert after._size_bytes is None
            assert after.size_bytes() == before.size_bytes()
        assert received[0].key_bytes is None
        assert received[1].closure == sent[1].closure
        assert received[1].closure._walk is None
        assert received[1].closure.walk(key, "n1", CODEBOOK) == sent[1].closure.walk(
            key, "n1", CODEBOOK
        )


# -- (a') the record stream -----------------------------------------------------


class TestRecordStream:
    ROOT = ("path", ("n1", "n3", 5.0))
    LINK = ("link", ("n1", "n2"))
    REMOTE = ("path", ("n2", "n3"))
    UNKNOWN = ("cost", ("n1",))
    #: Relations by index: cost/1 0, link/2 1, path/2 2, path/3 3.
    BOOK = PointerCodebook(("r2",), (("path", 3), ("path", 2), ("link", 2), ("cost", 1)))

    def pointer(self) -> ProvenancePointer:
        return ProvenancePointer(
            output=self.ROOT,
            rule_label="r2",
            node="n1",
            inputs=((self.LINK, None), (self.REMOTE, "n2"), (self.UNKNOWN, "n1")),
            timestamp=3.5,
        )

    def closure(self) -> QueryClosure:
        pointer = self.pointer()
        store = SimpleNamespace(
            is_base=lambda key: key == self.LINK,
            pointers=lambda key: (pointer,) if key == self.ROOT else (),
        )
        return _local_closure(store, "n1", self.ROOT).coded(self.BOOK)

    def test_a_response_ships_one_flag_per_record_and_no_key(self):
        closure = self.closure()
        assert list(closure.flags) == [RECORD_DERIVED, RECORD_BASE, RECORD_MISSING]
        assert [len(code) for code in closure.codes[1:]] == [0, 0]
        # The derived record's code, against the root's values n1 n3 5.0:
        # one pointer (label, timestamp, width), then its three inputs in
        # order, each its relation, origin and arguments.  A str the root
        # carries is its position; n2 is a literal; the firing node (n1,
        # the responder) is nowhere.
        literal_n2 = bytes([0x7F, 2]) + b"n2"
        firing = bytes([1, 0]) + struct.pack("<d", 3.5) + bytes([3])
        inputs = (
            bytes([1, 0x83, 0]) + literal_n2  # link(n1,n2) held here
            + bytes([2]) + literal_n2 + literal_n2 + bytes([1])  # path(n2,n3)@n2
            + bytes([0, 0, 0])  # cost(n1)@n1
        )
        assert closure.codes[0] == firing + inputs
        assert (len(firing), len(inputs)) == (11, 20)
        response = QueryResponse(
            source="n1", destination="n0", query_id=1, request_id=2,
            closure=closure, annotation_bytes=11, signature=b"s" * 16,
        )
        # header 80 + flags 2 + records (3 flag bytes + the 31-byte code)
        # + annotation 11 + signature 16; the rendered pointer was 52 - 3.
        assert response.size_bytes() == (
            MESSAGE_HEADER_BYTES + QUERY_FLAG_BYTES + 3 + 31 + 11 + 16
        ) == 143
        assert not {"key", "key_bytes", "entries", "missing", "pointers"} & (
            {f.name for f in fields(QueryResponse)} | {f.name for f in fields(QueryClosure)}
        )

    def test_the_querier_rebuilds_every_key_from_the_one_it_asked_for(self):
        closure = self.closure()
        entries, missing = closure.walk(self.ROOT, "n1", self.BOOK)
        assert [(e.key, e.node, e.is_base) for e in entries] == [
            (self.ROOT, "n1", False), (self.LINK, "n1", True),
        ]
        assert missing == (self.UNKNOWN,)
        # The pointer decodes field by field, its firing node the responder.
        assert entries[0].pointers == (self.pointer(),)
        # Memoised: asked again, the same entries come back.
        assert closure.walk(self.ROOT, "n1", self.BOOK)[0] is entries
        # Asked from another key, the same records rebuild other keys: the
        # requested key, and the inputs whose positions read from it.
        other = ("path", ("n1", "n9", 5.0))
        (head, _base), _ = closure.walk(other, "n1", self.BOOK)
        assert head.key == other
        assert head.pointers[0].inputs[1] == (("path", ("n2", "n9")), "n2")

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: QueryClosure(c.flags[:-1], c.codes[:-1]),
            lambda c: QueryClosure(c.flags + bytes([RECORD_BASE]), c.codes + (b"",)),
            lambda c: QueryClosure(bytes([RECORD_BASE]) + c.flags[1:], c.codes),
            lambda c: QueryClosure(c.flags, (b"",) + c.codes[1:]),
            lambda c: QueryClosure(c.flags[:2] + bytes([7]), c.codes),
            lambda c: QueryClosure(c.flags, c.codes[:-1]),
        ],
        ids=[
            "dropped", "added", "base-with-pointers", "derived-without",
            "unknown-flag", "flag-without-pointer-slot",
        ],
    )
    def test_records_that_do_not_fit_the_walk_rebuild_nothing(self, tamper):
        honest = self.closure()
        tampered = tamper(honest)
        assert tampered.walk(self.ROOT, "n1", self.BOOK) is None

        def response(closure):
            return QueryResponse(
                source="n1", destination="n0", query_id=1, request_id=2, closure=closure
            )

        # The responder signs the records as they travel: any change to
        # them changes the signed bytes.
        assert response(tampered).signed_payload(self.ROOT) != response(
            honest
        ).signed_payload(self.ROOT)


# -- (a'') pointer codes -----------------------------------------------------------


def _one_pointer_code(book, origin=bytes([0x83]), label=0, relation=None,
                      arguments=None, tail=b""):
    """A code of one pointer over one input, spelled byte by byte: by
    default ``link`` with the key's first value, an int and another int."""
    if relation is None:
        relation = book.relations.index(("link", 3))
    if arguments is None:
        arguments = bytes([0, 0x7C, 2, 0x7C, 4])
    return (
        bytes([1, label]) + struct.pack("<d", 1.0) + bytes([1])
        + bytes([relation]) + origin + arguments + tail
    )


class TestPointerCodes:
    KEY = ("bestPath", ("n0", "n3", ("n0", "n3"), 4.0))
    BOOK = PointerCodebook.of(compile_best_path())

    def test_the_spelled_code_decodes(self):
        (pointer,) = self.BOOK.decode(_one_pointer_code(self.BOOK), self.KEY, "n0")
        assert pointer == ProvenancePointer(
            output=self.KEY,
            rule_label=self.BOOK.labels[0],
            node="n0",
            inputs=((("link", ("n0", 1, 2)), None),),
            timestamp=1.0,
        )
        assert self.BOOK.encode(self.KEY, (pointer,)) == _one_pointer_code(self.BOOK)

    def test_the_tally_splits_every_byte_of_a_code(self):
        code = _one_pointer_code(self.BOOK)
        tally = dict.fromkeys(PointerCodebook.PARTS, 0)
        assert self.BOOK.decode(code, self.KEY, "n0", tally) is not None
        assert tally == {
            "counts": 2, "labels": 1, "timestamps": 8, "origins": 1, "input codes": 6
        }
        assert sum(tally.values()) == len(code) == 18

    @pytest.mark.parametrize(
        "code",
        [
            lambda book: _one_pointer_code(book)[:-1],
            lambda book: _one_pointer_code(book, tail=b"\x00"),
            lambda book: _one_pointer_code(book, arguments=bytes([9, 0x7C, 2, 0x7C, 4])),
            lambda book: _one_pointer_code(book, arguments=bytes([5, 0x7C, 2, 0x7C, 4])),
            lambda book: _one_pointer_code(book, label=len(book.labels)),
            lambda book: _one_pointer_code(book, relation=len(book.relations)),
            lambda book: _one_pointer_code(book, arguments=bytes([0xFF, 0x7C, 2, 0x7C, 4])),
            lambda book: _one_pointer_code(book, origin=bytes([0x7C, 2])),
            lambda book: b"",
        ],
        ids=[
            "truncated", "trailing-bytes", "position-past-the-key",
            "position-on-a-float", "unknown-label", "unknown-relation",
            "unknown-tag", "origin-not-a-str", "empty",
        ],
    )
    def test_a_code_that_does_not_decode_rebuilds_nothing(self, code):
        malformed = code(self.BOOK)
        assert self.BOOK.decode(malformed, self.KEY, "n0") is None
        closure = QueryClosure(bytes([RECORD_DERIVED]), (malformed,))
        assert closure.walk(self.KEY, "n0", self.BOOK) is None

    def test_a_record_several_closures_share_is_coded_once(self):
        book = PointerCodebook.of(compile_best_path())
        (pointer,) = book.decode(_one_pointer_code(book), self.KEY, "n0")
        code = book.code(self.KEY, (pointer,))
        assert code == _one_pointer_code(book)
        assert book.code(self.KEY, (pointer,)) is code
        # Other pointer objects, even equal ones, are coded afresh.
        again = book.code(self.KEY, (replace(pointer),))
        assert again == code and again is not code

    def test_a_record_is_decoded_once_per_code_key_and_node(self, monkeypatch):
        book = PointerCodebook.of(compile_best_path())
        code = _one_pointer_code(book)
        entry = book.entry(code, self.KEY, "n0")
        assert entry.pointers == book.decode(code, self.KEY, "n0")
        assert book.entry(code, self.KEY, "n0") is entry
        assert book.entry(code, self.KEY, "n1").node == "n1"
        # An equal key of another object gets its own entry: the output is
        # that object, the inputs the memoised ones.
        other = (self.KEY[0], tuple(self.KEY[1]))
        assert other == self.KEY and other is not self.KEY
        own = book.entry(code, other, "n0")
        assert own is not entry and own.key is other
        assert own.pointers[0].output is other
        assert own.pointers[0].inputs is entry.pointers[0].inputs
        assert book.entry(code[:-1], self.KEY, "n0") is None
        # A full memo starts over.
        monkeypatch.setattr(PointerCodebook, "MEMO_RECORDS", 2)
        book.entry(code, self.KEY, "n2")
        assert list(book._entries) == [(code, self.KEY, "n2")]
        for relation in "klm":
            book.code((relation, ()), ())
        assert list(book._codes) == [("m", ())]

    def test_a_pointer_no_code_can_say_ships_its_key_missing(self):
        """A value no tag names, or a label or relation the program does not
        have: the closure vouches for nothing, and ships as its requested
        key missing."""
        held = ("link", ("n0", "n3", 1))
        firings = [
            ProvenancePointer(self.KEY, "p4", "n0", (((("link", ("n0", frozenset(), 1))), None),)),
            ProvenancePointer(self.KEY, "elsewhere", "n0", ((held, None),)),
            ProvenancePointer(self.KEY, "p4", "n0", ((("unknown", ("n0",)), None),)),
        ]
        for firing in firings:
            store = SimpleNamespace(
                is_base=lambda key: key == held,
                pointers=lambda key, firing=firing: (firing,) if key == self.KEY else (),
            )
            local = _local_closure(store, "n0", self.KEY)
            assert [entry.key for entry in local.expansion()[0]] == [self.KEY] + (
                [held] if firing.inputs[0][0] == held else []
            )
            coded = local.coded(self.BOOK)
            assert (coded.flags, coded.codes) == (bytes([RECORD_MISSING]), (b"",))
            assert coded.walk(self.KEY, "n0", self.BOOK) == ((), (self.KEY,))


_names = st.sampled_from(["n0", "n1", "n2", "n3", "ü", "x"])
_scalars = st.one_of(
    _names,
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.5, float(2**60)]),
    st.sampled_from([True, False, None]),
)
_values = st.recursive(_scalars, lambda inner: st.tuples(inner, inner) | st.tuples(inner), max_leaves=8)
_relations = st.sampled_from([("link", 2), ("path", 3), ("cost", 1), ("r", 0)])


@st.composite
def _record(draw):
    """A key and pointers over inputs whose values and origins come from the
    key's values as often as not."""
    key = ("path", tuple(draw(st.lists(_values, min_size=0, max_size=4))))
    carried = [value for value in flat_values(key[1]) if type(value) is str]
    value = st.sampled_from(carried) | _values if carried else _values
    origin = st.one_of(st.none(), _names, st.sampled_from(carried) if carried else _names)
    pointers = []
    for _ in range(draw(st.integers(1, 3))):
        inputs = []
        for _ in range(draw(st.integers(0, 3))):
            relation, arity = draw(_relations)
            values = tuple(draw(value) for _ in range(arity))
            inputs.append(((relation, values), draw(origin)))
        pointers.append(
            ProvenancePointer(
                output=key,
                rule_label=draw(st.sampled_from(["r1", "r2"])),
                node="n0",
                inputs=tuple(inputs),
                timestamp=draw(st.floats(allow_nan=False)),
            )
        )
    return key, tuple(pointers)


def _typed(value):
    """*value* with its type and float sign spelled out, so that ``1``,
    ``1.0``, ``True``, ``0.0`` and ``-0.0`` compare unequal."""
    if type(value) is tuple:
        return ("tuple", tuple(_typed(element) for element in value))
    if type(value) is float:
        return ("float", value, math.copysign(1.0, value))
    return (type(value).__name__, value)


@settings(max_examples=200, deadline=None)
@given(record=_record())
def test_a_pointer_code_round_trips_field_by_field(record):
    key, pointers = record
    book = PointerCodebook(("r1", "r2"), (("link", 2), ("path", 3), ("cost", 1), ("r", 0)))
    code = book.encode(key, pointers)
    decoded = book.decode(code, key, "n0")
    assert decoded == pointers
    for before, after in zip(pointers, decoded):
        assert after.output is key and after.node == "n0"
        assert after.rule_label == before.rule_label
        assert _typed(after.timestamp) == _typed(before.timestamp)
        assert [(_typed(k[0]), _typed(k[1]), _typed(o)) for k, o in after.inputs] == [
            (_typed(k[0]), _typed(k[1]), _typed(o)) for k, o in before.inputs
        ]


# -- (b) the route table -------------------------------------------------------

TOPOLOGY = random_topology(7, seed=2)
NODES = TOPOLOGY.nodes
DIRECTED = [(link.source, link.destination) for link in TOPOLOGY.links]

node_index = st.integers(0, len(NODES) - 1)
link_index = st.integers(0, len(DIRECTED) - 1)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("route"), node_index),
        st.tuples(st.just("down"), link_index),
        st.tuples(st.just("up"), link_index),
        st.tuples(st.just("crash"), node_index),
        st.tuples(st.just("recover"), node_index),
    ),
    max_size=30,
)


def _kernel() -> SimulationKernel:
    return SimulationKernel(TOPOLOGY, compile_best_path(), EngineConfig(), key_bits=128)


def _topology_event(kind, index, at):
    if kind in ("down", "up"):
        source, destination = DIRECTED[index]
        if kind == "down":
            return LinkDown(time=at, source=source, destination=destination, retract=False)
        return LinkUp(time=at, source=source, destination=destination)
    if kind == "crash":
        return NodeCrash(time=at, address=NODES[index])
    return NodeRecover(time=at, address=NODES[index], reinject=False)


@settings(max_examples=60, deadline=None)
@given(script=steps)
def test_cached_routes_equal_a_fresh_search(script):
    cached, twin = _kernel(), _kernel()
    for at, (kind, index) in enumerate([("route", 0)] + script, start=1):
        if kind == "route":
            # Every destination from one source, asked twice: the second
            # answer comes from the table — partitions (None) included.
            source = NODES[index]
            for destination in NODES:
                expected = twin._search_route(source, destination)
                assert cached.route_between(source, destination) == expected
                assert (source, destination) in cached._routes
                assert cached.route_between(source, destination) == expected
            continue
        for kernel in (cached, twin):
            kernel.schedule(_topology_event(kind, index, float(at)))
            kernel.run_until_idle()


def test_route_table_does_not_travel_with_the_kernel():
    network = Network.build(
        topology=TOPOLOGY, program="best-path", provenance="condensed", seed=2
    )
    network.run()
    kernel = network.simulator
    root = kernel.engines[NODES[0]].facts("bestPath")[0]
    assert not network.query(root, at=NODES[0]).missing
    network.serve(QueryWorkload(rate=50, duration=0.2, seed=2, pool=4), converge=False)
    assert kernel._routes and kernel._route_costs and kernel._root_draws
    state = kernel.__getstate__()
    for memo in ("_routes", "_route_costs", "_root_draws"):
        assert state[memo] == {}
    # A down set that changes forgets both route memos.
    kernel.schedule(
        LinkDown(time=kernel.current_time(), source=DIRECTED[0][0],
                 destination=DIRECTED[0][1], retract=False)
    )
    kernel.run_until_idle()
    assert kernel._routes == {} and kernel._route_costs == {}


# -- (c) shared replay nodes ---------------------------------------------------


def _roots(network, per_node=3):
    for address in network.topology.nodes:
        facts = sorted(
            network.node(address).facts("bestPath"), key=lambda f: repr(f.values)
        )
        for fact in facts[-per_node:]:
            yield address, fact


@pytest.mark.parametrize("capacity", (1, 64))
def test_cached_replay_matches_the_oracle_without_aliasing(capacity):
    network = Network.build(
        topology=8,
        program="best-path",
        provenance="condensed",
        query_cache=True,
        query_cache_entries=capacity,
        seed=5,
    )
    network.run()
    hits_before = network.stats.total("cache_hits")
    for address, root in _roots(network):
        oracle = network.legacy_traceback(root, at=address)
        first = network.query(root, at=address)
        second = network.query(root, at=address)
        for answer in (first, second):
            assert answer.complete
            assert answer.graph.same_structure(oracle.graph)
        # Same frozen nodes, separate containers: growing one answer's graph
        # must not show up in the other's.
        assert first.graph._tuples is not second.graph._tuples
        assert first.graph._operators is not second.graph._operators
        assert first.graph._producers is not second.graph._producers
        operators = len(second.graph._operators)
        first.graph.add_operator(first.graph.operators()[0])
        assert len(second.graph._operators) == operators
        assert second.graph.same_structure(oracle.graph)
    if capacity == 64:
        assert network.stats.total("cache_hits") > hits_before


# -- (d) the work budget -------------------------------------------------------

#: ``NetworkStats.node`` lookups and the event heap's high-water mark while
#: serving the budget workload below.
LOOKUPS = 1064
HEAP_HIGH_WATER = 255


def test_serving_pays_one_search_per_pair_and_one_render_per_entry(monkeypatch):
    """Deterministic counters where seconds cannot gate CI (ROADMAP item 1)."""
    network = Network.build(
        topology=12,
        program="best-path",
        provenance="condensed",
        query_cache=True,
        seed=4,
    )
    network.run()

    searches = []
    search = SimulationKernel._search_route

    def counted_search(self, source, destination):
        searches.append((source, destination))
        return search(self, source, destination)

    renders = []
    render_key = message_module.key_payload_bytes

    def counted_render(key):
        renders.append(key)
        return render_key(key)

    frontier_builds = []
    frontier = QueryClosureEntry.frontier

    def counted_frontier(self):
        if self._frontier is None:
            frontier_builds.append(id(self))
        return frontier(self)

    operators = []
    operator = ProvenancePointer.operator

    def counted_operator(self):
        operators.append(self)
        return operator(self)

    graphs = []
    new_graph = DerivationGraph.__init__

    def counted_graph(self):
        graphs.append(self)
        new_graph(self)

    costs = []
    route_cost = SimulationKernel._route_cost

    def counted_cost(self, source, destination):
        costs.append((source, destination))
        return route_cost(self, source, destination)

    lookups = []
    node_lookup = NetworkStats.node

    def counted_lookup(self, address):
        lookups.append(address)
        return node_lookup(self, address)

    heap_sizes, timeouts = [], []
    schedule = EventScheduler.schedule

    def counted_schedule(self, event, stamp=None):
        sequence = schedule(self, event, stamp)
        heap_sizes.append(len(self._heap))
        if type(event) is QueryTimeout:
            timeouts.append(event)
        return sequence

    requests = []
    ship = SimulationKernel.ship_routed

    def counted_ship(self, source, destination, message, send_time, node_stats):
        if type(message) is QueryRequest:
            requests.append(message)
        return ship(self, source, destination, message, send_time, node_stats)

    monkeypatch.setattr(SimulationKernel, "_search_route", counted_search)
    monkeypatch.setattr(message_module, "key_payload_bytes", counted_render)
    monkeypatch.setattr(QueryClosureEntry, "frontier", counted_frontier)
    monkeypatch.setattr(ProvenancePointer, "operator", counted_operator)
    monkeypatch.setattr(DerivationGraph, "__init__", counted_graph)
    monkeypatch.setattr(SimulationKernel, "_route_cost", counted_cost)
    monkeypatch.setattr(NetworkStats, "node", counted_lookup)
    monkeypatch.setattr(EventScheduler, "schedule", counted_schedule)
    monkeypatch.setattr(SimulationKernel, "ship_routed", counted_ship)

    workload = QueryWorkload(rate=100, duration=2.0, seed=4, pool=16)
    result = network.serve(workload, converge=False)
    assert result.offered == result.queries_completed == 200
    summary = result.stats.summary()
    messages = int(summary["query_messages"])
    assert messages == 652 and summary["messages_lost"] == 0

    # No topology event in the window: one search per pair, however many of
    # the 652 routed messages travel it, and one route cost per pair.
    assert len(searches) == len(set(searches)) == 88
    assert costs == searches

    # Statistics records: one per arrival, query and delivered message; no
    # CPU charge or bill resolves its own.
    assert len(lookups) == LOOKUPS

    # One timeout per request, every one of them answered and cancelled; a
    # cancelled timeout leaves the heap once cancellations dominate it, so
    # the heap stays below the 329 entries it reaches when every cancelled
    # timeout waits out its deadline there.
    assert len(timeouts) == len(requests) == 326 == messages // 2
    assert all(timeout.cancelled for timeout in timeouts)
    assert max(heap_sizes) == HEAP_HIGH_WATER

    # Nobody reads these queries' graphs, so none is built: no graph, and
    # no pointer turned into an operator node.
    assert graphs == [] and operators == []

    # No provenance epoch moved and nothing was evicted, so every merged
    # entry is rebuilt once: from a cached local closure at the asker, from
    # a cached closure's code (the walk memo, one decode) at a querier.
    # Each builds its remote frontier once.
    locals_ = [
        local
        for cache in network.simulator._query_caches.values()
        for (local, _annotation), _epoch, _at in cache._entries.values()
    ]
    shipped = [local._coded for local in locals_ if local._coded is not None]
    cached_entries = {
        id(entry): entry
        for closure in shipped
        if closure._walk is not None
        for entry in closure._walk[2]
    }
    cached_entries.update(
        (id(entry), entry)
        for local in locals_
        if local._expansion is not None
        for entry in local._expansion[0]
    )
    assert len(frontier_builds) == len(set(frontier_builds))
    assert set(frontier_builds) == {
        key for key, entry in cached_entries.items() if entry._frontier is not None
    }

    # Renders: each frontier build renders the remote inputs it lists, and
    # nothing else renders a key.  A closure is sized by its flags and
    # codes, so no pointer input is rendered to size it; requests take
    # their key's size from the frontier, so the 652 messages render
    # nothing.
    frontier_renders = sum(
        len(entry._frontier or ()) // 3 for entry in cached_entries.values()
    )
    assert result.stats.total("cache_hits") > 0
    assert len(renders) == frontier_renders == 300


def test_every_decoded_pointer_is_the_responders():
    """Over a served window, each closure that shipped decodes, at its
    querier, into exactly the responder's records: every key, every
    pointer field by field, the firing node included."""
    network = Network.build(
        topology=12, program="best-path", provenance="condensed", query_cache=True, seed=4
    )
    network.run()
    network.serve(QueryWorkload(rate=100, duration=2.0, seed=4, pool=16), converge=False)
    book = network.simulator.queries.codebook
    checked = 0
    for node, cache in network.simulator._query_caches.items():
        for (root, _mode, _condensed), entry in cache._entries.items():
            (local, _annotation), _epoch, _at = entry
            if local._coded is None:
                continue  # only ever merged at its own node
            entries, missing = local._coded.walk(root, node, book)
            recorded_entries, recorded_missing = local.expansion()
            assert missing == recorded_missing
            assert [(e.key, e.is_base) for e in entries] == [
                (e.key, e.is_base) for e in recorded_entries
            ]
            for decoded, recorded in zip(entries, recorded_entries):
                assert decoded.pointers == recorded.pointers
                for after, before in zip(decoded.pointers, recorded.pointers):
                    assert after.node == before.node == node
                    assert _typed(after.timestamp) == _typed(before.timestamp)
                    assert [_typed(k[1]) for k, _ in after.inputs] == [
                        _typed(k[1]) for k, _ in before.inputs
                    ]
                checked += len(decoded.pointers)
    assert checked > 100
