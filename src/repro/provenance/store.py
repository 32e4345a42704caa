"""Offline provenance: the append-only archive (Section 4.2).

*Online* provenance — maintained only for network state that is currently
valid — is the live :class:`~repro.provenance.log.DerivationLog`: a
retracted tuple's entry goes with it.  *Offline* provenance is an
append-only archive of the same firings that retains them after the
underlying state has expired, which is what forensics and accountability
need.  It never drops an entry.

The archive keeps its entries in two tiers:

* a **hot tier**: a size-bounded read cache of :class:`ProvenanceEntry`
  groups (all entries of one derived key), evicted LRU-by-last-touch in a
  deterministic order (dict insertion/touch order — never hash order);
* a **spill log**: an append-only log behind the :class:`SpillBackend`
  protocol, written *through* on every record, so the forensics contract
  never depends on what happens to be cached.  The log is a file under the
  caller's ``spill_dir`` (:class:`LogSpillBackend`) or, when no directory
  is named, a byte buffer in process memory (:class:`MemorySpillBackend`):
  a run writes files only where its caller said.  The per-key index into
  the log stays in memory (it is small metadata, not entry payload).

Spill records are rendered as ``repr`` of pure literals and parsed back with
:func:`ast.literal_eval`: byte-for-byte deterministic across processes (no
pickle, whose frozenset ordering is hash-seed dependent), so the
``provenance_bytes_spilled`` counter is identical between the serial and
sharded backends.

Condensed annotations are merged per key (``absorb``, exactly like the
live log) and *interned* by their normal-form monomials, so
structurally identical annotations share one object.  The merged table is
bounded by the number of distinct keys and expressions — network-state
size, not run length.

Crash semantics: :meth:`OfflineProvenanceArchive.drop_cache` models a node
crash — the hot tier (volatile cache) is lost, the spill log survives, and
every archived derivation remains answerable through ``mode="offline"``
queries.  The archive pickles inside its engine when the sharded backend
reels a shard kernel back from its worker: the file backend drops its open
handles in ``__getstate__`` and reopens them lazily.
"""

from __future__ import annotations

import ast
import itertools
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.engine.tuples import Fact, FactKey
from repro.provenance.graph import DerivationGraph
from repro.provenance.log import ProvenancePointer, derivation_graph
from repro.provenance.polynomial import ProvenanceExpression

#: Default hot-tier capacity, in archived entries.
DEFAULT_HOT_TIER_ENTRIES = 256

#: Per-process sequence for spill file names: two archives for the same node
#: (for example a serial and a sharded run of the same network sharing one
#: ``spill_dir``) must never append to each other's logs.  Deterministic —
#: no wall clock, no randomness — and irrelevant to simulation results.
_spill_sequence = itertools.count()


@dataclass(frozen=True)
class ProvenanceEntry:
    """One archived derivation record."""

    key: FactKey
    rule_label: str
    node: Optional[str]
    antecedent_keys: Tuple[FactKey, ...]
    timestamp: float
    expires_at: Optional[float]
    annotation: Optional[ProvenanceExpression] = None


def entry_bytes(entry: ProvenanceEntry, include_annotation: bool = True) -> int:
    """Approximate bytes one archived entry occupies in memory.

    Key and antecedent keys at their rendered size, the rule label, 16 bytes
    for the two timestamps, plus the annotation's serialized size — the
    currency :meth:`OfflineProvenanceArchive.resident_bytes` reports in.
    """
    total = len(str(entry.key)) + len(entry.rule_label) + 16
    total += sum(len(str(k)) for k in entry.antecedent_keys)
    if include_annotation and entry.annotation is not None:
        total += entry.annotation.serialized_size()
    return total


def archive_entry(
    pointer: ProvenancePointer,
    expires_at: Optional[float],
    annotation: Optional[ProvenanceExpression],
) -> ProvenanceEntry:
    """The archived record of one live firing."""
    return ProvenanceEntry(
        key=pointer.output,
        rule_label=pointer.rule_label,
        node=pointer.node,
        antecedent_keys=tuple(key for key, _ in pointer.inputs),
        timestamp=pointer.timestamp,
        expires_at=expires_at,
        annotation=annotation,
    )


def _safe_name(node: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in node)


def encode_entry(entry: ProvenanceEntry) -> bytes:
    """One spill-log record: ``repr`` of pure literals, newline terminated.

    The annotation is reduced to its expression's normal-form monomials —
    nested tuples of strings and ints — so the record round-trips exactly
    through :func:`ast.literal_eval` and its byte length is identical in
    every process that records the same derivation.
    """
    annotation = entry.annotation
    monomials = None if annotation is None else annotation.monomials
    record = (
        entry.key,
        entry.rule_label,
        entry.node,
        entry.antecedent_keys,
        entry.timestamp,
        entry.expires_at,
        monomials,
    )
    return (repr(record) + "\n").encode("utf-8")


def decode_entry(
    record: bytes, intern_annotation=None
) -> ProvenanceEntry:
    """Parse one spill-log record back into a :class:`ProvenanceEntry`.

    ``intern_annotation`` maps an annotation to its interned (shared)
    object; reconstructed entries then reference the same condensed
    :class:`ProvenanceExpression` instances as hot ones.
    """
    key, rule_label, node, antecedents, timestamp, expires_at, monomials = (
        ast.literal_eval(record.decode("utf-8"))
    )
    annotation = None
    if monomials is not None:
        annotation = ProvenanceExpression(monomials=monomials)
        if intern_annotation is not None:
            annotation = intern_annotation(annotation)
    return ProvenanceEntry(
        key=key,
        rule_label=rule_label,
        node=node,
        antecedent_keys=antecedents,
        timestamp=timestamp,
        expires_at=expires_at,
        annotation=annotation,
    )


class SpillBackend(Protocol):
    """The append-only spill log behind the archive.

    ``append`` returns the ``(offset, length)`` slot of the record;
    ``read`` returns exactly the appended bytes; ``resident_bytes`` is what
    the log itself holds in process memory.  Implementations must survive
    pickling (drop open handles, reopen lazily) because archives travel
    inside their engines when the sharded backend recalls a shard kernel.
    """

    def append(self, record: bytes) -> Tuple[int, int]: ...

    def read(self, offset: int, length: int) -> bytes: ...

    def resident_bytes(self) -> int: ...

    def close(self) -> None: ...


class MemorySpillBackend:
    """The spill log as a byte buffer in process memory (no ``spill_dir``).

    Same records, slots and byte counts as the file log; its bytes are
    resident, so the archive's residency gauge counts them.
    """

    def __init__(self) -> None:
        self._log = bytearray()

    def append(self, record: bytes) -> Tuple[int, int]:
        offset = len(self._log)
        self._log += record
        return offset, len(record)

    def read(self, offset: int, length: int) -> bytes:
        return bytes(self._log[offset : offset + length])

    def resident_bytes(self) -> int:
        return len(self._log)

    def close(self) -> None:
        """Nothing to release: the buffer goes with the archive."""


class LogSpillBackend:
    """Append-only log file (the ``log-file-plus-per-key-index`` backend).

    The file is created lazily on first append (truncating any stale file a
    previous process left at the path) and never truncated afterwards —
    including across pickling, which drops the handles and reopens in append
    mode so a recalled worker kernel keeps extending the same log.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._bytes_written = 0
        self._writer = None
        self._reader = None

    # -- pickling (recalled shard kernels) ------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_writer"] = None
        state["_reader"] = None
        return state

    # -- SpillBackend ---------------------------------------------------------

    def append(self, record: bytes) -> Tuple[int, int]:
        if self._writer is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            # First-ever append truncates (a fresh archive owns its path);
            # reopening after a pickle round-trip appends.
            mode = "ab" if self._bytes_written else "wb"
            self._writer = open(self.path, mode)
        offset = self._bytes_written
        self._writer.write(record)
        # Reads must observe every appended record immediately: the read
        # handle is a separate descriptor on the same file.
        self._writer.flush()
        self._bytes_written += len(record)
        return offset, len(record)

    def read(self, offset: int, length: int) -> bytes:
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(offset)
        return self._reader.read(length)

    def resident_bytes(self) -> int:
        """The log lives on disk."""
        return 0

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None


class OfflineProvenanceArchive:
    """Append-only provenance archive that survives soft-state expiry.

    Supports the forensics and accountability use cases: entries remain
    queryable after the network state they describe has long expired
    (Section 5).  Nothing is ever dropped: the resident footprint is bounded
    by the hot tier, and the spill log keeps every record.

    Base keys and remote origins give the archive the same pointer-chasing
    shape as the live log (``pointers`` / ``knows`` / ``origin_of`` /
    ``graph``), so offline (forensic) traceback queries walk it across nodes
    even after a crash wiped the live logs; the per-key index makes the
    per-key lookup — the unit of work of a traceback — independent of run
    length.  Every record is written through to the spill log before it is
    cached, so eviction can never lose history: the forensics contract holds
    for any hot-tier capacity, down to zero entries.

    Observability: :meth:`resident_bytes` (hot payload, the interned
    annotation table and an in-memory log — what the capacity knob and
    ``spill_dir`` bound), :meth:`spilled_bytes` (cumulative log bytes) and
    :meth:`spill_read_count` (entries fetched back from the log) feed the
    ``provenance_bytes_resident`` / ``provenance_bytes_spilled`` /
    ``spill_reads`` network statistics.
    """

    def __init__(
        self,
        node: str,
        hot_entries: int = DEFAULT_HOT_TIER_ENTRIES,
        spill_dir: Optional[str] = None,
    ) -> None:
        if hot_entries < 0:
            raise ValueError(f"hot_entries must be >= 0, got {hot_entries}")
        self.node = node
        self.hot_entries = hot_entries
        if spill_dir is None:
            self._spill: SpillBackend = MemorySpillBackend()
        else:
            name = f"{_safe_name(node)}.{next(_spill_sequence)}.plog"
            self._spill = LogSpillBackend(os.path.join(spill_dir, name))
        #: Keys archived as base (application-asserted) inputs at this node.
        self._base: Set[FactKey] = set()
        #: Keys that arrived from another node -> the node holding their
        #: provenance.
        self._remote_origin: Dict[FactKey, str] = {}
        #: Entry ids per derived key.
        self._by_key: Dict[FactKey, List[int]] = {}
        #: entry id -> (key, timestamp, offset, length): the in-memory index
        #: over the log.  Insertion-ordered by construction (ids are assigned
        #: sequentially), which is what keeps full scans in record order.
        self._slots: Dict[int, Tuple[FactKey, float, int, int]] = {}
        self._next_id = 0
        #: Per-key merged condensed annotation (structure-sharing default).
        self._condensed: Dict[FactKey, ProvenanceExpression] = {}
        #: Interned annotations by normal-form monomials: structurally equal
        #: expressions share one object across keys and entries.
        self._intern: Dict[tuple, ProvenanceExpression] = {}
        #: Hot tier: key -> {entry id -> entry}, LRU by last touch.  A group
        #: is always cached whole (all live entries of its key) or not at
        #: all, so a hit answers the per-key lookup without touching the log.
        self._hot: "OrderedDict[FactKey, Dict[int, ProvenanceEntry]]" = (
            OrderedDict()
        )
        self._hot_count = 0
        self._bytes_spilled = 0
        self._spill_reads = 0

    # -- base keys and origins ---------------------------------------------------

    def record_base(self, fact: Fact) -> None:
        """Archive that *fact* was asserted as a base tuple at this node."""
        self._base.add(fact.key())

    def record_remote(self, fact: Fact, origin: Optional[str]) -> None:
        """Archive that *fact* arrived from *origin*, which holds its provenance."""
        if origin is not None and origin != self.node:
            self._remote_origin[fact.key()] = origin

    def is_base(self, key: FactKey) -> bool:
        return key in self._base

    def origin_of(self, key: FactKey) -> Optional[str]:
        """The node holding *key*'s provenance, when it arrived from elsewhere."""
        return self._remote_origin.get(key)

    def knows(self, key: FactKey) -> bool:
        """True when the archive recorded *key* as base or as a derivation."""
        return key in self._base or key in self._by_key

    # -- annotation interning --------------------------------------------------

    def _intern_annotation(
        self, annotation: ProvenanceExpression
    ) -> ProvenanceExpression:
        shared = self._intern.get(annotation.monomials)
        if shared is None:
            shared = self._intern[annotation.monomials] = annotation
        return shared

    def _absorb(self, key: FactKey, annotation: ProvenanceExpression) -> ProvenanceExpression:
        existing = self._condensed.get(key)
        merged = annotation if existing is None else existing.absorb(annotation)
        if merged is not existing:
            # Everything stored here is interned, so an unchanged merge is.
            merged = self._condensed[key] = self._intern_annotation(merged)
        return merged

    # -- recording (write-through) ---------------------------------------------

    def record(
        self,
        pointer: ProvenancePointer,
        expires_at: Optional[float] = None,
        annotation: Optional[ProvenanceExpression] = None,
    ) -> int:
        """Archive one firing; returns the entry's id."""
        key = pointer.output
        if annotation is not None:
            annotation = self._absorb(key, annotation)
        entry = archive_entry(pointer, expires_at, annotation)
        offset, length = self._spill.append(encode_entry(entry))
        self._bytes_spilled += length
        entry_id = self._next_id
        self._next_id += 1
        self._slots[entry_id] = (key, entry.timestamp, offset, length)
        self._by_key.setdefault(key, []).append(entry_id)
        self._cache_entry(key, entry_id, entry)
        return entry_id

    # -- hot tier ---------------------------------------------------------------

    def _cache_entry(self, key: FactKey, entry_id: int, entry: ProvenanceEntry) -> None:
        group = self._hot.get(key)
        if group is None:
            # Only cache the group when it is complete (this is its first
            # entry, or the whole group was just fetched); a partial group
            # would turn later hits into silent truncations.
            if len(self._by_key[key]) > 1:
                return
            group = self._hot[key] = {}
        group[entry_id] = entry
        self._hot.move_to_end(key)
        self._hot_count += 1
        self._evict()

    def _cache_group(self, key: FactKey, group: Dict[int, ProvenanceEntry]) -> None:
        old = self._hot.pop(key, None)
        if old is not None:
            self._hot_count -= len(old)
        self._hot[key] = group
        self._hot_count += len(group)
        self._evict()

    def _evict(self) -> None:
        while self._hot_count > self.hot_entries and self._hot:
            _key, group = self._hot.popitem(last=False)
            self._hot_count -= len(group)

    def drop_cache(self) -> None:
        """Crash semantics: the volatile hot tier is lost, the log survives.

        The in-memory index is kept — it mirrors the log's live set exactly
        and a real implementation would checkpoint it alongside the log —
        so every archived derivation stays answerable after the crash.
        """
        self._hot.clear()
        self._hot_count = 0

    # -- queries ----------------------------------------------------------------

    def annotation_of(self, key: FactKey) -> Optional[ProvenanceExpression]:
        """The merged condensed annotation archived for *key* (or None)."""
        return self._condensed.get(key)

    def _fetch(self, entry_id: int) -> ProvenanceEntry:
        """Read one entry back from the spill log (counted as a spill read)."""
        key, _timestamp, offset, length = self._slots[entry_id]
        self._spill_reads += 1
        return decode_entry(
            self._spill.read(offset, length),
            intern_annotation=self._intern_annotation,
        )

    def entries(self, key: Optional[FactKey] = None) -> Tuple[ProvenanceEntry, ...]:
        if key is None:
            return self._scan(list(self._slots))
        ids = self._by_key.get(key)
        if not ids:
            return ()
        group = self._hot.get(key)
        if group is not None and len(group) == len(ids):
            self._hot.move_to_end(key)
            return tuple(group[i] for i in ids)
        fetched: Dict[int, ProvenanceEntry] = {}
        for entry_id in ids:
            if group is not None and entry_id in group:
                fetched[entry_id] = group[entry_id]
            else:
                fetched[entry_id] = self._fetch(entry_id)
        self._cache_group(key, fetched)
        return tuple(fetched[i] for i in ids)

    def _scan(self, ids: List[int]) -> Tuple[ProvenanceEntry, ...]:
        """Fetch *ids* in order without populating the hot tier.

        Full scans (``entries()`` with no key, ``entries_between``) are
        forensic sweeps, not per-key lookups — letting them thrash the LRU
        would make the cache useless right when it matters.
        """
        result: List[ProvenanceEntry] = []
        for entry_id in ids:
            key = self._slots[entry_id][0]
            group = self._hot.get(key)
            if group is not None and entry_id in group:
                result.append(group[entry_id])
            else:
                result.append(self._fetch(entry_id))
        return tuple(result)

    def entries_between(self, start: float, end: float) -> Tuple[ProvenanceEntry, ...]:
        """Entries recorded in the time window [start, end] (forensic queries)."""
        matching = [
            entry_id
            for entry_id, slot in self._slots.items()
            if start <= slot[1] <= end
        ]
        return self._scan(matching)

    def pointers(self, key: FactKey) -> Tuple[ProvenancePointer, ...]:
        """*key*'s archived firings in the live log's pointer shape.

        Entries carry the same (rule, antecedents, node) as live pointers;
        per-antecedent origins are resolved here, at read time, from the
        remembered remote origins.
        """
        origin_of = self._remote_origin.get
        return tuple(
            ProvenancePointer(
                output=key,
                rule_label=entry.rule_label,
                node=entry.node or self.node,
                inputs=tuple((k, origin_of(k)) for k in entry.antecedent_keys),
                timestamp=entry.timestamp,
            )
            for entry in self.entries(key)
        )

    def graph(self, root: FactKey) -> DerivationGraph:
        """The derivation graph of *root* rebuilt from archived entries."""
        return derivation_graph(self, root)

    def __len__(self) -> int:
        return len(self._slots)

    # -- storage accounting ------------------------------------------------------

    def resident_bytes(self) -> int:
        """Bytes of entry payload held in memory: the hot tier, the interned
        annotation table (shared, bounded by distinct expressions) and the
        spill log when it lives in memory."""
        total = self._spill.resident_bytes()
        for group in self._hot.values():
            for entry in group.values():
                # The annotation is shared through the intern table and
                # counted once there, not per cached entry.
                total += entry_bytes(entry, include_annotation=False)
        for annotation in self._intern.values():
            total += annotation.serialized_size()
        return total

    def spilled_bytes(self) -> int:
        """Cumulative bytes appended to the spill log."""
        return self._bytes_spilled

    def spill_read_count(self) -> int:
        """Entries fetched back from the spill log to answer queries."""
        return self._spill_reads

    def storage_bytes(self) -> int:
        """Approximate in-memory footprint: resident payload plus the
        per-key index and origin/base metadata (a file log is on disk)."""
        total = self.resident_bytes()
        for key, ids in self._by_key.items():
            total += len(str(key)) + 8 * len(ids)
        total += 24 * len(self._slots)  # timestamp + offset + length per slot
        for key in self._base:
            total += len(str(key))
        for key, origin in self._remote_origin.items():
            total += len(str(key)) + len(origin)
        return total
