"""Tiered provenance storage: bounded hot tier over an append-only spill log.

The offline archive's forensics contract — anything ever derived, retracted
or expired stays answerable — is bought in
:class:`~repro.provenance.store.OfflineProvenanceArchive` with unbounded
in-memory lists, which caps run length long before CPU does.  This module
restructures that archive into two tiers:

* a **hot tier**: a size-bounded read cache of :class:`ProvenanceEntry`
  groups (all entries of one derived key), evicted LRU-by-last-touch in a
  deterministic order (dict insertion/touch order — never hash order);
* a **spill tier**: an append-only log behind the :class:`SpillBackend`
  protocol, written *through* on every record, so the forensics contract
  never depends on what happens to be cached.  The per-key index into the
  log stays in memory (it is small metadata, not entry payload) and is the
  ``log-file-plus-per-key-index`` shape of the ROADMAP's storage-tier item.

Spill records are rendered as ``repr`` of pure literals and parsed back with
:func:`ast.literal_eval`: byte-for-byte deterministic across processes (no
pickle, whose frozenset ordering is hash-seed dependent), so the
``provenance_bytes_spilled`` counter is identical between the serial and
sharded backends.

Condensed annotations are the default representation inside the tiers:
per-key annotations are merged (``+`` then absorption, exactly like the
local store) and *interned* by their normal-form monomials, so structurally
identical annotations share one object.  The merged table is bounded by the
number of distinct keys and expressions — network-state size, not run
length.

Crash semantics: :meth:`TieredProvenanceArchive.drop_cache` models a node
crash — the hot tier (volatile cache) is lost, the spill log survives, and
every archived derivation remains answerable through ``mode="offline"``
queries.  The archive pickles across the sharded backend's spawn boundary:
the spill backend drops its open file handles in ``__getstate__`` and
reopens them lazily.
"""

from __future__ import annotations

import ast
import itertools
import os
import tempfile
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

try:  # pragma: no cover - typing fallback for very old interpreters
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from repro.engine.tuples import FactKey
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.log import ProvenancePointer
from repro.provenance.polynomial import ProvenanceExpression
from repro.provenance.store import (
    ArchiveIndex,
    ProvenanceEntry,
    archive_entry,
    entry_bytes,
)

#: The offline-archive representations ``EngineConfig.provenance_store`` /
#: ``NetOptions.provenance_store`` accept.
PROVENANCE_STORES = ("memory", "tiered")

#: Default hot-tier capacity, in archived entries.
DEFAULT_HOT_TIER_ENTRIES = 256

#: Per-process sequence for spill file names: two archives for the same node
#: (for example a serial and a sharded run of the same network sharing one
#: ``spill_dir``) must never append to each other's logs.  Deterministic —
#: no wall clock, no randomness — and irrelevant to simulation results.
_spill_sequence = itertools.count()


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
    monomials = None if annotation is None else annotation.expression.monomials
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
    object; reconstructed entries then reference the same
    :class:`CondensedProvenance` instances as hot ones.
    """
    key, rule_label, node, antecedents, timestamp, expires_at, monomials = (
        ast.literal_eval(record.decode("utf-8"))
    )
    annotation = None
    if monomials is not None:
        annotation = CondensedProvenance(
            expression=ProvenanceExpression(monomials=monomials)
        )
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
    """The append-only spill tier behind the tiered archive.

    ``append`` returns the ``(offset, length)`` slot of the record;
    ``read`` returns exactly the appended bytes.  Implementations must
    survive pickling (drop open handles, reopen lazily) because archives
    cross the sharded backend's spawn boundary inside their engines.
    """

    def append(self, record: bytes) -> Tuple[int, int]: ...

    def read(self, offset: int, length: int) -> bytes: ...

    def close(self) -> None: ...


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

    # -- pickling (sharded spawn boundary) ------------------------------------

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

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None


class TieredProvenanceArchive(ArchiveIndex):
    """Drop-in offline archive with a bounded hot tier and a spill log.

    Presents the exact surface of
    :class:`~repro.provenance.store.OfflineProvenanceArchive` — ``record`` /
    ``record_base`` / ``record_remote`` / ``entries`` / ``pointers`` /
    ``knows`` / ``origin_of`` / ``pin`` / ``age_out`` / ``graph`` — so the
    offline query path (:mod:`repro.net.query`) reads through it unchanged.
    Every record is written through to the spill log before it is cached, so
    eviction can never lose history: the forensics contract holds for any
    hot-tier capacity, down to one entry.

    Observability: :meth:`resident_bytes` (hot payload plus the interned
    annotation table — what the capacity knob bounds), :meth:`spilled_bytes`
    (cumulative log bytes) and :meth:`spill_read_count` (entries fetched
    back from the log) feed the ``provenance_bytes_resident`` /
    ``provenance_bytes_spilled`` / ``spill_reads`` network statistics.
    """

    def __init__(
        self,
        node: str,
        retention: Optional[float] = None,
        hot_entries: int = DEFAULT_HOT_TIER_ENTRIES,
        spill_dir: Optional[str] = None,
        spill: Optional[SpillBackend] = None,
    ) -> None:
        if hot_entries < 0:
            raise ValueError(f"hot_entries must be >= 0, got {hot_entries}")
        super().__init__(node, retention)
        self.hot_entries = hot_entries
        if spill is None:
            directory = spill_dir or os.path.join(
                tempfile.gettempdir(), f"repro-spill-{os.getpid()}"
            )
            name = f"{_safe_name(node)}.{next(_spill_sequence)}.plog"
            spill = LogSpillBackend(os.path.join(directory, name))
        self._spill = spill
        #: entry id -> (key, timestamp, offset, length): the in-memory index
        #: over the log.  Insertion-ordered by construction (ids are assigned
        #: sequentially), which is what keeps full scans in record order.
        self._slots: Dict[int, Tuple[FactKey, float, int, int]] = {}
        self._next_id = 0
        self._pinned: Set[int] = set()
        #: Per-key merged condensed annotation (structure-sharing default).
        self._condensed: Dict[FactKey, CondensedProvenance] = {}
        #: Interned annotations by normal-form monomials: structurally equal
        #: expressions share one object across keys and entries.
        self._intern: Dict[tuple, CondensedProvenance] = {}
        #: Hot tier: key -> {entry id -> entry}, LRU by last touch.  A group
        #: is always cached whole (all live entries of its key) or not at
        #: all, so a hit answers the per-key lookup without touching disk.
        self._hot: "OrderedDict[FactKey, Dict[int, ProvenanceEntry]]" = (
            OrderedDict()
        )
        self._hot_count = 0
        self._bytes_spilled = 0
        self._spill_reads = 0

    # -- annotation interning --------------------------------------------------

    def _intern_annotation(
        self, annotation: CondensedProvenance
    ) -> CondensedProvenance:
        shared = self._intern.get(annotation.expression.monomials)
        if shared is None:
            shared = self._intern[annotation.expression.monomials] = annotation
        return shared

    def _merge_condensed(
        self, key: FactKey, annotation: CondensedProvenance
    ) -> CondensedProvenance:
        existing = self._condensed.get(key)
        merged = annotation if existing is None else existing.merge(annotation)
        merged = self._intern_annotation(merged)
        self._condensed[key] = merged
        return merged

    # -- recording (write-through) ---------------------------------------------

    def record(
        self,
        pointer: ProvenancePointer,
        expires_at: Optional[float] = None,
        annotation: Optional[CondensedProvenance] = None,
    ) -> int:
        key = pointer.output
        if annotation is not None:
            annotation = self._merge_condensed(key, annotation)
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

    # -- pins -------------------------------------------------------------------

    def pin(self, index: int) -> None:
        """Mark an entry to persist through aging (anomaly evidence)."""
        if index in self._slots:
            self._pinned.add(index)

    # -- queries ----------------------------------------------------------------

    def annotation_of(self, key: FactKey) -> Optional[CondensedProvenance]:
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

    def __len__(self) -> int:
        return len(self._slots)

    # -- storage accounting ------------------------------------------------------

    def resident_bytes(self) -> int:
        """Bytes of entry payload held in memory: the hot tier plus the
        interned annotation table (shared, bounded by distinct expressions)."""
        total = 0
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
        per-key index and origin/base metadata (the spill log is on disk)."""
        total = self.resident_bytes()
        for key, ids in self._by_key.items():
            total += len(str(key)) + 8 * len(ids)
        total += 24 * len(self._slots)  # timestamp + offset + length per slot
        for key in self._base:
            total += len(str(key))
        for key, origin in self._remote_origin.items():
            total += len(str(key)) + len(origin)
        return total

    # -- aging -------------------------------------------------------------------

    def age_out(self, now: float) -> int:
        """Drop unpinned entries older than the retention horizon.

        Entries that are pinned — explicitly via :meth:`pin`, or via a
        :meth:`pin_key` reference from an in-flight offline query — are
        kept.  Dropped entries leave the index and the hot tier; their log
        records become unreachable (the log itself is append-only).
        Returns the number of entries dropped.
        """
        if self.retention is None:
            return 0
        dropped = 0
        for entry_id in list(self._slots):
            key, timestamp, _offset, _length = self._slots[entry_id]
            if entry_id in self._pinned or key in self._query_pins:
                continue
            if now - timestamp > self.retention:
                dropped += 1
                del self._slots[entry_id]
                ids = self._by_key[key]
                ids.remove(entry_id)
                if not ids:
                    del self._by_key[key]
                group = self._hot.get(key)
                if group is not None and entry_id in group:
                    del group[entry_id]
                    self._hot_count -= 1
                    if not group:
                        del self._hot[key]
        return dropped
