"""Offline provenance: the append-only archive (Section 4.2).

*Online* provenance — maintained only for network state that is currently
valid — is the live :class:`~repro.provenance.log.DerivationLog`: a
retracted tuple's entry goes with it.  *Offline* provenance is an
append-only archive of the same firings that retains them after the
underlying state has expired, which is what forensics and accountability
need; because it can grow without bound it supports aging (drop entries
older than a horizon) unless they are explicitly pinned as evidence of an
anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.tuples import Fact, FactKey
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.graph import DerivationGraph
from repro.provenance.log import ProvenancePointer, derivation_graph


@dataclass(frozen=True)
class ProvenanceEntry:
    """One archived derivation record."""

    key: FactKey
    rule_label: str
    node: Optional[str]
    antecedent_keys: Tuple[FactKey, ...]
    timestamp: float
    expires_at: Optional[float]
    annotation: Optional[CondensedProvenance] = None


def entry_bytes(entry: ProvenanceEntry, include_annotation: bool = True) -> int:
    """Approximate bytes one archived entry occupies in memory.

    Key and antecedent keys at their rendered size, the rule label, 16 bytes
    for the two timestamps, plus the annotation's serialized size — the same
    currency :meth:`OfflineProvenanceArchive.storage_bytes` and the tiered
    archive's residency gauge report in.
    """
    total = len(str(entry.key)) + len(entry.rule_label) + 16
    total += sum(len(str(k)) for k in entry.antecedent_keys)
    if include_annotation and entry.annotation is not None:
        total += entry.annotation.serialized_size()
    return total


def archive_entry(
    pointer: ProvenancePointer,
    expires_at: Optional[float],
    annotation: Optional[CondensedProvenance],
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


class ArchiveIndex:
    """What both offline archives keep beside their entries, and read alike.

    Base keys and remote origins give an archive the same pointer-chasing
    shape as the live log, so offline (forensic) traceback queries can walk
    it across nodes even after a crash wiped the live logs; the per-key
    index (kept in sync by the subclass's ``record`` / ``age_out``) makes
    the per-key lookup — the unit of work of a traceback — independent of
    run length.  Subclasses supply ``entries(key)``.
    """

    def __init__(self, node: str, retention: Optional[float]) -> None:
        self.node = node
        self.retention = retention
        #: Query pins: key -> refcount of in-flight offline queries rooted
        #: there.  ``age_out`` must not drop entries a pending query still
        #: references, whatever the retention horizon says.
        self._query_pins: Dict[FactKey, int] = {}
        #: Keys archived as base (application-asserted) inputs at this node.
        self._base: Set[FactKey] = set()
        #: Keys that arrived from another node -> the node holding their
        #: provenance.
        self._remote_origin: Dict[FactKey, str] = {}
        #: Entry indexes (ids) per derived key.
        self._by_key: Dict[FactKey, List[int]] = {}

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

    def pin_key(self, key: FactKey) -> None:
        """Protect *key*'s entries from ``age_out`` while a query is in flight."""
        self._query_pins[key] = self._query_pins.get(key, 0) + 1

    def release_key(self, key: FactKey) -> None:
        count = self._query_pins.get(key, 0) - 1
        if count > 0:
            self._query_pins[key] = count
        else:
            self._query_pins.pop(key, None)

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


class OfflineProvenanceArchive(ArchiveIndex):
    """Append-only provenance archive that survives soft-state expiry.

    Supports the forensics and accountability use cases: entries remain
    queryable after the network state they describe has long expired, can be
    *pinned* (marked to persist, e.g. when an anomaly was detected), and can
    be aged out beyond a retention horizon to bound storage (Section 5).
    """

    def __init__(self, node: str, retention: Optional[float] = None) -> None:
        super().__init__(node, retention)
        self._entries: List[ProvenanceEntry] = []
        self._pinned: Set[int] = set()

    def record(
        self,
        pointer: ProvenancePointer,
        expires_at: Optional[float] = None,
        annotation: Optional[CondensedProvenance] = None,
    ) -> int:
        """Archive one firing; returns the entry's index (for :meth:`pin`)."""
        entry = archive_entry(pointer, expires_at, annotation)
        self._by_key.setdefault(entry.key, []).append(len(self._entries))
        self._entries.append(entry)
        return len(self._entries) - 1

    def pin(self, index: int) -> None:
        """Mark an entry to persist through aging (anomaly evidence)."""
        if 0 <= index < len(self._entries):
            self._pinned.add(index)

    def entries(self, key: Optional[FactKey] = None) -> Tuple[ProvenanceEntry, ...]:
        if key is None:
            return tuple(self._entries)
        return tuple(self._entries[i] for i in self._by_key.get(key, ()))

    def entries_between(self, start: float, end: float) -> Tuple[ProvenanceEntry, ...]:
        """Entries recorded in the time window [start, end] (forensic queries)."""
        return tuple(e for e in self._entries if start <= e.timestamp <= end)

    def __len__(self) -> int:
        return len(self._entries)

    def storage_bytes(self) -> int:
        """Approximate storage footprint, for the Section 5 storage discussion.

        Counts the entries themselves (keys, rule labels, timestamps and
        annotations) *and* the archive's metadata — the per-key index, the
        base-key set and the remote-origin pointers — which earlier versions
        undercounted: a long-running archive's index is real residency.
        """
        total = 0
        for entry in self._entries:
            total += entry_bytes(entry)
        for key, indexes in self._by_key.items():
            total += len(str(key)) + 8 * len(indexes)
        for key in self._base:
            total += len(str(key))
        for key, origin in self._remote_origin.items():
            total += len(str(key)) + len(origin)
        return total

    # -- tier accessors (uniform with TieredProvenanceArchive) ----------------

    def resident_bytes(self) -> int:
        """Everything lives in memory: residency is the whole footprint."""
        return self.storage_bytes()

    def spilled_bytes(self) -> int:
        return 0

    def spill_read_count(self) -> int:
        return 0

    def drop_cache(self) -> None:
        """Crash semantics: the in-memory archive models a persistent log
        wholesale, so a crash loses nothing here (no volatile tier)."""

    def age_out(self, now: float) -> int:
        """Drop unpinned entries older than the retention horizon.

        Entries that are pinned — explicitly via :meth:`pin`, or via a
        :meth:`pin_key` reference from an in-flight offline query — are kept
        whatever the horizon says.  Returns the number of entries dropped.
        """
        if self.retention is None:
            return 0
        keep: List[ProvenanceEntry] = []
        new_pinned: Set[int] = set()
        dropped = 0
        for index, entry in enumerate(self._entries):
            pinned = index in self._pinned
            if (
                not pinned
                and entry.key not in self._query_pins
                and now - entry.timestamp > self.retention
            ):
                dropped += 1
                continue
            if pinned:
                new_pinned.add(len(keep))
            keep.append(entry)
        self._entries = keep
        self._pinned = new_pinned
        self._by_key = {}
        for index, entry in enumerate(self._entries):
            self._by_key.setdefault(entry.key, []).append(index)
        return dropped
