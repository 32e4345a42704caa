"""Online and offline provenance stores (Section 4.2).

*Online* provenance is maintained only for network state that is currently
valid: when a derived tuple's soft-state TTL lapses (or the tuple is deleted,
e.g. because a malicious node's routes are purged), its online provenance
entry goes with it.  *Offline* provenance is an append-only archive that
retains entries after the underlying state has expired, which is what
forensics and accountability need; because it can grow without bound it
supports aging (drop entries older than a horizon) unless they are explicitly
pinned as evidence of an anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.tuples import Derivation, Fact, FactKey
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.graph import DerivationGraph, OperatorNode


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


class OnlineProvenanceStore:
    """Provenance for currently-valid state only.

    Entries are indexed by the derived tuple's key and expire in lock-step
    with the tuple (same timestamp + TTL); :meth:`expire` must be called with
    the advancing clock, exactly like the soft-state tables.  Deleting a
    tuple (e.g. when reacting to a detected anomaly) drops its provenance and
    reports which other tuples depended on it, enabling cascade invalidation.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self._entries: Dict[FactKey, List[ProvenanceEntry]] = {}
        self._dependents: Dict[FactKey, Set[FactKey]] = {}

    def record(self, derivation: Derivation, annotation: Optional[CondensedProvenance] = None) -> None:
        fact = derivation.fact
        entry = ProvenanceEntry(
            key=fact.key(),
            rule_label=derivation.rule_label,
            node=derivation.node or self.node,
            antecedent_keys=tuple(a.key() for a in derivation.antecedents),
            timestamp=derivation.timestamp,
            expires_at=fact.expires_at(),
            annotation=annotation,
        )
        self._entries.setdefault(entry.key, []).append(entry)
        for antecedent in entry.antecedent_keys:
            self._dependents.setdefault(antecedent, set()).add(entry.key)

    def entries(self, key: FactKey) -> Tuple[ProvenanceEntry, ...]:
        return tuple(self._entries.get(key, ()))

    def __contains__(self, key: FactKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def dependents_of(self, key: FactKey) -> frozenset:
        """Tuples whose derivations used *key* (candidates for cascade deletion)."""
        return frozenset(self._dependents.get(key, set()))

    def delete(self, key: FactKey) -> frozenset:
        """Remove *key*'s provenance; return its dependents for cascading."""
        self._entries.pop(key, None)
        return self.dependents_of(key)

    def expire(self, now: float) -> List[ProvenanceEntry]:
        """Drop entries whose underlying tuple has expired at time *now*."""
        dropped: List[ProvenanceEntry] = []
        for key in list(self._entries):
            remaining = []
            for entry in self._entries[key]:
                if entry.expires_at is not None and now >= entry.expires_at:
                    dropped.append(entry)
                else:
                    remaining.append(entry)
            if remaining:
                self._entries[key] = remaining
            else:
                del self._entries[key]
        return dropped


class OfflineProvenanceArchive:
    """Append-only provenance archive that survives soft-state expiry.

    Supports the forensics and accountability use cases: entries remain
    queryable after the network state they describe has long expired, can be
    *pinned* (marked to persist, e.g. when an anomaly was detected), and can
    be aged out beyond a retention horizon to bound storage (Section 5).
    """

    def __init__(self, node: str, retention: Optional[float] = None) -> None:
        self.node = node
        self.retention = retention
        self._entries: List[ProvenanceEntry] = []
        self._pinned: Set[int] = set()
        #: Query pins: key -> refcount of in-flight offline queries rooted
        #: there.  ``age_out`` must not drop entries a pending query still
        #: references, whatever the retention horizon says.
        self._query_pins: Dict[FactKey, int] = {}
        #: Keys archived as base (application-asserted) inputs at this node.
        self._base: Set[FactKey] = set()
        #: Keys that arrived from another node -> the node holding their
        #: provenance.  Together with ``_base`` this gives the archive the
        #: same pointer-chasing shape as the live distributed store, so
        #: offline (forensic) traceback queries can walk it across nodes
        #: even after the live stores were wiped by a crash.
        self._remote_origin: Dict[FactKey, str] = {}
        #: Entry indexes per derived key (kept in sync by record / age_out)
        #: so per-key lookups — the unit of work of a traceback query — do
        #: not scan the whole log.
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

    def record(self, derivation: Derivation, annotation: Optional[CondensedProvenance] = None) -> int:
        fact = derivation.fact
        entry = ProvenanceEntry(
            key=fact.key(),
            rule_label=derivation.rule_label,
            node=derivation.node or self.node,
            antecedent_keys=tuple(a.key() for a in derivation.antecedents),
            timestamp=derivation.timestamp,
            expires_at=fact.expires_at(),
            annotation=annotation,
        )
        self._by_key.setdefault(entry.key, []).append(len(self._entries))
        self._entries.append(entry)
        return len(self._entries) - 1

    def pin(self, index: int) -> None:
        """Mark an entry to persist through aging (anomaly evidence)."""
        if 0 <= index < len(self._entries):
            self._pinned.add(index)

    def pin_key(self, key: FactKey) -> None:
        """Protect *key*'s entries from ``age_out`` while a query is in flight."""
        self._query_pins[key] = self._query_pins.get(key, 0) + 1

    def release_key(self, key: FactKey) -> None:
        count = self._query_pins.get(key, 0) - 1
        if count > 0:
            self._query_pins[key] = count
        else:
            self._query_pins.pop(key, None)

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

    def reconstruct_graph(self, root: FactKey) -> DerivationGraph:
        """Rebuild the derivation graph of *root* from archived entries."""
        graph = DerivationGraph()
        by_key: Dict[FactKey, List[ProvenanceEntry]] = {}
        for entry in self._entries:
            by_key.setdefault(entry.key, []).append(entry)

        seen: Set[FactKey] = set()
        stack = [root]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            for entry in by_key.get(key, ()):
                graph.add_operator(
                    OperatorNode(
                        rule_label=entry.rule_label,
                        location=entry.node,
                        output=key,
                        inputs=tuple(entry.antecedent_keys),
                        timestamp=entry.timestamp,
                    )
                )
                stack.extend(entry.antecedent_keys)
        return graph
