"""The list-bucket ``Table`` this repository ran before index buckets became
primary-key dicts — ``src/repro/engine/table.py`` at that commit, verbatim
below the imports (only the class is renamed, ``ReferenceTable``).

It is the reference ``tests/test_table_index_consistency.py`` replays random
scripts against: same rows in the same order, same ``lookup`` order, same
``_soft_count`` / ``_next_expiry``.  Its ``_reindex_replace`` / ``_remove_fact``
walk a bucket to find one fact; do not tidy it, it is kept to be compared with.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.catalog import RelationSchema
from repro.engine.tuples import Fact, Value


def _columns_getter(columns: Sequence[int]) -> Callable[[Tuple[Value, ...]], Tuple[Value, ...]]:
    """A C-level extractor for *columns* that always returns a tuple."""
    if not columns:
        return lambda values: ()
    if len(columns) == 1:
        only = columns[0]
        return lambda values: (values[only],)
    from operator import itemgetter

    return itemgetter(*columns)


@dataclass(frozen=True)
class InsertResult:
    """Outcome of a table insertion.

    ``inserted`` is True when the table contents changed (a genuinely new
    tuple, or an update that replaced a tuple with different non-key values);
    ``replaced`` holds the previously stored fact that was displaced, if any;
    ``refreshed`` is True when an identical tuple was already present and
    only its timestamp/TTL was refreshed.
    """

    inserted: bool
    replaced: Optional[Fact] = None
    refreshed: bool = False


#: Shared results for the two overwhelmingly common outcomes; only a
#: key-replacement insert carries per-call state (the displaced fact).
_INSERTED = InsertResult(inserted=True)
_REFRESHED = InsertResult(inserted=False, refreshed=True)


class ReferenceTable:
    """Facts of one relation at one node, with soft-state semantics."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: "OrderedDict[Tuple[Value, ...], Fact]" = OrderedDict()
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[Value, ...], List[Fact]]] = {}
        self._index_getters: Dict[Tuple[int, ...], Callable] = {}
        self._primary_key = _columns_getter(schema.key_columns)
        #: Number of stored facts carrying a TTL; expiry scans are skipped
        #: entirely while this is zero (hard-state tables never pay for them).
        self._soft_count = 0
        #: Lower bound on the earliest ``timestamp + ttl`` among stored soft
        #: facts: lowered by every soft store/refresh, made exact by every
        #: expiry scan that runs.  ``expire`` skips its scan below it.
        self._next_expiry = float("inf")
        #: Optional observer called with the batch of facts each expiry
        #: sweep removed.  The node engine hooks aggregate-head tables here
        #: so expired aggregate groups can be re-established by later
        #: (possibly worse) contributions.
        self.on_expire: Optional[Callable[[List[Fact]], None]] = None

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the compiled extractors, hash indexes and expiry hook.

        The column getters are closures/`itemgetter`s (unpicklable, and
        cheap to recompile), the indexes are derived state rebuilt lazily on
        the first probe, and ``on_expire`` is a bound method of the owning
        engine re-hooked by ``NodeEngine.attach_program``.  Stored rows and
        the soft-state counter — the actual table contents — travel.
        """
        state = self.__dict__.copy()
        state["_indexes"] = {}
        state["_index_getters"] = {}
        state["_primary_key"] = None
        state["on_expire"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._primary_key = _columns_getter(self.schema.key_columns)

    # -- basic protocol -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Fact]:
        return iter(list(self._rows.values()))

    def __contains__(self, fact: Fact) -> bool:
        stored = self._rows.get(self._primary_key(fact.values))
        return stored is not None and stored.values == fact.values

    def facts(self) -> Tuple[Fact, ...]:
        return tuple(self._rows.values())

    # -- mutation -------------------------------------------------------------

    def insert(self, fact: Fact, now: Optional[float] = None) -> InsertResult:
        """Insert *fact*, applying primary-key replacement semantics."""
        if now is not None:
            self.expire(now)

        key = self._primary_key(fact.values)
        existing = self._rows.get(key)

        if existing is not None and existing.values == fact.values:
            # Same tuple: refresh soft-state metadata in place.  The payload
            # depends only on relation/values, so an already rendered
            # serialization is handed to the refreshing copy — immediately
            # deduplicated derivations never pay the rendering twice.
            if fact._payload_cache is None and existing._payload_cache is not None:
                fact._payload_cache = existing._payload_cache
            self._rows[key] = fact
            self._reindex_replace(existing, fact)
            self._soft_count += (fact.ttl is not None) - (existing.ttl is not None)
            if fact.ttl is not None:
                self._next_expiry = min(self._next_expiry, fact.timestamp + fact.ttl)
            return _REFRESHED

        if existing is not None:
            self._remove_fact(key, existing)
            self._store(key, fact)
            return InsertResult(inserted=True, replaced=existing)

        self._store(key, fact)
        self._enforce_max_size()
        return _INSERTED

    def delete(self, fact: Fact) -> bool:
        """Delete the stored fact matching *fact*'s values; return True if removed."""
        key = self._primary_key(fact.values)
        existing = self._rows.get(key)
        if existing is None or existing.values != fact.values:
            return False
        self._remove_fact(key, existing)
        return True

    def expire(self, now: float) -> List[Fact]:
        """Remove and return every fact whose TTL has elapsed at time *now*.

        O(1) when no stored fact carries a TTL (the common hard-state case)
        or *now* is still short of the earliest stored expiry.
        """
        if not self._soft_count or now < self._next_expiry:
            return []
        expired = []
        earliest = float("inf")
        for fact in self._rows.values():
            expiry = fact.expires_at()
            if expiry is None:
                continue
            if now >= expiry:
                expired.append(fact)
            elif expiry < earliest:
                earliest = expiry
        self._next_expiry = earliest
        for fact in expired:
            self._remove_fact(self._primary_key(fact.values), fact)
        if expired and self.on_expire is not None:
            self.on_expire(expired)
        return expired

    @property
    def has_soft_state(self) -> bool:
        """True when at least one stored fact can expire."""
        return self._soft_count > 0

    def clear(self) -> None:
        self._rows.clear()
        self._indexes.clear()
        self._index_getters.clear()
        self._soft_count = 0
        self._next_expiry = float("inf")

    # -- lookups --------------------------------------------------------------

    def lookup(
        self, columns: Sequence[int], values: Sequence[Value]
    ) -> Tuple[Fact, ...]:
        """Return the stored facts whose *columns* equal *values*.

        Builds (and thereafter maintains) a hash index on the column subset.
        """
        columns_key = tuple(columns)
        if not columns_key:
            return self.facts()
        index = self._indexes.get(columns_key)
        if index is None:
            index = self._build_index(columns_key)
        return tuple(index.get(tuple(values), ()))

    def ensure_index(self, columns: Sequence[int]) -> None:
        """Build (if absent) the hash index over *columns*.

        Used by the batched delta pipeline to warm every index a batch will
        probe before the joins start.
        """
        columns_key = tuple(columns)
        if columns_key and columns_key not in self._indexes:
            self._build_index(columns_key)

    def get_by_values(self, values: Sequence[Value]) -> Optional[Fact]:
        stored = self._rows.get(self._primary_key(tuple(values)))
        if stored is not None and stored.values == tuple(values):
            return stored
        return None

    def scan(self, now: Optional[float] = None) -> Tuple[Fact, ...]:
        """All live facts; expires soft state first when *now* is given."""
        if now is not None:
            self.expire(now)
        return self.facts()

    # -- internals ------------------------------------------------------------

    def _store(self, key: Tuple[Value, ...], fact: Fact) -> None:
        self._rows[key] = fact
        if fact.ttl is not None:
            self._soft_count += 1
            self._next_expiry = min(self._next_expiry, fact.timestamp + fact.ttl)
        for columns, index in self._indexes.items():
            bucket_key = self._index_getters[columns](fact.values)
            index.setdefault(bucket_key, []).append(fact)

    def _remove_fact(self, key: Tuple[Value, ...], fact: Fact) -> None:
        self._rows.pop(key, None)
        if fact.ttl is not None:
            self._soft_count -= 1
        for columns, index in self._indexes.items():
            bucket_key = self._index_getters[columns](fact.values)
            bucket = index.get(bucket_key)
            if bucket is None:
                continue
            # Remove by identity: Fact equality ignores metadata, so removing
            # by value could evict a different-but-equal fact and leave this
            # one as a stale reference in the bucket.
            for position, stored in enumerate(bucket):
                if stored is fact:
                    del bucket[position]
                    break
            if not bucket:
                del index[bucket_key]

    def _reindex_replace(self, old: Fact, new: Fact) -> None:
        for columns, index in self._indexes.items():
            bucket = index.get(self._index_getters[columns](old.values))
            if bucket is None:
                continue
            for i, stored in enumerate(bucket):
                if stored is old:
                    bucket[i] = new
                    break

    def _build_index(
        self, columns: Tuple[int, ...]
    ) -> Dict[Tuple[Value, ...], List[Fact]]:
        getter = self._index_getters.get(columns)
        if getter is None:
            getter = self._index_getters[columns] = _columns_getter(columns)
        index: Dict[Tuple[Value, ...], List[Fact]] = {}
        for fact in self._rows.values():
            index.setdefault(getter(fact.values), []).append(fact)
        self._indexes[columns] = index
        return index

    def _enforce_max_size(self) -> None:
        limit = self.schema.max_size
        if limit is None:
            return
        while len(self._rows) > limit:
            oldest_key = next(iter(self._rows))
            self._remove_fact(oldest_key, self._rows[oldest_key])
