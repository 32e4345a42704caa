"""Soft-state tables.

A :class:`Table` stores the facts of one relation at one node, with the
semantics declarative networking inherits from P2:

* **primary keys** — a newly inserted fact replaces any stored fact that
  agrees on the relation's key columns (update semantics); with no declared
  keys the whole tuple is the key, giving plain set semantics;
* **soft state** — facts carry TTLs and are lazily expired whenever the table
  is read or written at a later simulation time (the time-based sliding
  window of Section 2.1);
* **bounded size** — an optional maximum size evicts the oldest facts first.

Tables also maintain hash indexes over requested column subsets so that the
semi-naive join probes are O(matching tuples) rather than O(table).

Each row is kept once.  The rows are a plain ``dict`` keyed by primary key
(insertion-ordered, so the oldest row is the first).  An index bucket that
holds one row is that :class:`Fact` itself; when a second row joins it, it
becomes an insertion-ordered ``dict`` keyed by primary key, and it is the
bare fact again once removals leave one row.  Most buckets hold one row
(85–89 % in the Best-Path fixpoints), so most cost no container.  Replacing
or removing a fact costs the same whatever the bucket holds, and a probe
reads the facts in the order a list would have kept them: insertion order,
in place on a refresh, at the end after a delete and re-insert.  A key over
every column of the relation is the stored ``values`` tuple itself.

A refresh stores the refreshing fact as it came and hands it nothing from the
row it replaces: equal values need not render alike (``r(True)`` refreshes a
stored ``r(1)``), and a row keeps no rendered payload anyway
(:class:`~repro.engine.tuples.Fact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.datalog.catalog import RelationSchema
from repro.engine.tuples import Fact, Value


#: One index bucket: the one stored fact whose columns match, or — while two
#: or more do — primary key -> stored fact, in insertion order.
_Bucket = Union[Fact, Dict[Tuple[Value, ...], Fact]]


def _columns_getter(
    columns: Sequence[int], arity: int
) -> Callable[[Tuple[Value, ...]], Tuple[Value, ...]]:
    """A C-level extractor for *columns* that always returns a tuple.

    Over every column of an *arity*-column relation it returns the values
    tuple itself (``tuple`` of a tuple is that tuple), so such a key is no
    second copy of the row.
    """
    if not columns:
        return lambda values: ()
    if tuple(columns) == tuple(range(arity)):
        return tuple
    if len(columns) == 1:
        only = columns[0]
        return lambda values: (values[only],)
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


class Table:
    """Facts of one relation at one node, with soft-state semantics."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: Dict[Tuple[Value, ...], Fact] = {}
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[Value, ...], _Bucket]] = {}
        self._index_getters: Dict[Tuple[int, ...], Callable] = {}
        self._primary_key = _columns_getter(schema.key_columns, schema.arity)
        #: Number of stored facts carrying a TTL; expiry scans are skipped
        #: entirely while this is zero (hard-state tables never pay for them).
        self._soft_count = 0
        #: Lower bound on the earliest ``timestamp + ttl`` among stored soft
        #: facts: lowered by every soft store/refresh, made exact by every
        #: expiry scan that runs.  ``expire`` skips its scan below it — and so
        #: do :meth:`insert` and the delta loops, which test the pair inline
        #: and call ``expire`` only when a scan is due.
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
        self._primary_key = _columns_getter(self.schema.key_columns, self.schema.arity)

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
        if now is not None and self._soft_count and now >= self._next_expiry:
            self.expire(now)

        values = fact.values
        key = self._primary_key(values)
        rows = self._rows
        existing = rows.get(key)

        if existing is None:
            self._store(key, fact)
            limit = self.schema.max_size
            if limit is not None:
                while len(rows) > limit:
                    oldest_key = next(iter(rows))
                    self._remove_fact(oldest_key, rows[oldest_key])
            return _INSERTED

        if existing.values == values:
            # Same tuple: refresh soft-state metadata in place.
            rows[key] = fact
            for columns, index in self._indexes.items():
                bucket_key = self._index_getters[columns](values)
                bucket = index.get(bucket_key)
                if bucket is existing:
                    index[bucket_key] = fact
                elif type(bucket) is dict and bucket.get(key) is existing:
                    bucket[key] = fact
            self._soft_count += (fact.ttl is not None) - (existing.ttl is not None)
            if fact.ttl is not None:
                self._next_expiry = min(self._next_expiry, fact.timestamp + fact.ttl)
            return _REFRESHED

        self._remove_fact(key, existing)
        self._store(key, fact)
        return InsertResult(inserted=True, replaced=existing)

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
        bucket = index.get(tuple(values))
        if bucket is None:
            return ()
        if type(bucket) is dict:
            return tuple(bucket.values())
        return (bucket,)

    def ensure_index(self, columns: Sequence[int]) -> None:
        """Build (if absent) the hash index over *columns*.

        Used when a relation's strand is bound to a database, so every
        index its joins probe exists before the first of them runs.
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
            self._file(index, self._index_getters[columns](fact.values), key, fact)

    def _file(
        self,
        index: Dict[Tuple[Value, ...], _Bucket],
        bucket_key: Tuple[Value, ...],
        key: Tuple[Value, ...],
        fact: Fact,
    ) -> None:
        """Add *fact* (primary key *key*) at the end of its bucket in *index*."""
        bucket = index.get(bucket_key)
        if bucket is None:
            index[bucket_key] = fact
        elif type(bucket) is dict:
            bucket[key] = fact
        else:
            index[bucket_key] = {self._primary_key(bucket.values): bucket, key: fact}

    def _remove_fact(self, key: Tuple[Value, ...], fact: Fact) -> None:
        self._rows.pop(key, None)
        if fact.ttl is not None:
            self._soft_count -= 1
        for columns, index in self._indexes.items():
            bucket_key = self._index_getters[columns](fact.values)
            bucket = index.get(bucket_key)
            # Remove by identity: Fact equality ignores metadata, and only
            # the object this table stored may leave the bucket.
            if bucket is fact:
                del index[bucket_key]
            elif type(bucket) is dict and bucket.get(key) is fact:
                del bucket[key]
                if len(bucket) == 1:
                    (index[bucket_key],) = bucket.values()

    def _build_index(
        self, columns: Tuple[int, ...]
    ) -> Dict[Tuple[Value, ...], _Bucket]:
        getter = self._index_getters.get(columns)
        if getter is None:
            getter = self._index_getters[columns] = _columns_getter(
                columns, self.schema.arity
            )
        index: Dict[Tuple[Value, ...], _Bucket] = {}
        for key, fact in self._rows.items():
            self._file(index, getter(fact.values), key, fact)
        self._indexes[columns] = index
        return index
