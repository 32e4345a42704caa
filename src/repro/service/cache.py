"""The query-result cache: memoized per-node sub-traceback closures.

Answering a provenance query makes the responding node walk its pointer
store to the *local closure* of the requested key
(:func:`repro.net.query._local_closure`).  Under service load the same
roots are asked again and again — the closure is the natural memo unit,
keyed by ``(root key, query mode, condensed)``.  The memoized value is the
closure as it travels (a :class:`~repro.net.message.QueryClosure`, the
walk's keyless records) with its condensed annotation, so every response
served from it shares one encoded stream, its size and its rebuild memo.

Correctness is non-negotiable: a cache-served traceback must be
structurally identical to what a cold walk at the same simulated instant
would produce (the Hypothesis property test pins exactly this).  Two
invalidation triggers guarantee it:

* **provenance epoch** — every :class:`~repro.engine.node_engine.NodeEngine`
  bumps an integer epoch whenever any of its provenance stores mutates
  (new derivation, remote record, retraction cascade, soft-state
  re-derivation, crash reset).  An entry recorded under an older epoch is
  discarded at lookup, so the cache can never outlive the store state it
  summarized;
* **LRU eviction** — the cache is capacity-bounded per node (the same
  discipline INV006 enforces for provenance stores: no unbounded
  process-lifetime state).

All state is per-instance and all decisions depend only on simulated time
and the engine's deterministic epoch, so hit/miss/invalidation counters
are byte-identical between the serial and sharded backends.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Validated, picklable result-cache configuration (travels inside a
    shard kernel recalled from its worker)."""

    capacity: int = 256

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("cache capacity must be a positive entry count")

    def build(self) -> "ClosureCache":
        return ClosureCache(capacity=self.capacity)


class ClosureCache:
    """One node's LRU memo of closure values, epoch-guarded."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        #: key -> (value, epoch, recorded_at); ordered oldest-touch first.
        self._entries: "OrderedDict[Hashable, Tuple[object, int, float]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, key: Hashable, epoch: int, now: float
    ) -> Tuple[Optional[Tuple[object, float]], bool]:
        """Return ``((value, age), invalidated)`` for *key* at *now*.

        A hit returns the memoized value with its age (simulated seconds
        since it was recorded) and refreshes its LRU position.  A stale
        entry — the engine's provenance epoch moved past it — is discarded,
        reported through the second element so the caller can count a
        ``cache_invalidation``; the lookup itself is then a miss.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None, False
        value, recorded_epoch, recorded_at = entry
        if recorded_epoch != epoch:
            del self._entries[key]
            return None, True
        self._entries.move_to_end(key)
        return (value, now - recorded_at), False

    def store(self, key: Hashable, value: object, epoch: int, now: float) -> int:
        """Memoize *value*; returns the number of entries LRU-evicted."""
        self._entries[key] = (value, epoch, now)
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> int:
        """Drop every entry (node crash); returns the count discarded."""
        count = len(self._entries)
        self._entries.clear()
        return count
