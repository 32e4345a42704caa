"""Real-time diagnostics over online provenance (Section 3).

The paper's scenario: a continuous query counts the changes to a routing
table entry over the past ``T`` seconds and raises an alarm when the count
exceeds a threshold (possible divergence or malicious activity); upon the
alarm, the system issues a query over the *online provenance* to find the
source of the suspicious updates, and can then purge all state derived from
the offending node.

:class:`RouteFlapDetector` implements the sliding-window change counter,
identifies the responsible origins via the condensed provenance of the
flapping routes, and drives cascade invalidation through the live derivation
log's dependency index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.engine.tuples import FactKey
from repro.provenance.condensed import CondensedProvenance
from repro.provenance.log import DerivationLog


@dataclass(frozen=True)
class FlapEvent:
    """One observed change to a routing-table entry."""

    source: str
    destination: str
    timestamp: float
    new_cost: Optional[float] = None

    @property
    def entry(self) -> Tuple[str, str]:
        return (self.source, self.destination)


@dataclass
class DiagnosticsReport:
    """Result of a diagnostics pass over the observed route changes."""

    alarms: Tuple[Tuple[str, str], ...]
    suspicious_principals: Tuple[str, ...]
    purged_tuples: Tuple[FactKey, ...]

    @property
    def anomaly_detected(self) -> bool:
        return bool(self.alarms)


class RouteFlapDetector:
    """Sliding-window route-change monitor with provenance-driven reaction.

    Parameters
    ----------
    window_seconds:
        Length of the sliding window ``T`` over which changes are counted.
    threshold:
        Number of changes within the window that raises an alarm.
    """

    def __init__(self, window_seconds: float = 30.0, threshold: int = 3) -> None:
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.window_seconds = window_seconds
        self.threshold = threshold
        self._events: Dict[Tuple[str, str], Deque[FlapEvent]] = {}

    # -- event intake ------------------------------------------------------------

    def observe(self, event: FlapEvent) -> bool:
        """Record one route change; return True when this entry is now flapping."""
        window = self._events.setdefault(event.entry, deque())
        window.append(event)
        self._evict(window, event.timestamp)
        return len(window) >= self.threshold

    def observe_route_change(
        self, source: str, destination: str, timestamp: float, new_cost: Optional[float] = None
    ) -> bool:
        return self.observe(FlapEvent(source, destination, timestamp, new_cost))

    def change_count(self, source: str, destination: str, now: float) -> int:
        """Changes to (source, destination) within the window ending at *now*."""
        window = self._events.get((source, destination))
        if window is None:
            return 0
        self._evict(window, now)
        return len(window)

    def flapping_entries(self, now: float) -> Tuple[Tuple[str, str], ...]:
        """All routing entries currently over the alarm threshold."""
        result: List[Tuple[str, str]] = []
        for entry, window in self._events.items():
            self._evict(window, now)
            if len(window) >= self.threshold:
                result.append(entry)
        return tuple(sorted(result))

    # -- provenance-driven reaction ------------------------------------------------

    def identify_suspects(
        self,
        flapping: Iterable[Tuple[str, str]],
        provenance_of: Dict[Tuple[str, str], CondensedProvenance],
        trusted: Iterable[str] = (),
    ) -> Tuple[str, ...]:
        """Principals implicated by the provenance of flapping routes.

        Every principal appearing in the provenance of a flapping entry that
        is not explicitly *trusted* is reported as a suspect.
        """
        trusted_set = set(trusted)
        suspects: set = set()
        for entry in flapping:
            annotation = provenance_of.get(entry)
            if annotation is None:
                continue
            suspects.update(annotation.sources() - trusted_set)
        return tuple(sorted(suspects))

    def identify_suspects_over_network(
        self,
        network,
        flapping: Iterable[Tuple[str, str]],
        route_key_of: Dict[Tuple[str, str], FactKey],
        at: str,
        trusted: Iterable[str] = (),
    ) -> Tuple[str, ...]:
        """Attribute flapping routes by querying provenance *in-band*.

        For every flapping entry the monitoring node issues
        ``network.query(route_key, at=at, condensed=True)`` — the condensed
        annotation comes back over the simulated network (query traffic is
        charged to *at* in the statistics) instead of being read out of a
        Python dictionary.  Suspects are the untrusted principals the
        annotations implicate, exactly as in :meth:`identify_suspects`.
        """
        trusted_set = set(trusted)
        suspects: set = set()
        for entry in flapping:
            key = route_key_of.get(entry)
            if key is None:
                continue
            result = network.query(key, at=at, condensed=True)
            if result.condensed is None:
                continue
            suspects.update(result.condensed.sources() - trusted_set)
        return tuple(sorted(suspects))

    def purge_derived_state(
        self, log: DerivationLog, roots: Iterable[FactKey]
    ) -> Tuple[FactKey, ...]:
        """Cascade-delete online provenance derived (directly or not) from *roots*.

        *log* is a node's live derivation log with ``track_dependencies`` on.

        Returns every tuple key whose provenance was purged — the runtime
        reaction the paper describes ("delete all routing entries associated
        with the malicious node").
        """
        purged: List[FactKey] = []
        queue: List[FactKey] = list(roots)
        seen: set = set()
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            log.invalidate(key)
            purged.append(key)
            queue.extend(log.dependents_of(key))
        return tuple(purged)

    def run(
        self,
        events: Iterable[FlapEvent],
        provenance_of: Dict[Tuple[str, str], CondensedProvenance],
        online_store: Optional[DerivationLog] = None,
        route_key_of: Optional[Dict[Tuple[str, str], FactKey]] = None,
        trusted: Iterable[str] = (),
    ) -> DiagnosticsReport:
        """Full diagnostics pass: ingest events, alarm, attribute, purge."""
        latest = 0.0
        for event in events:
            latest = max(latest, event.timestamp)
            self.observe(event)
        alarms = self.flapping_entries(latest)
        suspects = self.identify_suspects(alarms, provenance_of, trusted)
        purged: Tuple[FactKey, ...] = ()
        if online_store is not None and route_key_of is not None and alarms:
            roots = [route_key_of[entry] for entry in alarms if entry in route_key_of]
            purged = self.purge_derived_state(online_store, roots)
        return DiagnosticsReport(
            alarms=alarms, suspicious_principals=suspects, purged_tuples=purged
        )

    # -- internals -------------------------------------------------------------------

    def _evict(self, window: Deque[FlapEvent], now: float) -> None:
        while window and now - window[0].timestamp > self.window_seconds:
            window.popleft()
