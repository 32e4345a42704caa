"""Per-node admission control for the query service plane.

A production provenance service cannot let query traffic starve the
maintenance plane it shares links and CPUs with, so every node fronts its
query handler with a classic token bucket.  The bucket runs on **simulated
time only** (INV001: the service plane never reads the wall clock) and
keeps all of its state on the instance (INV006: no module-level caches),
so two backends replaying the same arrival stream make identical
admit/deny decisions.

A denied arrival is shed at once: it is counted as both
``queries_rejected`` and ``queries_shed`` on the node's
:class:`~repro.net.stats.NodeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass


class TokenBucket:
    """A token bucket advanced lazily by the simulated clock.

    ``rate`` tokens accrue per simulated second up to ``burst``; each
    admitted query spends one.  Refill happens on :meth:`try_acquire`
    from the elapsed simulated time, so the bucket needs no timer events
    of its own and is exact at any event granularity.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, start: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        if burst <= 0:
            raise ValueError("token bucket burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = float(start)

    def try_acquire(self, now: float, cost: float = 1.0) -> bool:
        """Spend *cost* tokens at simulated instant *now* if available."""
        if now > self.updated:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated) * self.rate
            )
            self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def available(self, now: float) -> float:
        """Tokens that would be available at *now*, without spending any."""
        if now <= self.updated:
            return self.tokens
        return min(self.burst, self.tokens + (now - self.updated) * self.rate)


@dataclass(frozen=True)
class AdmissionControl:
    """Validated admission-control configuration, one bucket per node.

    Frozen and picklable: it travels inside every shard kernel the sharded
    backend reels back from its worker process.
    """

    rate: float
    burst: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("admission rate must be positive queries/second")
        if self.burst < 0:
            raise ValueError("admission burst must be non-negative")

    def bucket(self, start: float = 0.0) -> TokenBucket:
        """A fresh per-node bucket; burst defaults to one second of rate."""
        burst = self.burst if self.burst > 0 else max(1.0, self.rate)
        return TokenBucket(rate=self.rate, burst=burst, start=start)
