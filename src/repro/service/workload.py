"""Query workload generation: open- and closed-loop arrival processes.

The generator turns a :class:`QueryWorkload` description into a stream of
:class:`~repro.net.events.QueryArrival` simulation events that interleave
with whatever else the network is doing (refresh rounds, churn, scenario
dynamics) on the same :class:`~repro.net.events.EventScheduler`.

**Open loop** (``rate > 0``): arrivals are a Poisson process — seeded
exponential inter-arrival draws — whose entire schedule is precomputed
before the run.  Clients do not wait for answers, which is what produces
the saturation signature (latency and rejections climb while goodput
plateaus) instead of the self-throttling a closed loop exhibits.  Because
the schedule is a pure function of the seed and the topology's node list,
the serial and sharded backends see byte-identical event streams.

**Closed loop** (``clients > 0``): N concurrent clients, each pinned to
one node, issue a query, wait for its completion, think for
``think_time`` simulated seconds, and issue the next.  Follow-up arrivals
are scheduled *kernel-side* at completion time (the asker's kernel owns
the client), so the loop needs no coordinator involvement and behaves
identically in ``shard_mode="processes"``.

Arrivals carry a root *selector* — ``(relation, draw, pool)`` — resolved
against the asker's live store when the event fires; drawing from a small
``pool`` of per-node root indices is what makes the workload
repeated-key, the regime where the result cache earns its keep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.net.address import Address
from repro.net.events import QueryArrival
from repro.net.query import QUERY_MODES


def _mix(value: int) -> int:
    """A deterministic 64-bit integer mix (splitmix64 finalizer).

    Used to derive a closed-loop client's next root draw from its arrival
    counter without threading an RNG through kernel state.
    """
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def next_arrival(event: QueryArrival, at: float) -> QueryArrival:
    """The closed-loop follow-up to *event*, issued at simulated *at*.

    Pure and content-derived: the next draw mixes the client's arrival
    counter, so any kernel (or the serial backend) computing the follow-up
    produces the identical event — including its content-based rank.
    """
    arrival_id = event.arrival_id + 1
    return QueryArrival(
        time=at,
        address=event.address,
        relation=event.relation,
        draw=_mix((event.client << 32) | arrival_id) % event.pool,
        pool=event.pool,
        mode=event.mode,
        condensed=event.condensed,
        client=event.client,
        arrival_id=arrival_id,
        deadline=event.deadline,
        think=event.think,
    )


@dataclass(frozen=True)
class QueryWorkload:
    """A declarative description of one serve window's query load.

    ``rate`` is the aggregate open-loop arrival rate in queries per
    simulated second (0 disables the open loop); ``clients`` the number of
    closed-loop clients (0 disables the closed loop); both can run at
    once.  ``pool`` bounds the distinct per-node root indices drawn —
    small pools mean repeated keys and cache hits.
    """

    rate: float = 0.0
    clients: int = 0
    think_time: float = 0.5
    duration: float = 10.0
    seed: int = 0
    relation: str = "bestPath"
    pool: int = 4
    mode: str = "online"
    condensed: bool = False

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("workload rate must be non-negative queries/second")
        if self.clients < 0:
            raise ValueError("workload clients must be non-negative")
        if self.rate == 0 and self.clients == 0:
            raise ValueError(
                "workload needs an open loop (rate > 0), a closed loop "
                "(clients > 0), or both"
            )
        if self.think_time < 0:
            raise ValueError("workload think_time must be non-negative seconds")
        if self.duration <= 0:
            raise ValueError("workload duration must be positive seconds")
        if self.pool <= 0:
            raise ValueError("workload pool must be a positive root count")
        if self.mode not in QUERY_MODES:
            raise ValueError(
                f"unknown workload query mode {self.mode!r}; expected one of "
                f"{QUERY_MODES}"
            )

    def events(
        self, nodes: Sequence[Address], start: float
    ) -> List[QueryArrival]:
        """The precomputed arrival events for a serve window opening at *start*.

        Open-loop arrivals are drawn here in full; closed-loop clients get
        their first arrival each (staggered across the first think window)
        and self-perpetuate kernel-side via :func:`next_arrival` until
        ``deadline``.  The result is a pure function of ``(self, nodes,
        start)`` — both backends schedule the identical stream.
        """
        ordered = sorted(nodes, key=str)
        if not ordered:
            raise ValueError("workload needs at least one node to aim at")
        rng = random.Random(self.seed)
        deadline = start + self.duration
        arrivals: List[QueryArrival] = []
        if self.rate > 0:
            arrival_id = 0
            at = start
            while True:
                at += rng.expovariate(self.rate)
                if at >= deadline:
                    break
                arrivals.append(
                    QueryArrival(
                        time=at,
                        address=ordered[rng.randrange(len(ordered))],
                        relation=self.relation,
                        draw=rng.randrange(self.pool),
                        pool=self.pool,
                        mode=self.mode,
                        condensed=self.condensed,
                        client=-1,
                        arrival_id=arrival_id,
                        deadline=deadline,
                        think=0.0,
                    )
                )
                arrival_id += 1
        think = self.think_time
        for client in range(self.clients):
            stagger = rng.uniform(0.0, think) if think > 0 else 0.0
            arrivals.append(
                QueryArrival(
                    time=start + stagger,
                    address=ordered[client % len(ordered)],
                    relation=self.relation,
                    draw=rng.randrange(self.pool),
                    pool=self.pool,
                    mode=self.mode,
                    condensed=self.condensed,
                    client=client,
                    arrival_id=0,
                    deadline=deadline,
                    think=think,
                )
            )
        return arrivals

    def offered(self, events: Iterable[QueryArrival]) -> int:
        """Initial arrivals offered (closed-loop follow-ups not included)."""
        return sum(1 for _ in events)
