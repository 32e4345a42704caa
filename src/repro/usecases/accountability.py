"""Accountability: PlanetFlow-style network auditing (Section 3).

PlanetFlow maintains accountability for all traffic generated by PlanetLab
services so that usage can be checked against policy.  Here the same idea is
expressed over the simulation's message log and the offline provenance
archives: every message is attributed to the principal that asserted it, the
auditor aggregates per-principal usage (the call-detail analogy the paper
draws), and usage policies flag principals that exceed their allowance or
talk to destinations they should not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.net.message import MessageBatch


@dataclass(frozen=True)
class UsagePolicy:
    """Per-principal usage limits.

    ``None`` limits are unrestricted; ``forbidden_destinations`` lists nodes
    the principal must not send to.
    """

    max_messages: Optional[int] = None
    max_bytes: Optional[int] = None
    forbidden_destinations: FrozenSet[str] = frozenset()


@dataclass
class AuditRecord:
    """Aggregated usage of one principal."""

    principal: str
    messages: int = 0
    bytes_sent: int = 0
    destinations: Dict[str, int] = field(default_factory=dict)
    relations: Dict[str, int] = field(default_factory=dict)
    first_activity: Optional[float] = None
    last_activity: Optional[float] = None

    def record(self, message: MessageBatch) -> None:
        """Count one wire message: its bytes once, its relations per tuple."""
        self.messages += 1
        self.bytes_sent += message.size_bytes()
        self.destinations[message.destination] = (
            self.destinations.get(message.destination, 0) + 1
        )
        for item in message.items:
            relation = item.fact.relation
            self.relations[relation] = self.relations.get(relation, 0) + 1
        if self.first_activity is None or message.sent_at < self.first_activity:
            self.first_activity = message.sent_at
        if self.last_activity is None or message.sent_at > self.last_activity:
            self.last_activity = message.sent_at


@dataclass(frozen=True)
class Violation:
    """One detected policy violation."""

    principal: str
    kind: str
    detail: str


class AccountabilityAuditor:
    """Aggregates per-principal traffic and checks it against usage policies."""

    def __init__(self, policies: Optional[Mapping[str, UsagePolicy]] = None) -> None:
        self._policies = dict(policies or {})
        self._records: Dict[str, AuditRecord] = {}

    @classmethod
    def from_network(
        cls, network, policies: Optional[Mapping[str, UsagePolicy]] = None
    ) -> "AccountabilityAuditor":
        """Audit a finished run straight from its per-node statistics.

        Every node is a principal; its record aggregates the wire messages
        and bytes it shipped — provenance *query* traffic included, itemized
        under the ``query`` pseudo-relation, because PlanetFlow-style
        accountability should bill tracebacks like any other usage.
        *network* is anything with per-node ``stats``: a
        :class:`repro.api.Network`, a ``RunResult`` or a bare simulator.
        """
        auditor = cls(policies)
        for address, node_stats in sorted(network.stats.nodes.items()):
            record = auditor._records.setdefault(
                address, AuditRecord(principal=address)
            )
            record.messages += node_stats.messages_sent
            record.bytes_sent += node_stats.bytes_sent
            if node_stats.query_messages_sent:
                record.relations["query"] = (
                    record.relations.get("query", 0)
                    + node_stats.query_messages_sent
                )
        return auditor

    # -- intake --------------------------------------------------------------------

    def observe(self, message: MessageBatch) -> None:
        """Attribute one data message to the principal whose seal it carries
        (or, unsigned, to its source node)."""
        seal = message.seal
        principal = seal.principal if seal is not None else message.source
        record = self._records.setdefault(principal, AuditRecord(principal=principal))
        record.record(message)

    def observe_all(self, messages: Iterable[MessageBatch]) -> None:
        for message in messages:
            self.observe(message)

    # -- reporting -------------------------------------------------------------------

    def record_for(self, principal: str) -> AuditRecord:
        return self._records.get(principal, AuditRecord(principal=principal))

    def records(self) -> Tuple[AuditRecord, ...]:
        return tuple(sorted(self._records.values(), key=lambda r: r.principal))

    def total_bytes(self) -> int:
        return sum(record.bytes_sent for record in self._records.values())

    def top_talkers(self, count: int = 5) -> Tuple[AuditRecord, ...]:
        ranked = sorted(
            self._records.values(), key=lambda r: r.bytes_sent, reverse=True
        )
        return tuple(ranked[:count])

    # -- policy enforcement -------------------------------------------------------------

    def set_policy(self, principal: str, policy: UsagePolicy) -> None:
        self._policies[principal] = policy

    def violations(self) -> Tuple[Violation, ...]:
        """Every policy violation found in the audited traffic."""
        found: List[Violation] = []
        for principal, policy in self._policies.items():
            record = self._records.get(principal)
            if record is None:
                continue
            if policy.max_messages is not None and record.messages > policy.max_messages:
                found.append(
                    Violation(
                        principal=principal,
                        kind="message_quota",
                        detail=(
                            f"{record.messages} messages sent, "
                            f"allowance is {policy.max_messages}"
                        ),
                    )
                )
            if policy.max_bytes is not None and record.bytes_sent > policy.max_bytes:
                found.append(
                    Violation(
                        principal=principal,
                        kind="byte_quota",
                        detail=(
                            f"{record.bytes_sent} bytes sent, "
                            f"allowance is {policy.max_bytes}"
                        ),
                    )
                )
            touched = set(record.destinations) & set(policy.forbidden_destinations)
            for destination in sorted(touched):
                found.append(
                    Violation(
                        principal=principal,
                        kind="forbidden_destination",
                        detail=f"sent {record.destinations[destination]} messages to {destination}",
                    )
                )
        return tuple(found)

    def report(self) -> str:
        """Human-readable audit report (one line per principal)."""
        lines = ["principal  messages      bytes  distinct destinations"]
        for record in self.records():
            lines.append(
                f"{record.principal:<10s} {record.messages:>8d} {record.bytes_sent:>10d}"
                f"  {len(record.destinations):>5d}"
            )
        violations = self.violations()
        if violations:
            lines.append("violations:")
            for violation in violations:
                lines.append(f"  {violation.principal}: {violation.kind} — {violation.detail}")
        else:
            lines.append("no policy violations")
        return "\n".join(lines)
