"""Trust management over provenance (Section 3, Section 4.4 / 4.5).

The Orchestra scenario: a node receiving an update examines the update's
provenance and the trust it places in the principals that appear there, and
accepts or rejects the update accordingly.  Three policy families from the
paper are supported:

* **source-set policies** — accept iff some derivation rests entirely on
  trusted principals (this is exactly what condensed provenance preserves);
* **security-level policies** — accept iff the derivation's trust level
  (max-over-alternatives of min-over-joins of principal levels) reaches a
  threshold;
* **vote policies** — accept iff at least ``K`` distinct principals assert
  the update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.engine.tuples import Fact
from repro.provenance.polynomial import ProvenanceExpression
from repro.provenance.quantify import (
    acceptable,
    count_derivations,
    trust_level,
    vote_principals,
)
from repro.security.principal import PrincipalRegistry


@dataclass(frozen=True)
class TrustPolicy:
    """A trust-management policy.

    Any combination of the three criteria may be set; an update is accepted
    only when every configured criterion passes.
    """

    trusted_principals: Optional[FrozenSet[str]] = None
    minimum_level: Optional[int] = None
    minimum_votes: Optional[int] = None

    @staticmethod
    def trust_sources(*principals: str) -> "TrustPolicy":
        return TrustPolicy(trusted_principals=frozenset(principals))

    @staticmethod
    def require_level(minimum_level: int) -> "TrustPolicy":
        return TrustPolicy(minimum_level=minimum_level)

    @staticmethod
    def require_votes(minimum_votes: int) -> "TrustPolicy":
        return TrustPolicy(minimum_votes=minimum_votes)


@dataclass(frozen=True)
class TrustDecision:
    """The outcome of evaluating one update against a policy."""

    accepted: bool
    reasons: Tuple[str, ...]
    trust_level: Optional[float] = None
    votes: Optional[int] = None
    derivations: Optional[int] = None


class TrustManager:
    """Evaluates incoming updates against trust policies using their provenance."""

    def __init__(
        self,
        policy: TrustPolicy,
        registry: Optional[PrincipalRegistry] = None,
        default_level: int = 0,
    ) -> None:
        self.policy = policy
        self.registry = registry or PrincipalRegistry()
        self.default_level = default_level
        self.accepted = 0
        self.rejected = 0

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, annotation: ProvenanceExpression) -> TrustDecision:
        """Decide whether an update with provenance *annotation* should be accepted.

        A raw (uncondensed) expression is used as given: condensation does
        not change source-set acceptability, but absorbed monomials still
        name principals that count towards votes and levels.
        """
        reasons: list[str] = []
        accepted = True

        level: Optional[float] = None
        votes: Optional[int] = None

        if self.policy.trusted_principals is not None:
            if acceptable(annotation, self.policy.trusted_principals):
                reasons.append("a derivation rests entirely on trusted principals")
            else:
                accepted = False
                reasons.append(
                    "no derivation is supported by the trusted principal set "
                    f"{sorted(self.policy.trusted_principals)}"
                )

        if self.policy.minimum_level is not None:
            level = trust_level(
                annotation,
                {name: self.registry.security_level(name) for name in annotation.variables()},
                default_level=self.default_level,
            )
            if level >= self.policy.minimum_level:
                reasons.append(
                    f"trust level {level} meets the minimum {self.policy.minimum_level}"
                )
            else:
                accepted = False
                reasons.append(
                    f"trust level {level} is below the minimum {self.policy.minimum_level}"
                )

        if self.policy.minimum_votes is not None:
            votes = vote_principals(annotation)
            if votes >= self.policy.minimum_votes:
                reasons.append(
                    f"{votes} principals assert the update (minimum {self.policy.minimum_votes})"
                )
            else:
                accepted = False
                reasons.append(
                    f"only {votes} principals assert the update "
                    f"(minimum {self.policy.minimum_votes})"
                )

        decision = TrustDecision(
            accepted=accepted,
            reasons=tuple(reasons),
            trust_level=level,
            votes=votes,
            derivations=count_derivations(annotation),
        )
        if accepted:
            self.accepted += 1
        else:
            self.rejected += 1
        return decision

    def evaluate_over_network(
        self,
        network,
        update: Fact,
        at: Optional[str] = None,
        authenticated: bool = False,
    ) -> Tuple[TrustDecision, object]:
        """Evaluate an update whose provenance is fetched *over the network*.

        Orchestra-style trust decisions need the update's provenance; here
        the deciding node asks for it with
        ``network.query(update, condensed=True)`` — paying query bytes and
        latency, and optionally demanding signed responses
        (``authenticated=True``, Section 4.3 applied to the query plane).
        Returns the :class:`TrustDecision` plus the underlying
        :class:`~repro.net.query.QueryResult` with the costs; an incomplete
        query (a node down mid-traceback) falls back to whatever partial
        graph was reconstructed.
        """
        where = at if at is not None else update.origin
        result = network.query(
            update, at=where, condensed=True, authenticated=authenticated
        )
        annotation = result.condensed
        if annotation is None:
            annotation = result.graph.to_condensed(update.key())
        return self.evaluate(annotation), result

    def filter_updates(
        self, updates: Iterable[Tuple[Fact, ProvenanceExpression]]
    ) -> Tuple[Tuple[Fact, TrustDecision], ...]:
        """Evaluate a stream of (update, provenance) pairs; return all decisions."""
        return tuple((fact, self.evaluate(provenance)) for fact, provenance in updates)

    def acceptance_rate(self) -> float:
        total = self.accepted + self.rejected
        return self.accepted / total if total else 0.0
