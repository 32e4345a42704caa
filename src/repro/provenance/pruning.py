"""Provenance maintenance optimizations (Section 5).

Of the three optimizations the paper outlines for lowering provenance
overhead, *reactive* (lazy) maintenance is how the live
:class:`~repro.provenance.log.DerivationLog` works — a firing is appended
once and graph views are materialised only when a query or diagnostic reads
them.  The other two live here:

* **sampling** — :class:`ProvenanceSampler` records provenance for only a
  deterministic pseudo-random fraction of tuples, the IP-traceback /
  ForNet-style accuracy-for-overhead trade;
* **provenance granularity** — :class:`ASAggregator` maps node-level
  principals onto their autonomous system so provenance is maintained at AS
  granularity, sufficient for detecting aggregated events while much smaller.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.engine.tuples import FactKey
from repro.provenance.polynomial import ProvenanceExpression


class ProvenanceSampler:
    """Deterministic sampling of which tuples get provenance recorded.

    The decision is a hash of the tuple key, so all nodes agree on whether a
    given tuple is sampled without coordination — the property IP traceback's
    probabilistic marking relies on, made deterministic for reproducibility.
    """

    def __init__(self, rate: float, salt: str = "") -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sampling rate must be within [0, 1]")
        self.rate = rate
        self.salt = salt
        self.sampled = 0
        self.skipped = 0

    def should_record(self, key: FactKey) -> bool:
        if self.rate >= 1.0:
            self.sampled += 1
            return True
        if self.rate <= 0.0:
            self.skipped += 1
            return False
        digest = hashlib.sha256(f"{self.salt}|{key}".encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if bucket < self.rate:
            self.sampled += 1
            return True
        self.skipped += 1
        return False

    def observed_rate(self) -> float:
        total = self.sampled + self.skipped
        return self.sampled / total if total else 0.0


class ASAggregator:
    """Aggregate provenance to autonomous-system granularity.

    ``assignment`` maps node / principal names to AS identifiers.  Rewriting
    a provenance expression replaces every node variable with its AS variable
    and re-condenses, typically shrinking the expression dramatically while
    still identifying which ASes contributed to a derivation.
    """

    def __init__(self, assignment: Mapping[str, str], default_as: str = "AS-unknown") -> None:
        self._assignment = dict(assignment)
        self._default = default_as

    def as_of(self, node: str) -> str:
        return self._assignment.get(node, self._default)

    def aggregate(self, expression: ProvenanceExpression) -> ProvenanceExpression:
        """Rewrite node variables into AS variables and condense."""
        monomials: Dict = {}
        for support in expression.monomial_supports():
            renamed = tuple(sorted({self.as_of(name) for name in support}))
            key = tuple((name, 1) for name in renamed)
            monomials[key] = 1
        return ProvenanceExpression.from_monomials(monomials).condense()

    def compression_ratio(self, annotation: ProvenanceExpression) -> float:
        """Size of the AS-level annotation relative to the node-level one."""
        original = max(annotation.serialized_size(), 1)
        return self.aggregate(annotation).serialized_size() / original


def grouped_by_as(
    aggregator: ASAggregator, principals: Iterable[str]
) -> Dict[str, Tuple[str, ...]]:
    """Group principals by their AS (helper for AS-level anomaly summaries)."""
    groups: Dict[str, List[str]] = {}
    for principal in principals:
        groups.setdefault(aggregator.as_of(principal), []).append(principal)
    return {as_id: tuple(sorted(members)) for as_id, members in groups.items()}
