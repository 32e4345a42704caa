"""Quantifiable provenance (Section 4.5).

The semiring formulation permits quantifiable notions of trust evaluated
directly over a tuple's provenance expression:

* **trust level** — with principals assigned security levels, the trust of a
  derivation is the ``min`` of its inputs' levels, and the trust of a tuple
  is the ``max`` over its alternative derivations.  The paper's example:
  ``<a + a*b>`` with ``level(a)=2, level(b)=1`` yields
  ``max(2, min(2,1)) = 2``.
* **count** — the number of distinct ways the tuple can be derived.
* **vote** — the number of distinct principals that (jointly) support at
  least one derivation; e.g. "accept an update only if over K principals
  assert it".

Beside them sits the boolean test condensed provenance exists for
(Section 4.4): :func:`acceptable` — does some derivation rest on trusted
sources alone?
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from repro.provenance.polynomial import ProvenanceExpression
from repro.provenance.semiring import COUNTING, TRUST
from repro.security.principal import PrincipalRegistry


def trust_level(
    expression: ProvenanceExpression,
    levels: Union[Mapping[str, int], PrincipalRegistry],
    default_level: Optional[int] = None,
) -> float:
    """Security level of a tuple given per-principal levels.

    ``levels`` is either a plain mapping from principal name to level or a
    :class:`PrincipalRegistry`.  Principals missing from the mapping get
    ``default_level`` when provided, otherwise the semiring identity
    (fully trusted) — matching the paper's "assume trusted unless stated"
    reading of partially specified policies.
    """
    if isinstance(levels, PrincipalRegistry):
        assignment = {name: levels.security_level(name) for name in expression.variables()}
    else:
        assignment = dict(levels)
        if default_level is not None:
            for name in expression.variables():
                assignment.setdefault(name, default_level)
    return expression.evaluate(TRUST, assignment)


def count_derivations(expression: ProvenanceExpression) -> int:
    """Number of distinct derivations of the tuple (counting semiring).

    Every base variable counts as one way of being present, so the count of
    ``a + a*b`` is 2: one derivation through ``a`` alone and one through
    ``a`` joined with ``b``.
    """
    assignment = {name: 1 for name in expression.variables()}
    return expression.evaluate(COUNTING, assignment)


def vote_principals(expression: ProvenanceExpression) -> int:
    """Number of distinct principals participating in any derivation."""
    return len(expression.variables())


def acceptable(expression: ProvenanceExpression, trusted: Iterable[str]) -> bool:
    """Source-set trust: is some derivation supported entirely by *trusted*?

    The Section 4.4 use of condensed provenance — a node accepts a tuple iff
    at least one monomial's variables are all trusted.  Absorption never
    changes the answer, so a raw expression gets the same one.
    """
    trusted_set = set(trusted)
    return any(support <= trusted_set for support in expression.monomial_supports())


def accept_by_vote(expression: ProvenanceExpression, threshold: int) -> bool:
    """Quantified trust policy: accept only if over *threshold* principals assert it."""
    return vote_principals(expression) >= threshold


def accept_by_trust_level(
    expression: ProvenanceExpression,
    levels: Union[Mapping[str, int], PrincipalRegistry],
    minimum_level: int,
    default_level: Optional[int] = None,
) -> bool:
    """Trust policy: accept when the derivation's trust level reaches *minimum_level*."""
    return trust_level(expression, levels, default_level=default_level) >= minimum_level
