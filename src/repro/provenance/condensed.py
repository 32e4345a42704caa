"""Condensed provenance (Section 4.4).

Condensed provenance keeps, for each tuple, only the information needed to
enforce trust based on *source origins*: a boolean expression over the
principals (or base-tuple keys) its derivations rest on, minimised by
absorption so that e.g. ``<a + a*b>`` collapses to ``<a>`` — whether ``b`` is
trusted is inconsequential once ``a`` is.

A :class:`CondensedProvenance` wraps a provenance polynomial together with
its BDD encoding (canonical form).  Combining annotations mirrors the
relational operators: ``join`` (*) when facts are used together in one rule
body, ``merge`` (+) when alternative derivations of the same tuple meet.
The annotation travels with the tuple under local provenance, so its
:meth:`serialized_size` feeds the bandwidth model of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.provenance.bdd import BDD, BDDManager
from repro.provenance.polynomial import ProvenanceExpression, p_product, p_var
from repro.provenance.semiring import Semiring


def condense_expression(expression: ProvenanceExpression) -> ProvenanceExpression:
    """Condense *expression* by idempotence and absorption (``a + a*b -> a``)."""
    return expression.condense()


@dataclass(frozen=True)
class CondensedProvenance:
    """A tuple's condensed provenance annotation.

    The canonical (condensed) polynomial is always stored; the BDD handle is
    optional and lazily created by :meth:`to_bdd` when a shared manager is
    supplied, matching the paper's BuDDy-backed encoding.
    """

    expression: ProvenanceExpression

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_source(source: str) -> "CondensedProvenance":
        """Annotation of a base tuple asserted by *source* (a principal or key)."""
        return CondensedProvenance(expression=p_var(source))

    @staticmethod
    def empty() -> "CondensedProvenance":
        """Annotation of a tuple with no derivation (zero)."""
        return CondensedProvenance(expression=ProvenanceExpression.zero())

    @staticmethod
    def axiomatic() -> "CondensedProvenance":
        """Annotation of a tuple taken as given (one)."""
        return CondensedProvenance(expression=ProvenanceExpression.one())

    # -- combination ----------------------------------------------------------

    def join(self, other: "CondensedProvenance") -> "CondensedProvenance":
        """Combine annotations of facts joined within a single derivation (*)."""
        return self._wrap((self.expression * other.expression).condense(), other)

    def merge(self, other: "CondensedProvenance") -> "CondensedProvenance":
        """Combine alternative derivations of the same tuple (+)."""
        return self._wrap(self.expression.absorb(other.expression), other)

    def _wrap(
        self, expression: ProvenanceExpression, other: "CondensedProvenance"
    ) -> "CondensedProvenance":
        """Wrap *expression*, reusing the operand that already holds it.

        Annotations are immutable, so ``x.join(axiomatic())`` and
        ``x.merge(x)`` are ``x`` itself — callers may test ``is``.
        """
        if expression is self.expression:
            return self
        if expression is other.expression:
            return other
        return CondensedProvenance(expression=expression)

    @staticmethod
    def join_all(annotations: Iterable["CondensedProvenance"]) -> "CondensedProvenance":
        """``join`` over *annotations*, condensed once at the end.

        The minimal DNF is unique, so condensing the whole product gives the
        polynomial that condensing after every factor would.
        """
        annotations = tuple(annotations)
        joined = p_product(*[a.expression for a in annotations]).condense()
        for annotation in annotations:
            if annotation.expression is joined:
                return annotation
        return CondensedProvenance(expression=joined)

    @staticmethod
    def merge_all(annotations: Iterable["CondensedProvenance"]) -> "CondensedProvenance":
        result = CondensedProvenance.empty()
        for annotation in annotations:
            result = result.merge(annotation)
        return result

    # -- queries --------------------------------------------------------------

    def sources(self) -> frozenset:
        """Every principal / base key the annotation mentions."""
        return self.expression.variables()

    def acceptable(self, trusted: Iterable[str]) -> bool:
        """Trust decision: is some derivation supported entirely by *trusted*?

        This is the Section 4.4 use of condensed provenance — a node accepts
        a tuple iff at least one monomial's sources are all trusted.
        """
        trusted_set = set(trusted)
        return any(
            support <= trusted_set for support in self.expression.monomial_supports()
        )

    def evaluate(self, semiring: Semiring, assignment: Mapping[str, object]) -> object:
        """Evaluate the annotation in an arbitrary semiring (Section 4.5)."""
        return self.expression.evaluate(semiring, assignment)

    def to_bdd(self, manager: BDDManager) -> BDD:
        """Encode the annotation in *manager* (the BuDDy analogue)."""
        return manager.from_expression(self.expression)

    def serialized_size(self) -> int:
        """Wire size in bytes when piggy-backed on a shipped tuple."""
        return self.expression.serialized_size()

    def __str__(self) -> str:
        return str(self.expression)
