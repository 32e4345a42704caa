"""Provenance polynomials.

A provenance expression annotates one tuple with how it was derived from
base tuples (or, in the paper's condensed form, from the *principals* that
asserted the base tuples): ``+`` separates alternative derivations and ``*``
combines the inputs joined within one derivation.  The expression
``<a + a*b>`` from Figure 2 reads "derivable from ``a`` alone, or from ``a``
joined with ``b``".

Internally an expression is kept in a normal form as a set of *monomials*
(each monomial a frozen multiset of variables).  Under the idempotent,
absorptive semirings relevant for trust (Section 4.4) the canonical minimal
form is obtained by absorption — ``a + a*b == a`` — implemented in
:meth:`ProvenanceExpression.condense`.  For semirings where multiplicity
matters (counting), monomial multiplicities are preserved until the caller
explicitly condenses.

A condensed expression is the one type of both per-tuple polynomials a node
keeps — the annotation over principals that a firing records and ships, and
the base support over base-tuple keys that one-fixpoint deletions prune.
Both combine alike: :func:`join_all` over one firing's inputs, and
:meth:`ProvenanceExpression.absorb` when an alternative derivation meets the
stored one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.provenance.semiring import Semiring

#: One monomial: the multiset of variables joined in one derivation,
#: represented as a sorted tuple of (variable, exponent) pairs.
Monomial = Tuple[Tuple[str, int], ...]


#: The monomials of the one polynomial: the single empty monomial.
_ONE: Tuple[Tuple[Monomial, int], ...] = (((), 1),)


def _monomial_times(left: Monomial, right: Monomial) -> Monomial:
    if not left:
        return right
    if not right:
        return left
    counts = dict(left)
    for name, exponent in right:
        counts[name] = counts.get(name, 0) + exponent
    return tuple(sorted(counts.items()))


def _monomial_support(monomial: Monomial) -> FrozenSet[str]:
    return frozenset(name for name, _ in monomial)


@dataclass(frozen=True)
class ProvenanceExpression:
    """A provenance polynomial in monomial normal form.

    ``monomials`` maps each monomial to its multiplicity (the number of
    distinct derivations sharing that exact combination of inputs), sorted,
    multiplicities positive.  The zero polynomial (no derivation) has no
    monomials; the one polynomial (axiomatically present) has the single
    empty monomial.

    Expressions are immutable, so ``+``, ``*`` and :meth:`condense` hand back
    an *operand itself* whenever it already is the answer (``0 + x``,
    ``1 * x``, condensing a condensed polynomial): callers may test ``is``
    to see that nothing changed, and must never mutate what they get.
    """

    monomials: Tuple[Tuple[Monomial, int], ...]
    #: ``to_string()``, rendered once: a shipped annotation is rendered for
    #: its signature, its verification and its wire size.  Never invalidated
    #: (the owner is immutable); outside equality, ``repr`` and pickles.
    _rendered: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        return {"monomials": self.monomials}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "ProvenanceExpression":
        return ProvenanceExpression(monomials=())

    @staticmethod
    def one() -> "ProvenanceExpression":
        return ProvenanceExpression(monomials=_ONE)

    @staticmethod
    def var(name: str) -> "ProvenanceExpression":
        return ProvenanceExpression(monomials=((((name, 1),), 1),))

    @staticmethod
    def from_monomials(monomials: Mapping[Monomial, int]) -> "ProvenanceExpression":
        cleaned = {m: c for m, c in monomials.items() if c > 0}
        return ProvenanceExpression(monomials=tuple(sorted(cleaned.items())))

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "ProvenanceExpression") -> "ProvenanceExpression":
        if not self.monomials:
            return other
        if not other.monomials:
            return self
        combined: Dict[Monomial, int] = dict(self.monomials)
        for monomial, count in other.monomials:
            combined[monomial] = combined.get(monomial, 0) + count
        return ProvenanceExpression.from_monomials(combined)

    def __mul__(self, other: "ProvenanceExpression") -> "ProvenanceExpression":
        mine, theirs = self.monomials, other.monomials
        if mine == _ONE:
            return other
        if theirs == _ONE:
            return self
        if len(mine) == 1 and len(theirs) == 1:
            # The traffic: one derivation joined with one derivation.
            (left, left_count), = mine
            (right, right_count), = theirs
            return ProvenanceExpression(
                monomials=((_monomial_times(left, right), left_count * right_count),)
            )
        product: Dict[Monomial, int] = {}
        for left, left_count in mine:
            for right, right_count in theirs:
                key = _monomial_times(left, right)
                product[key] = product.get(key, 0) + left_count * right_count
        return ProvenanceExpression.from_monomials(product)

    def absorb(self, other: "ProvenanceExpression") -> "ProvenanceExpression":
        """Merge an alternative derivation into a condensed ``self``.

        ``(self + other).condense()``, except that ``self`` itself comes back
        when *other* adds nothing (``x + x``, ``a + a*b``): a caller holding
        ``self`` can stop at ``merged is self``.
        """
        mine = self.monomials
        if other.monomials == mine:
            return self
        merged = (self + other).condense()
        return self if merged.monomials == mine else merged

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def is_one(self) -> bool:
        return self.monomials == _ONE

    def variables(self) -> FrozenSet[str]:
        """All base-tuple / principal variables mentioned in the expression."""
        names = set()
        for monomial, _ in self.monomials:
            for name, _exp in monomial:
                names.add(name)
        return frozenset(names)

    def monomial_supports(self) -> Tuple[FrozenSet[str], ...]:
        """The variable sets of each monomial (exponents and counts dropped)."""
        return tuple(_monomial_support(m) for m, _ in self.monomials)

    def degree(self) -> int:
        """Largest number of variables (with multiplicity) joined in one derivation."""
        if self.is_zero:
            return 0
        return max(sum(exp for _, exp in monomial) for monomial, _ in self.monomials)

    # -- condensation (Section 4.4) -------------------------------------------

    def condense(self) -> "ProvenanceExpression":
        """Minimise under idempotence and absorption: ``a + a*b -> a``.

        The result is the unique minimal DNF of the (monotone) boolean
        function the expression denotes: duplicate variables collapse
        (``a*a -> a``), multiplicities drop, and any monomial whose support is
        a superset of another monomial's support is absorbed.
        """
        monomials = self.monomials
        if len(monomials) <= 1:
            # The traffic: one derivation, nothing to absorb.
            if not monomials:
                return self
            (monomial, count), = monomials
            if count == 1 and all(exponent == 1 for _, exponent in monomial):
                return self
            flat = tuple([(name, 1) for name, _ in monomial])
            return ProvenanceExpression(monomials=((flat, 1),))
        supports = set(self.monomial_supports())
        minimal = [
            support
            for support in supports
            if not any(other < support for other in supports)
        ]
        condensed = tuple(
            sorted((tuple([(name, 1) for name in sorted(s)]), 1) for s in minimal)
        )
        if condensed == monomials:
            return self
        return ProvenanceExpression(monomials=condensed)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, semiring: Semiring, assignment: Mapping[str, object]) -> object:
        """Evaluate the polynomial in *semiring* under a variable *assignment*.

        Missing variables evaluate to the semiring ``one`` so that partially
        specified assignments behave like "assume trusted/present".
        Multiplicities are folded via repeated addition, so counting semiring
        evaluation returns the true number of derivations.
        """
        total = semiring.zero
        for monomial, count in self.monomials:
            factors = []
            for name, exponent in monomial:
                value = assignment.get(name, semiring.one)
                factors.extend([value] * exponent)
            term = semiring.product(factors)
            for _ in range(count):
                total = semiring.plus(total, term)
        return total

    # -- rendering / wire size ------------------------------------------------

    def to_string(self) -> str:
        """Human-readable form matching the paper's ``<a+a*b>`` notation."""
        rendered = self._rendered
        if rendered is None:
            rendered = self._render()
            object.__setattr__(self, "_rendered", rendered)
        return rendered

    def _render(self) -> str:
        if self.is_zero:
            return "0"
        rendered_terms = []
        for monomial, count in self.monomials:
            if not monomial:
                factor = "1"
            else:
                parts = []
                for name, exponent in monomial:
                    parts.extend([name] * exponent)
                factor = "*".join(parts)
            if count > 1:
                factor = f"{count}*{factor}"
            rendered_terms.append(factor)
        return "+".join(rendered_terms)

    def serialized_size(self) -> int:
        """Bytes this expression occupies on the wire (UTF-8 of its string form)."""
        return len(self.to_string().encode("utf-8"))

    def __str__(self) -> str:
        return f"<{self.to_string()}>"


# Convenience constructors used across examples and tests -------------------

def p_zero() -> ProvenanceExpression:
    """The zero polynomial (no derivation)."""
    return ProvenanceExpression.zero()


def p_one() -> ProvenanceExpression:
    """The one polynomial (axiomatically present)."""
    return ProvenanceExpression.one()


def p_var(name: str) -> ProvenanceExpression:
    """A single base-tuple / principal variable."""
    return ProvenanceExpression.var(name)


def p_sum(*expressions: ProvenanceExpression) -> ProvenanceExpression:
    """Sum (alternative derivations) of *expressions*."""
    result = ProvenanceExpression.zero()
    for expression in expressions:
        result = result + expression
    return result


def p_product(*expressions: ProvenanceExpression) -> ProvenanceExpression:
    """Product (joint derivation) of *expressions*, not condensed."""
    result: Optional[ProvenanceExpression] = None
    for expression in expressions:
        result = expression if result is None else result * expression
    return ProvenanceExpression.one() if result is None else result


def join_all(expressions: Iterable[ProvenanceExpression]) -> ProvenanceExpression:
    """The condensed product of one firing's inputs (Section 4.4).

    Condensed once at the end: the minimal DNF is unique, so condensing the
    whole product gives the polynomial that condensing after every factor
    would.  A single condensed factor comes back as itself.
    """
    return p_product(*expressions).condense()


# Position masks: an annotation the tuple's own payload names -----------------
#
# A shipped annotation is usually one monomial over principals the tuple's
# values already list (Best-Path's path column restates the path its
# annotation multiplies).  Such an annotation travels as a position mask over
# the payload's flattened values — bit ``i`` set: the ``i``-th value is one of
# the monomial's variables — and the receiver rebuilds the polynomial from
# the mask and its own copy of the payload.


def _flat_values(values: Iterable[object], flat: Optional[list] = None) -> list:
    """*values* depth-first, sequences opened, in ``render_payload`` order."""
    if flat is None:
        flat = []
    for value in values:
        if type(value) is not str and isinstance(value, (tuple, list)):
            _flat_values(value, flat)
        else:
            flat.append(value)
    return flat


def position_mask(
    annotation: ProvenanceExpression, values: Iterable[object]
) -> Optional[Tuple[int, int]]:
    """``(bits, wire bytes)`` of the mask naming *annotation* in *values*.

    ``None`` unless *annotation* is one monomial with coefficient 1 and every
    exponent 1 whose every variable equals a ``str`` value of *values*; the
    mask sets the first position of each.  Its wire size is one marker byte
    plus one bit per flattened value, rounded up to whole bytes.
    """
    monomials = annotation.monomials
    if len(monomials) != 1:
        return None
    (monomial, count), = monomials
    if count != 1:
        return None
    flat = _flat_values(values)
    bits = 0
    try:
        for name, exponent in monomial:
            if exponent != 1:
                return None
            position = flat.index(name)
            while type(flat[position]) is not str:
                position = flat.index(name, position + 1)
            bits |= 1 << position
    except ValueError:
        return None
    return bits, 1 + (len(flat) + 7) // 8


def from_position_mask(
    bits: int, values: Iterable[object]
) -> Optional[ProvenanceExpression]:
    """The annotation mask *bits* names in *values*, in normal form.

    ``None`` when the mask selects past the flattened values or selects a
    value that is not a ``str``: no annotation can be rebuilt from it.
    """
    flat = _flat_values(values)
    if bits < 0 or bits >> len(flat):
        return None
    selected = set()
    while bits:
        low = bits & -bits
        name = flat[low.bit_length() - 1]
        if type(name) is not str:
            return None
        selected.add(name)
        bits ^= low
    names = sorted(selected)
    annotation = ProvenanceExpression(
        monomials=((tuple([(name, 1) for name in names]), 1),)
    )
    # Rendered as it is built: a signed receiver's Merkle leaf reads it next.
    object.__setattr__(annotation, "_rendered", "*".join(names) if names else "1")
    return annotation
