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
stored one.  Both travel relative to the tuple's own payload where they can
(below): an annotation as a position mask, a support as a support code.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import copysign
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from repro.provenance.semiring import Semiring

#: One monomial: the multiset of variables joined in one derivation,
#: represented as a sorted tuple of (variable, exponent) pairs.
Monomial = Tuple[Tuple[str, int], ...]


#: The monomials of the one polynomial: the single empty monomial.
_ONE: Tuple[Tuple[Monomial, int], ...] = (((), 1),)


#: A table of ``(variable, 1)`` pairs by variable
#: (:class:`~repro.provenance.log.DerivationLog` ``pairs``): an expression
#: built with one takes each exponent-1 pair it needs from it when there.
Pairs = Mapping[str, Tuple[str, int]]


def _monomial_times(left: Monomial, right: Monomial) -> Monomial:
    """The product of two monomials, reusing each operand's pair for a
    variable the other does not mention."""
    if not left:
        return right
    if not right:
        return left
    merged = sorted(left + right)
    if len(dict(merged)) == len(merged):
        return tuple(merged)
    pairs: Dict[str, Tuple[str, int]] = {}
    for pair in merged:
        name = pair[0]
        mine = pairs.get(name)
        pairs[name] = pair if mine is None else (name, mine[1] + pair[1])
    return tuple(pairs.values())


def _flat(monomial: Monomial, pairs: Optional[Pairs]) -> Monomial:
    """*monomial* with every exponent 1: itself when it already is, else its
    exponent-1 pairs kept and the others taken from *pairs* (or made)."""
    for _, exponent in monomial:
        if exponent != 1:
            break
    else:
        return monomial
    return tuple([
        pair if pair[1] == 1 else (pairs and pairs.get(pair[0])) or (pair[0], 1)
        for pair in monomial
    ])


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

    def absorb(
        self, other: "ProvenanceExpression", pairs: Optional[Pairs] = None
    ) -> "ProvenanceExpression":
        """Merge an alternative derivation into a condensed ``self``.

        ``(self + other).condense(pairs)``, except that ``self`` itself comes
        back when *other* adds nothing (``x + x``, ``a + a*b``): a caller
        holding ``self`` can stop at ``merged is self``.
        """
        mine = self.monomials
        if other.monomials == mine:
            return self
        merged = (self + other).condense(pairs)
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

    def condense(self, pairs: Optional[Pairs] = None) -> "ProvenanceExpression":
        """Minimise under idempotence and absorption: ``a + a*b -> a``.

        The result is the unique minimal DNF of the (monotone) boolean
        function the expression denotes: duplicate variables collapse
        (``a*a -> a``), multiplicities drop, and any monomial whose support is
        a superset of another monomial's support is absorbed.  The result
        keeps the operand's exponent-1 pairs (and its monomials that need no
        change); a collapsed variable's pair comes from *pairs* when there.
        """
        monomials = self.monomials
        if len(monomials) <= 1:
            # The traffic: one derivation, nothing to absorb.
            if not monomials:
                return self
            (monomial, count), = monomials
            flat = _flat(monomial, pairs)
            if count == 1 and flat is monomial:
                return self
            return ProvenanceExpression(monomials=((flat, 1),))
        by_support: Dict[FrozenSet[str], Monomial] = {}
        for monomial, _ in monomials:
            flat = _flat(monomial, pairs)
            by_support.setdefault(frozenset([name for name, _ in flat]), flat)
        condensed = tuple(sorted(
            (flat, 1)
            for support, flat in by_support.items()
            if not any(other < support for other in by_support)
        ))
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


def join_all(
    expressions: Iterable[ProvenanceExpression], pairs: Optional[Pairs] = None
) -> ProvenanceExpression:
    """The condensed product of one firing's inputs (Section 4.4).

    Condensed once at the end: the minimal DNF is unique, so condensing the
    whole product gives the polynomial that condensing after every factor
    would.  A single condensed factor comes back as itself.  The product
    reuses its factors' pairs, and a variable two factors share gets its
    pair from *pairs* when there.
    """
    return p_product(*expressions).condense(pairs)


# Position masks: an annotation the tuple's own payload names -----------------
#
# A shipped annotation is usually one monomial over principals the tuple's
# values already list (Best-Path's path column restates the path its
# annotation multiplies).  Such an annotation travels as a position mask over
# the payload's flattened values — bit ``i`` set: the ``i``-th value is one of
# the monomial's variables — and the receiver rebuilds the polynomial from
# the mask and its own copy of the payload.


def flat_values(values: Iterable[object], flat: Optional[list] = None) -> list:
    """*values* depth-first, sequences opened, in ``render_payload`` order."""
    if flat is None:
        flat = []
    for value in values:
        if type(value) is str:
            flat.append(value)
        elif isinstance(value, (tuple, list)):
            try:
                "".join(value)  # a path: every element a str, opened at once
            except TypeError:
                flat_values(value, flat)
            else:
                flat += value
        else:
            flat.append(value)
    return flat


def position_mask(
    annotation: ProvenanceExpression, flat: list
) -> Optional[Tuple[int, int]]:
    """``(bits, wire bytes)`` of the mask naming *annotation* beside a
    payload that flattens (:func:`flat_values`) to *flat*.

    ``None`` unless *annotation* is one monomial with coefficient 1 and every
    exponent 1 whose every variable equals a ``str`` value of *flat*; the
    mask sets the first position of each.  Its wire size is one marker byte
    plus one bit per flattened value, rounded up to whole bytes.
    """
    monomials = annotation.monomials
    if len(monomials) != 1:
        return None
    (monomial, count), = monomials
    if count != 1:
        return None
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
    bits: int, flat: list, pairs: Optional[Pairs] = None
) -> Optional[ProvenanceExpression]:
    """The annotation mask *bits* names beside a payload that flattens to
    *flat*, in normal form, each variable on its pair in *pairs* when there.

    ``None`` when the mask selects past the flattened values or selects a
    value that is not a ``str``: no annotation can be rebuilt from it.
    """
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
    get = pairs.get if pairs else {}.get
    monomial = tuple([get(name) or (name, 1) for name in names])
    annotation = ProvenanceExpression(monomials=((monomial, 1),))
    # Rendered as it is built: a signed receiver's Merkle leaf reads it next.
    object.__setattr__(annotation, "_rendered", "*".join(names) if names else "1")
    return annotation


# Support codes: a base-support polynomial relative to the payload -----------
#
# Under one-fixpoint deletions every exported tuple carries its base-support
# polynomial, a sum of products of base tuples rendered like
# ``link('n1','n2',7.0)``.  Most of their arguments are values the tuple's own
# payload carries (a link's endpoints are consecutive nodes of a path), so the
# polynomial travels as a *support code* and the receiver rebuilds it from the
# code and its own copy of the payload:
#
#   code     := varint(monomial count) monomial*
#   monomial := varint(width) variable*            width: its variables
#   variable := u8(relation index) argument*       one per column of the relation
#
# An *argument* is one value said against the payload's flattened values; the
# query plane codes a traceback response's pointer inputs the same way
# against the record's key (:class:`repro.net.message.PointerCodebook`):
#
#   argument := u8(p), p < 0x7C                    the str at flattened position p
#             | 0x7C zigzag-varint                 an int, -2**63 <= x < 2**63
#             | 0x7D zigzag-varint                 an integral float, |x| < 2**53
#             | 0x7E f64, little-endian            any other float (and -0.0)
#             | 0x7F varint(n) utf8[n]             a str literal
#             | 0x80 varint(n) argument{n}         a tuple of n values
#             | 0x81 | 0x82 | 0x83                 False, True, None
#             | 0x84 varint(n) u8[n]               any other int, two's
#                                                  complement, little-endian
#
# A varint is little-endian base 128, at most ten bytes and below 2**64.  A
# support variable's arguments take the first five forms only.  A support
# no code can say — a coefficient or exponent other than 1, a variable whose
# base tuple holds another type, an int past 64 bits or a ``str`` with no
# UTF-8 form, an unknown relation or a wrong arity — travels as its
# rendering.

#: An argument byte below this is a position; the tags follow.
POSITIONS = 0x7C
_INT, _INTEGRAL, _FLOAT, _STR = 0x7C, 0x7D, 0x7E, 0x7F
_TUPLE, _FALSE, _TRUE, TAG_NONE, _BIG = 0x80, 0x81, 0x82, 0x83, 0x84
_SINGLETONS = {_FALSE: False, _TRUE: True, TAG_NONE: None}
_F64 = struct.Struct("<d")
#: Integral floats below this magnitude are exact as integers.
_EXACT = float(1 << 53)
_VARINT_BYTES = 10
_NAN = float("nan")


def render_base_variable(relation: str, values: Sequence[object]) -> str:
    """The support variable naming the base tuple ``relation(values)``.

    ``repr`` per value keeps the rendering injective: strings are quoted, so
    ``link('a','b')`` can never collide with a differently typed tuple.
    """
    rendered = ",".join([repr(value) for value in values])
    return f"{relation}({rendered})"


class BaseVariables:
    """One engine's support variables, both ways, and its relations by index.

    ``names`` maps a base tuple to its rendering, and ``keys`` maps the
    rendering back to the tuple as a code says it before the payload is
    known, its *template*: its relation's index as one byte, then per value
    either the ``str`` to look for in the payload or the literal's encoded
    bytes — ``None`` when the tuple has no code.  So neither end of the wire
    renders a variable it has named before, and nothing is parsed.
    ``names`` is keyed by ``(relation, *values, floats)``, ``floats`` two
    bits per value — a ``float``, a ``-0.0`` — since ``1`` and ``1.0``,
    ``0.0`` and ``-0.0`` are equal values with different renderings (and a
    decoded NaN is always :data:`_NAN`, the one NaN a lookup finds).  A tuple
    holding any value but a ``str``, an ``int`` or a ``float`` is rendered
    each time and never enters the table, so a support naming it travels
    explicitly.

    A variable :func:`from_support_code` rebuilds that the table does not
    know waits in ``fresh`` (rendering -> exact key) until :meth:`admit`
    enters it for a support the node stores; the engine empties ``fresh``
    after each receive round.  So ``names`` and ``keys`` are bounded by the
    distinct base tuples the node names or stores, whatever a peer sends;
    the engine owns the table and clears it with the rest of its state.

    ``relations`` is the program's catalog as sorted ``(name, arity)`` pairs,
    fixed when the engine is built, so a table declared later for an unknown
    relation shifts no index; a code's one byte names one of the first 256.
    """

    __slots__ = ("relations", "index", "names", "keys", "fresh")

    def __init__(self, arities: Mapping[str, int]) -> None:
        self.relations: Tuple[Tuple[str, int], ...] = tuple(sorted(arities.items()))
        self.index: Dict[str, Tuple[int, int]] = {
            name: (position, arity)
            for position, (name, arity) in enumerate(self.relations[:256])
        }
        self.names: Dict[tuple, str] = {}
        self.keys: Dict[str, Optional[tuple]] = {}
        self.fresh: Dict[str, tuple] = {}

    def name(self, key: tuple) -> str:
        """The rendering of base tuple *key*, ``(relation, values)``."""
        relation, values = key
        floats = 0
        for position, value in enumerate(values):
            kind = type(value)
            if kind is float:
                floats |= (1 if value or copysign(1.0, value) > 0 else 3) << 2 * position
            elif kind is not str and kind is not int:
                return render_base_variable(relation, values)
        exact = (relation, *values, floats)
        name = self.names.get(exact)
        if name is None:
            name = self.names[exact] = self.enter(relation, values)
        return name

    def enter(self, relation: str, values: Sequence[object]) -> str:
        """Render ``relation(values)`` and record its template; its values
        are each a ``str``, an ``int`` or a ``float``."""
        name = render_base_variable(relation, values)
        template: Optional[tuple] = None
        entry = self.index.get(relation)
        if entry is not None and entry[1] == len(values):
            parts: list = [bytes((entry[0],))]
            for value in values:
                if type(value) is str:
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError:  # a lone surrogate
                        break
                    parts.append(value)
                elif type(value) is int and not -(1 << 63) <= value < 1 << 63:
                    break
                else:
                    literal = bytearray()
                    write_arguments(literal, (value,), {})
                    parts.append(bytes(literal))
            else:
                template = tuple(parts)
        self.keys[name] = template
        return name

    def admit(self, support: ProvenanceExpression) -> None:
        """Enter each variable of *support* waiting in ``fresh``."""
        fresh, names = self.fresh, self.names
        for monomial, _ in support.monomials:
            for name, _ in monomial:
                exact = fresh.pop(name, None)
                if exact is not None:
                    names[exact] = self.enter(exact[0], exact[1:-1])

    def clear(self) -> None:
        self.names.clear()
        self.keys.clear()
        self.fresh.clear()


def put_varint(code: bytearray, value: int) -> None:
    """Append the varint of *value*, ``0 <= value < 2**64``, to *code*."""
    while value >= 0x80:
        code.append(value & 0x7F | 0x80)
        value >>= 7
    code.append(value)


def read_varint(code: bytes, at: int) -> Tuple[int, int]:
    """``(value, next offset)`` of the varint at *at*; ``IndexError`` past
    the end of *code*, ``ValueError`` when it runs past ten bytes or
    2**64."""
    value = code[at]
    if value < 0x80:  # nearly every varint: one byte
        return value, at + 1
    value = shift = 0
    for offset in range(at, at + _VARINT_BYTES):
        byte = code[offset]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if value >> 64:
                break
            return value, offset + 1
        shift += 7
    raise ValueError("over-long varint")


def payload_positions(flat: Sequence[object]) -> Dict[str, int]:
    """Each ``str`` of *flat* at its first position below 0x7C: where
    :func:`write_arguments` finds an argument the payload carries."""
    positions: Dict[str, int] = {}
    for position, value in enumerate(flat[:POSITIONS]):
        if type(value) is str:
            positions.setdefault(value, position)
    return positions


def write_arguments(
    code: bytearray, values: Iterable[object], positions: Mapping[str, int]
) -> bool:
    """Append each of *values* to *code* as an argument said beside a
    payload whose ``str`` values sit at *positions*
    (:func:`payload_positions`).

    A ``str`` the payload carries travels as its position, every other
    value as a tagged literal (the ``argument`` rule above).  ``False``,
    with *code* partly written, when a value has no code: a ``str`` with no
    UTF-8 form, or a value whose exact type no tag names (a subclass
    included).
    """
    for value in values:
        kind = type(value)
        if kind is str:
            position = positions.get(value)
            if position is not None:
                code.append(position)
                continue
            try:
                text = value.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate
                return False
            code.append(_STR)
            put_varint(code, len(text))
            code += text
        elif kind is float:
            if (
                value.is_integer()
                and -_EXACT < value < _EXACT
                and (value or copysign(1.0, value) > 0)
            ):
                number = int(value)
                code.append(_INTEGRAL)
                put_varint(code, number << 1 if number >= 0 else (-number << 1) - 1)
            else:
                code.append(_FLOAT)
                code += _F64.pack(value)
        elif kind is tuple:
            code.append(_TUPLE)
            put_varint(code, len(value))
            try:  # a path: every element a str at a position, said at once
                code += bytes(map(positions.__getitem__, value))
            except (KeyError, TypeError):
                if not write_arguments(code, value, positions):
                    return False
        elif kind is int:
            if -(1 << 63) <= value < 1 << 63:
                code.append(_INT)
                put_varint(code, value << 1 if value >= 0 else (-value << 1) - 1)
            else:
                data = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
                code.append(_BIG)
                put_varint(code, len(data))
                code += data
        elif value is None:
            code.append(TAG_NONE)
        elif value is True:
            code.append(_TRUE)
        elif value is False:
            code.append(_FALSE)
        else:
            return False
    return True


def read_arguments(
    code: bytes, at: int, flat: Sequence[object], count: int
) -> Tuple[tuple, int]:
    """``(values, next offset)`` of the *count* arguments at *at* beside a
    payload that flattens to *flat*.

    Raises :class:`IndexError`, :class:`ValueError` or
    :class:`struct.error` when an argument is malformed: truncated, a
    position past *flat* or on a value that is not a ``str``, an unknown
    tag, an over-long varint.  A decoded NaN is always :data:`_NAN`.
    """
    values = []
    append = values.append
    for _ in range(count):
        tag = code[at]
        at += 1
        if tag < POSITIONS:
            value = flat[tag]
            if type(value) is not str:
                raise ValueError("a position on a value that is not a str")
        elif tag == _INTEGRAL or tag == _INT:
            zigzag, at = read_varint(code, at)
            value = -(zigzag >> 1) - 1 if zigzag & 1 else zigzag >> 1
            if tag == _INTEGRAL:
                value = float(value)
        elif tag == _TUPLE:
            size, at = read_varint(code, at)
            places = code[at : at + size]
            if len(places) < size:
                raise ValueError("more tuple elements than bytes left")
            if size and max(places) < POSITIONS:
                # A path: every element a str at a position, read at once.
                value = tuple(map(flat.__getitem__, places))
                for element in value:
                    if type(element) is not str:
                        raise ValueError("a position on a value that is not a str")
                at += size
            else:
                value, at = read_arguments(code, at, flat, size)
        elif tag == _STR or tag == _BIG:
            size, at = read_varint(code, at)
            end = at + size
            if end > len(code):
                raise ValueError("a literal past the end of the code")
            data = code[at:end]
            at = end
            if tag == _STR:
                value = data.decode("utf-8")
            else:
                value = int.from_bytes(data, "little", signed=True)
        elif tag == _FLOAT:
            (value,) = _F64.unpack_from(code, at)
            at += 8
            if value != value:
                value = _NAN
        elif tag in _SINGLETONS:
            value = _SINGLETONS[tag]
        else:
            raise ValueError(f"unknown argument tag {tag:#x}")
        append(value)
    return tuple(values), at


def support_code(
    support: ProvenanceExpression, flat: list, table: BaseVariables
) -> Optional[bytes]:
    """The code *support* travels as beside a payload that flattens to *flat*.

    ``None`` when some part of *support* has no code (see above): it travels
    as its rendering.  A ``str`` argument found in *flat* below position
    0x7C travels as its first position there.
    """
    keys = table.keys
    monomials = support.monomials
    count = len(monomials)
    code = bytearray()
    put_varint(code, count)
    for monomial, coefficient in monomials:
        if coefficient != 1:
            return None
        width = len(monomial)
        put_varint(code, width)
        for name, exponent in monomial:
            template = keys.get(name)
            if template is None or exponent != 1:
                return None
            for part in template:
                if type(part) is not str:
                    code += part
                    continue
                try:
                    position = flat.index(part)
                    while type(flat[position]) is not str:
                        position = flat.index(part, position + 1)
                except ValueError:
                    position = POSITIONS
                if position < POSITIONS:
                    code.append(position)
                else:
                    text = part.encode("utf-8")
                    code.append(_STR)
                    put_varint(code, len(text))
                    code += text
    return bytes(code)


def from_support_code(
    code: bytes, flat: list, table: BaseVariables
) -> Optional[ProvenanceExpression]:
    """The support *code* names beside a payload that flattens to *flat*.

    ``None`` when the code is malformed — truncated, followed by trailing
    bytes, naming a position past *flat* or on a value that is not a
    ``str``, an unknown relation or tag, an over-long varint, a variable
    twice in one monomial or a monomial twice: no support can be rebuilt
    from it.  Each variable rebuilt is named through *table*; one it does
    not know is rendered and left in ``table.fresh``, not entered.
    """
    relations, names, fresh = table.relations, table.names, table.fresh
    monomials = []
    try:
        count, at = read_varint(code, 0)
        for _ in range(count):
            width, at = read_varint(code, at)
            variables = []
            for _ in range(width):
                relation, arity = relations[code[at]]
                at += 1
                values, at = read_arguments(code, at, flat, arity)
                floats = 0
                for position, value in enumerate(values):
                    kind = type(value)
                    if kind is float:
                        floats |= (1 if value or copysign(1.0, value) > 0 else 3) << 2 * position
                    elif kind is not str and (
                        kind is not int or not -(1 << 63) <= value < 1 << 63
                    ):
                        return None
                exact = (relation, *values, floats)
                name = names.get(exact)
                if name is None:
                    name = render_base_variable(relation, values)
                    fresh[name] = exact
                variables.append(name)
            if width > 1:
                variables.sort()
                if len(set(variables)) != width:
                    return None
            monomials.append((tuple([(name, 1) for name in variables]), 1))
    except (IndexError, ValueError, struct.error, RecursionError):
        return None
    if at != len(code):
        return None
    if count > 1:
        monomials.sort()
        if len(set(monomials)) != count:
            return None
    return ProvenanceExpression(monomials=tuple(monomials))
