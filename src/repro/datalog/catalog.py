"""Relation catalog: schemas, arities, primary keys and soft-state lifetimes.

The catalog plays the role of P2's table manager metadata.  It is built from a
program's ``materialize`` declarations plus the predicates inferred from rule
heads and bodies, and validates that every predicate is used with a consistent
arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.datalog.ast import Program, Rule, span_of
from repro.datalog.errors import SchemaError


def _located(message: str, node: object, code: str = "NDL201") -> SchemaError:
    """A :class:`SchemaError` pointing at *node*'s source span when known."""
    span = span_of(node)
    return SchemaError(
        message,
        line=span.line if span else 0,
        column=span.column if span else 0,
        code=code,
    )


@dataclass(frozen=True)
class RelationSchema:
    """Schema metadata for a single relation.

    Attributes
    ----------
    name:
        Relation name (``link``, ``reachable``...).
    arity:
        Number of attributes.
    keys:
        Zero-based primary-key attribute positions.  Tuples that agree on the
        key attributes replace each other (P2 update semantics).  When empty,
        the whole tuple is the key (set semantics).
    lifetime:
        Soft-state lifetime in seconds; ``None`` means hard state (never
        expires).
    max_size:
        Optional bound on the number of stored tuples; ``None`` is unbounded.
    is_base:
        True when the relation is an EDB (input) relation never derived by a
        rule; base tuples are the leaves of every provenance derivation.
    """

    name: str
    arity: int
    keys: Tuple[int, ...] = ()
    lifetime: Optional[float] = None
    max_size: Optional[int] = None
    is_base: bool = False

    @property
    def key_columns(self) -> Tuple[int, ...]:
        """Primary-key columns, defaulting to all columns when undeclared."""
        if self.keys:
            return self.keys
        return tuple(range(self.arity))


class Catalog:
    """A collection of :class:`RelationSchema` definitions.

    The catalog is shared read-only by every node engine in a simulation, and
    is the authority for arity checking, key semantics and soft-state
    lifetimes.
    """

    def __init__(self) -> None:
        self._schemas: Dict[str, RelationSchema] = {}

    # -- construction -------------------------------------------------------

    def declare(self, schema: RelationSchema) -> None:
        """Register *schema*; re-declaring with a different arity is an error."""
        existing = self._schemas.get(schema.name)
        if existing is not None and existing.arity != schema.arity:
            raise SchemaError(
                f"relation {schema.name!r} declared with arity {schema.arity}, "
                f"previously {existing.arity}"
            )
        self._schemas[schema.name] = schema

    @classmethod
    def from_program(cls, program: Program) -> "Catalog":
        """Infer a catalog from a parsed program.

        Arities come from atom usage; primary keys and lifetimes come from
        ``materialize`` declarations (keys are converted from P2's 1-based
        positions to 0-based).  Predicates appearing only in bodies are marked
        as base relations.
        """
        catalog = cls()
        arities: Dict[str, int] = {}
        for rule in program.rules:
            _record_arity(arities, rule)

        materialize = {decl.name: decl for decl in program.materialized}
        derived = set(program.derived_predicates())

        for name, arity in arities.items():
            decl = materialize.get(name)
            keys: Tuple[int, ...] = ()
            lifetime: Optional[float] = None
            max_size: Optional[int] = None
            if decl is not None:
                keys = tuple(k - 1 for k in decl.keys)
                for key in keys:
                    if key < 0 or key >= arity:
                        raise _located(
                            f"key column {key + 1} out of range for "
                            f"{name!r} with arity {arity}",
                            decl,
                            code="NDL203",
                        )
                lifetime = decl.lifetime
                max_size = decl.max_size
            catalog.declare(
                RelationSchema(
                    name=name,
                    arity=arity,
                    keys=keys,
                    lifetime=lifetime,
                    max_size=max_size,
                    is_base=name not in derived,
                )
            )
        return catalog

    # -- lookups -------------------------------------------------------------

    def schema(self, name: str) -> RelationSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __iter__(self) -> Iterable[str]:
        return iter(self._schemas)

    def __len__(self) -> int:
        return len(self._schemas)

    def relations(self) -> Tuple[RelationSchema, ...]:
        return tuple(self._schemas.values())

    def base_relations(self) -> Tuple[RelationSchema, ...]:
        return tuple(s for s in self._schemas.values() if s.is_base)

    def derived_relations(self) -> Tuple[RelationSchema, ...]:
        return tuple(s for s in self._schemas.values() if not s.is_base)


def _record_arity(arities: Dict[str, int], rule: Rule) -> None:
    for atom in (rule.head, *rule.body_atoms()):
        existing = arities.get(atom.name)
        if existing is None:
            arities[atom.name] = atom.arity
        elif existing != atom.arity:
            raise _located(
                f"relation {atom.name!r} used with inconsistent arities "
                f"{existing} and {atom.arity} (rule {rule.label})",
                atom,
            )
