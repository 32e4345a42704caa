"""Per-node database: one :class:`~repro.engine.table.Table` per relation."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.datalog.catalog import Catalog, RelationSchema
from repro.datalog.errors import SchemaError
from repro.engine.table import InsertResult, Table
from repro.engine.tuples import Fact


class Database:
    """The relational store of a single node.

    Tables are created lazily from the shared catalog; relations not present
    in the catalog (e.g. intermediate relations introduced by the
    localization rewrite) get an inferred schema on first use.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        #: Relation name -> table.  Read directly (a subscript, no call) by
        #: the generated joins and the node engine's store path; tables are
        #: only ever added, and only by :meth:`table`.
        self.by_name: Dict[str, Table] = {}

    # -- table access ---------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def table(self, relation: str, arity: Optional[int] = None) -> Table:
        """Return the table for *relation*, creating it on first access."""
        existing = self.by_name.get(relation)
        if existing is not None:
            return existing
        if relation in self._catalog:
            schema = self._catalog.schema(relation)
        elif arity is not None:
            schema = RelationSchema(name=relation, arity=arity)
            self._catalog.declare(schema)
        else:
            raise SchemaError(
                f"relation {relation!r} is not in the catalog and no arity was given"
            )
        table = Table(schema)
        self.by_name[relation] = table
        return table

    def tables(self) -> Tuple[Table, ...]:
        return tuple(self.by_name.values())

    def relations(self) -> Tuple[str, ...]:
        return tuple(self.by_name)

    def __contains__(self, relation: str) -> bool:
        return relation in self.by_name

    # -- convenience ----------------------------------------------------------

    def insert(self, fact: Fact, now: Optional[float] = None) -> InsertResult:
        table = self.table(fact.relation, arity=len(fact.values))
        return table.insert(fact, now=now)

    def delete(self, fact: Fact) -> bool:
        if fact.relation not in self.by_name:
            return False
        return self.by_name[fact.relation].delete(fact)

    def facts(self, relation: str) -> Tuple[Fact, ...]:
        if relation not in self.by_name:
            return ()
        return self.by_name[relation].facts()

    def all_facts(self) -> Iterator[Fact]:
        for table in self.by_name.values():
            yield from table

    def count(self, relation: Optional[str] = None) -> int:
        if relation is not None:
            return len(self.by_name.get(relation, ()))
        return sum(len(table) for table in self.by_name.values())

    def expire(self, now: float) -> List[Fact]:
        """Expire soft state across every table; returns all expired facts."""
        expired: List[Fact] = []
        for table in self.by_name.values():
            if table.has_soft_state:
                expired.extend(table.expire(now))
        return expired

    def snapshot(self) -> Dict[str, Tuple[Tuple[object, ...], ...]]:
        """A plain-data snapshot of the database, useful in tests."""
        return {
            name: tuple(sorted(fact.values for fact in table))
            for name, table in self.by_name.items()
        }
