"""Database instances: active relations ``R_i`` plus delta relations ``Δ_i``.

The paper's model (Section 3.1) pairs every relation ``R_i`` with a delta
relation ``Δ_i`` recording the tuples deleted from ``R_i``.  The storage
engines expose both extents:

* the **active** extent of ``R`` — the current content of the relation;
* the **delta** extent of ``R`` — the content of ``Δ_R``.

The repair semantics drive the engine through three mutating primitives:

* :meth:`BaseDatabase.delete` — remove a tuple from the active extent *and*
  record it in the delta extent (what step/stage semantics do each round);
* :meth:`BaseDatabase.mark_deleted` — record the tuple in the delta extent but
  keep it active (what end semantics does while deriving);
* :meth:`BaseDatabase.drop_active` — remove from the active extent only (used
  by end semantics at its final state).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ArityMismatchError, StorageError, UnknownRelationError
from repro.storage.facts import Fact
from repro.storage.indexes import RelationIndex
from repro.storage.schema import RelationSchema, Schema


class BaseDatabase(ABC):
    """Abstract interface shared by the in-memory and SQLite storage engines."""

    # -- schema ---------------------------------------------------------------

    @property
    @abstractmethod
    def schema(self) -> Schema:
        """The relational schema of this instance."""

    def relation_names(self) -> tuple[str, ...]:
        """All relation names declared in the schema."""
        return self.schema.names()

    # -- reading ----------------------------------------------------------------

    @abstractmethod
    def active_facts(self, relation: str) -> frozenset[Fact]:
        """The current (non-deleted) tuples of ``relation``."""

    @abstractmethod
    def delta_facts(self, relation: str) -> frozenset[Fact]:
        """The tuples recorded as deleted from ``relation`` (content of ``Δ``)."""

    @abstractmethod
    def candidates(
        self, relation: str, bindings: Mapping[int, Any], delta: bool = False,
    ) -> Iterator[Fact]:
        """Facts of ``relation`` matching the ``position -> value`` constraints.

        ``delta=True`` scans the delta extent instead of the active extent.
        """

    def hypothetical_candidates(
        self, relation: str, bindings: Mapping[int, Any],
    ) -> Iterator[Fact]:
        """Candidates for a *hypothetical* delta atom: active ∪ delta extent.

        Used by Algorithm 1 / independent semantics, where a delta atom may
        match any tuple of the database.  The default implementation chains the
        two extents and deduplicates; engines with cheap membership tests
        should override it to avoid building a per-call ``seen`` set.
        """
        seen: set[Fact] = set()
        for item in itertools.chain(
            self.candidates(relation, bindings, delta=False),
            self.candidates(relation, bindings, delta=True),
        ):
            if item not in seen:
                seen.add(item)
                yield item

    # -- frontier tracking ------------------------------------------------------

    def delta_token(self, relation: str) -> int:
        """An opaque marker of the delta extent's current "time".

        Pass it back to :meth:`delta_added_since` to obtain the frontier — the
        delta facts recorded after the token was taken.  The default
        implementation falls back to snapshot diffing; indexed engines override
        both methods with O(frontier) implementations.
        """
        return len(self.delta_facts(relation))

    def delta_added_since(self, relation: str, token: int) -> list[Fact]:
        """The delta facts of ``relation`` recorded after ``token`` was taken."""
        extent = self.delta_facts(relation)
        if len(extent) <= token:
            return []
        # Fallback: no insertion order available; return the whole extent so
        # callers overshoot (correct, merely less incremental).
        return list(extent)

    def all_active(self) -> Iterator[Fact]:
        """Iterate over every active fact of every relation."""
        for relation in self.relation_names():
            yield from self.active_facts(relation)

    def all_deltas(self) -> Iterator[Fact]:
        """Iterate over every delta fact of every relation."""
        for relation in self.relation_names():
            yield from self.delta_facts(relation)

    def has_active(self, item: Fact) -> bool:
        """True when ``item`` is currently active."""
        return item in self.active_facts(item.relation)

    def stored_active(self, item: Fact) -> Fact | None:
        """The active extent's own copy of ``item`` (tid-stamped), or None.

        Fact equality ignores tids, so a caller holding a bare value-level
        fact can recover the stored row — the incremental maintenance layer
        uses this to address assignments by the exact facts the closure
        derived them from.
        """
        fixed = dict(enumerate(item.values))
        return next(iter(self.candidates(item.relation, fixed)), None)

    def has_delta(self, item: Fact) -> bool:
        """True when ``item`` has been recorded as deleted."""
        return item in self.delta_facts(item.relation)

    def count_active(self, relation: str | None = None) -> int:
        """Number of active facts, in one relation or overall."""
        if relation is not None:
            return len(self.active_facts(relation))
        return sum(len(self.active_facts(name)) for name in self.relation_names())

    def count_delta(self, relation: str | None = None) -> int:
        """Number of delta facts, in one relation or overall."""
        if relation is not None:
            return len(self.delta_facts(relation))
        return sum(len(self.delta_facts(name)) for name in self.relation_names())

    # -- writing ---------------------------------------------------------------

    @abstractmethod
    def insert(self, item: Fact) -> bool:
        """Insert a fact into the active extent; returns False if already present."""

    def insert_all(self, items: Iterable[Fact]) -> int:
        """Insert many facts; returns how many were new."""
        return sum(1 for item in items if self.insert(item))

    @abstractmethod
    def delete(self, item: Fact) -> bool:
        """Delete ``item``: drop it from the active extent and record it in ``Δ``.

        Returns True when the delta extent changed.
        """

    @abstractmethod
    def mark_deleted(self, item: Fact) -> bool:
        """Record ``item`` in ``Δ`` without touching the active extent."""

    @abstractmethod
    def drop_active(self, item: Fact) -> bool:
        """Remove ``item`` from the active extent only."""

    @abstractmethod
    def retract_delta(self, item: Fact) -> bool:
        """Remove ``item`` from the delta extent only (inverse of :meth:`mark_deleted`).

        Used by DRed-style incremental maintenance
        (:mod:`repro.datalog.incremental`) when a derived delta fact loses its
        last derivation: the fact leaves the delta extent *and* any frontier
        bookkeeping, so a later re-derivation re-enters the frontier like a
        brand-new delta fact.  Returns True when the delta extent changed.
        """

    def delete_all(self, items: Iterable[Fact]) -> int:
        """Delete many facts; returns how many delta entries were added."""
        return sum(1 for item in items if self.delete(item))

    # -- lifecycle --------------------------------------------------------------

    @abstractmethod
    def clone(self) -> "BaseDatabase":
        """Deep copy of this instance (both extents)."""

    # -- comparisons / display ---------------------------------------------------

    def state(self) -> tuple[frozenset[Fact], frozenset[Fact]]:
        """The pair (all active facts, all delta facts) as frozen sets."""
        return frozenset(self.all_active()), frozenset(self.all_deltas())

    def same_state_as(self, other: "BaseDatabase") -> bool:
        """True when both engines hold exactly the same active and delta facts."""
        return self.state() == other.state()

    def summary(self) -> str:
        """A one-line human-readable summary of the instance size."""
        return (
            f"{type(self).__name__}(relations={len(self.relation_names())}, "
            f"active={self.count_active()}, delta={self.count_delta()})"
        )


class Database(BaseDatabase):
    """The in-memory storage engine.

    Facts are stored in per-relation :class:`RelationIndex` structures (one for
    the active extent, one for the delta extent), giving indexed lookups to the
    rule evaluator and O(1) delete/insert.

    Example
    -------
    >>> from repro.storage import Schema, RelationSchema, fact
    >>> schema = Schema.from_relations([RelationSchema.of("R", "x:int")])
    >>> db = Database(schema)
    >>> _ = db.insert(fact("R", 1))
    >>> db.count_active()
    1
    >>> _ = db.delete(fact("R", 1))
    >>> db.count_active(), db.count_delta()
    (0, 1)
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._active: Dict[str, RelationIndex] = {
            name: RelationIndex() for name in schema.names()
        }
        self._delta: Dict[str, RelationIndex] = {
            name: RelationIndex() for name in schema.names()
        }
        self._tid_counter = itertools.count(1)

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_facts(cls, schema: Schema, items: Iterable[Fact]) -> "Database":
        """Build a database from an iterable of facts."""
        db = cls(schema)
        db.insert_all(items)
        return db

    @classmethod
    def from_dicts(
        cls, schema: Schema, contents: Mapping[str, Iterable[Sequence[Any]]],
    ) -> "Database":
        """Build a database from ``{relation: [value-tuples]}``.

        >>> schema = Schema.from_arities({"R": 2})
        >>> db = Database.from_dicts(schema, {"R": [(1, 2), (3, 4)]})
        >>> db.count_active("R")
        2
        """
        db = cls(schema)
        for relation, rows in contents.items():
            for row in rows:
                db.insert(Fact(relation, tuple(row)))
        return db

    # -- schema ----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def _relation_schema(self, relation: str) -> RelationSchema:
        return self._schema.relation(relation)

    def _check(self, item: Fact) -> None:
        if item.relation not in self._schema:
            raise UnknownRelationError(item.relation)
        expected = self._schema.arity(item.relation)
        if item.arity != expected:
            raise ArityMismatchError(item.relation, expected, item.arity)

    # -- reading -----------------------------------------------------------------

    def active_facts(self, relation: str) -> frozenset[Fact]:
        try:
            return self._active[relation].facts()
        except KeyError:
            raise UnknownRelationError(relation) from None

    def delta_facts(self, relation: str) -> frozenset[Fact]:
        try:
            return self._delta[relation].facts()
        except KeyError:
            raise UnknownRelationError(relation) from None

    def candidates(
        self, relation: str, bindings: Mapping[int, Any], delta: bool = False,
    ) -> Iterator[Fact]:
        store = self._delta if delta else self._active
        try:
            index = store[relation]
        except KeyError:
            raise UnknownRelationError(relation) from None
        return index.candidates(bindings)

    def hypothetical_candidates(
        self, relation: str, bindings: Mapping[int, Any],
    ) -> Iterator[Fact]:
        try:
            active = self._active[relation]
            delta = self._delta[relation]
        except KeyError:
            raise UnknownRelationError(relation) from None
        yield from active.candidates(bindings)
        # Deduplicate against the active extent via its O(1) membership test
        # instead of materialising a per-call ``seen`` set.
        for item in delta.candidates(bindings):
            if item not in active:
                yield item

    def relation_index(self, relation: str, delta: bool = False) -> RelationIndex:
        """The :class:`RelationIndex` backing one extent (trie access point)."""
        store = self._delta if delta else self._active
        try:
            return store[relation]
        except KeyError:
            raise UnknownRelationError(relation) from None

    def delta_token(self, relation: str) -> int:
        try:
            return self._delta[relation].token()
        except KeyError:
            raise UnknownRelationError(relation) from None

    def delta_added_since(self, relation: str, token: int) -> list[Fact]:
        try:
            return self._delta[relation].added_since(token)
        except KeyError:
            raise UnknownRelationError(relation) from None

    def has_active(self, item: Fact) -> bool:
        index = self._active.get(item.relation)
        return index is not None and item in index

    def has_delta(self, item: Fact) -> bool:
        index = self._delta.get(item.relation)
        return index is not None and item in index

    # -- writing -----------------------------------------------------------------

    def insert(self, item: Fact) -> bool:
        self._check(item)
        if item.tid is None:
            item = item.with_tid(f"t{next(self._tid_counter)}")
        return self._active[item.relation].add(item)

    def delete(self, item: Fact) -> bool:
        self._check(item)
        self._active[item.relation].discard(item)
        return self._delta[item.relation].add(item)

    def mark_deleted(self, item: Fact) -> bool:
        self._check(item)
        return self._delta[item.relation].add(item)

    def drop_active(self, item: Fact) -> bool:
        self._check(item)
        return self._active[item.relation].discard(item)

    def retract_delta(self, item: Fact) -> bool:
        self._check(item)
        return self._delta[item.relation].discard(item)

    # -- lifecycle ----------------------------------------------------------------

    def clone(self) -> "Database":
        copy = Database(self._schema)
        for relation, index in self._active.items():
            copy._active[relation] = index.copy()
        for relation, index in self._delta.items():
            copy._delta[relation] = index.copy()
        return copy

    def reset_deltas(self) -> None:
        """Drop all delta facts (the active extents are untouched)."""
        for index in self._delta.values():
            index.clear()

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BaseDatabase):
            return NotImplemented
        return self.same_state_as(other)

    def __hash__(self) -> int:  # pragma: no cover - databases are not hashable keys
        raise TypeError("Database instances are mutable and unhashable")

    def __repr__(self) -> str:
        return self.summary()


def stabilized_copy(db: BaseDatabase, deleted: Iterable[Fact]) -> BaseDatabase:
    """Return a copy of ``db`` with ``deleted`` removed and recorded in ``Δ``.

    This materialises the paper's ``(D \\ S) ∪ Δ(S)`` construction used in the
    definitions of stabilizing sets and of independent semantics.
    """
    copy = db.clone()
    for item in deleted:
        if not copy.has_active(item) and not copy.has_delta(item):
            raise StorageError(
                f"cannot stabilize with {item!r}: not a tuple of the database",
            )
        copy.delete(item)
    return copy
