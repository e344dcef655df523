"""Boolean provenance for delta tuples (Algorithm 1, Section 5.1).

Algorithm 1 of the paper represents the provenance of every *possible* delta
tuple as a DNF formula: each clause corresponds to one assignment deriving the
tuple, with base tuples as positive literals and delta tuples as the negation
of their base counterpart.  The disjunction of all those DNFs is negated into a
CNF and handed to a Min-Ones SAT solver.

This module encodes that construction directly over "deletion variables": for
every tuple ``t`` of the database there is a variable ``x_t`` meaning "``t`` is
deleted".  An assignment ``α`` of a rule body is then *voided* exactly when

* some base-atom fact of ``α`` is deleted (``x_t`` true), or
* some delta-atom fact of ``α`` is kept (``x_t`` false),

so the negated provenance is the CNF whose clause for ``α`` is::

    OR_{t base atom of α} x_t   OR   OR_{t delta atom of α} ¬x_t

A satisfying assignment with a minimum number of true variables is exactly the
result of independent semantics (``Ind(P, D)``).

The builder works over integer variables, the way lineage systems keep
provenance as formulas over tuple ids.  On SQLite it decodes each row of the
hypothetical joins straight into ``(relation, values)`` keys, so no
:class:`~repro.storage.facts.Fact` or assignment object is built per row; in
memory it maps each assignment's facts to ids.  Variables are numbered in
:meth:`Fact.sort_key` order and one :class:`Fact` is built per variable
(:attr:`BooleanProvenance.facts`).  The fact-level view — :class:`Clause`
objects, :attr:`~BooleanProvenance.variables` and the checks built on them —
is derived on first use, for explanations and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import ENGINE_NAIVE, find_assignments, resolve_engine
from repro.datalog.sql_compiler import compile_rule, row_decoder
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact
from repro.storage.sqlite_backend import SQLiteDatabase


@dataclass(frozen=True)
class Clause:
    """One CNF clause of the negated provenance.

    ``positives`` are facts whose deletion satisfies the clause; ``negatives``
    are facts whose *retention* satisfies it.  The clause corresponds to a
    single assignment of a single rule and satisfying it voids that assignment.
    """

    positives: frozenset[Fact]
    negatives: frozenset[Fact]
    rule_name: str = ""
    derived: Fact | None = None

    def is_empty(self) -> bool:
        """True when the clause has no literals (the assignment cannot be voided)."""
        return not self.positives and not self.negatives

    def variables(self) -> frozenset[Fact]:
        """All facts mentioned by the clause."""
        return self.positives | self.negatives

    def satisfied_by(self, deleted: Iterable[Fact]) -> bool:
        """True when deleting exactly ``deleted`` satisfies (voids) this clause."""
        deleted_set = set(deleted)
        if self.positives & deleted_set:
            return True
        return bool(self.negatives - deleted_set)

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    def __str__(self) -> str:
        parts = [f"del({item.label()})" for item in sorted(self.positives)]
        parts += [f"keep({item.label()})" for item in sorted(self.negatives)]
        return " ∨ ".join(parts) if parts else "⊥"


#: A clause's origin: its rule's display name and the ``(relation, values)``
#: key of the delta tuple its assignment derives.
_Origin = Tuple[str, Tuple[str, tuple]]


@dataclass
class BooleanProvenance:
    """The Boolean provenance of a (database, delta program) pair.

    Clause ``i`` is the negated provenance of one hypothetical assignment.

    Attributes
    ----------
    facts:
        The variables: variable ``v`` stands for deleting ``facts[v - 1]``.
        Numbered in :meth:`Fact.sort_key` order.
    literals:
        Per clause, its signed literals: ``+v`` for each base-atom fact
        (deleting it voids the assignment) in increasing ``v``, then ``-v``
        for each delta-atom fact not already deleted (keeping it voids the
        assignment), also in increasing ``v``.  This is the CNF handed to the
        Min-Ones solver.
    origins:
        Per clause, the rule's display name and the ``(relation, values)``
        key of the delta tuple the assignment derives.
    """

    facts: Tuple[Fact, ...] = ()
    literals: List[Tuple[int, ...]] = field(default_factory=list)
    origins: List[_Origin] = field(default_factory=list)

    # -- fact-level view (built on first use) ----------------------------------

    @cached_property
    def clauses(self) -> List[Clause]:
        """The CNF clauses as :class:`Clause` objects over facts."""
        facts = self.facts
        return [
            Clause(
                positives=frozenset(facts[v - 1] for v in literals if v > 0),
                negatives=frozenset(facts[-v - 1] for v in literals if v < 0),
                rule_name=rule_name,
                derived=Fact(*derived),
            )
            for literals, (rule_name, derived) in zip(self.literals, self.origins)
        ]

    @cached_property
    def variables(self) -> frozenset[Fact]:
        """Every fact that occurs in some clause (candidate deletions)."""
        return frozenset(self.facts)

    # -- inspection -----------------------------------------------------------

    def clause_count(self) -> int:
        """Number of CNF clauses (hypothetical assignments)."""
        return len(self.literals)

    def variable_count(self) -> int:
        """Number of distinct facts mentioned by the provenance."""
        return len(self.facts)

    def derivable_tuples(self) -> frozenset[Fact]:
        """All delta tuples with at least one hypothetical derivation."""
        return frozenset(Fact(*derived) for _rule_name, derived in self.origins)

    def is_voided_by(self, deleted: Iterable[Fact]) -> bool:
        """True when deleting ``deleted`` voids every assignment (satisfies the CNF)."""
        deleted_set = set(deleted)
        return all(clause.satisfied_by(deleted_set) for clause in self.clauses)

    def violated_clauses(self, deleted: Iterable[Fact]) -> List[Clause]:
        """Clauses not satisfied when deleting exactly ``deleted`` (for debugging)."""
        deleted_set = set(deleted)
        return [
            clause for clause in self.clauses if not clause.satisfied_by(deleted_set)
        ]

    def describe(self) -> str:
        """A compact multi-line rendering of the negated provenance."""
        lines = [f"{self.clause_count()} clauses over {self.variable_count()} tuples"]
        for clause in self.clauses:
            target = clause.derived.label() if clause.derived is not None else "?"
            lines.append(f"  [{clause.rule_name} ⟹ Δ{target}] {clause}")
        return "\n".join(lines)


#: A clause before numbering: the first-seen ids of its base-atom facts and
#: of its not-yet-deleted delta-atom facts.
_RawClause = Tuple[List[int], List[int]]
#: What the collectors return: facts by first-seen id, raw clauses, origins.
_Collected = Tuple[List[Fact], List[_RawClause], List[_Origin]]


def build_boolean_provenance(
    db: BaseDatabase,
    program: DeltaProgram | Program | Sequence[Rule],
    engine: str = "auto",
    context=None,
) -> BooleanProvenance:
    """Build the Boolean provenance of every possible delta tuple (Algorithm 1, line 1).

    Delta atoms in rule bodies are evaluated *hypothetically*: they may match
    the delta counterpart of any tuple of ``db``, not only tuples already
    recorded as deleted.  This captures every potential cascade without
    committing to an operational semantics.  A delta atom matching a tuple
    already recorded as deleted is a constant-true literal of the positive
    provenance, so it contributes nothing to the negated clause.

    The hypothetical evaluation is a single pass (no fixpoint), so ``engine``
    only controls join planning: the default plans each rule's joins once and
    caches them, while ``engine="naive"`` re-derives the atom order at every
    recursion step (the oracle behaviour).  A shared
    :class:`~repro.datalog.context.EvalContext` (``context=``) backs the
    planner with its cross-run structural plan cache.  On SQLite-backed
    databases both engines evaluate through compiled SQL joins (the planner
    is bypassed), so the knob only validates; unknown names raise
    :class:`~repro.exceptions.UnknownEngineError` either way.

    Clauses come sorted by their literal tuples, so neither the rule order
    nor the order the joins enumerate assignments shows in the CNF.  Each
    fact enters :attr:`BooleanProvenance.facts` with the ``tid`` of the first
    assignment that uses it.
    """
    naive = resolve_engine(db, engine) == ENGINE_NAIVE
    if isinstance(db, SQLiteDatabase):
        return _numbered(*_sqlite_clauses(db, program))
    planner = None
    if not naive:
        from repro.datalog.planner import JoinPlanner

        planner = context.planner(db) if context is not None else JoinPlanner(db)
    return _numbered(*_memory_clauses(db, program, planner))


def _memory_clauses(db: BaseDatabase, program: Iterable[Rule], planner) -> _Collected:
    """Raw clauses of the in-memory hypothetical joins, one per assignment."""
    already_deleted = set(db.all_deltas())
    ids: Dict[Fact, int] = {}
    table: List[Fact] = []
    raw: List[_RawClause] = []
    origins: List[_Origin] = []
    for rule in program:
        rule_name = rule.display_name()
        for assignment in find_assignments(
            db, rule, hypothetical_deltas=True, planner=planner,
        ):
            positives: List[int] = []
            negatives: List[int] = []
            for atom, item in assignment.used:
                if atom.is_delta and item in already_deleted:
                    continue
                variable = ids.get(item)
                if variable is None:
                    variable = ids[item] = len(table)
                    table.append(item)
                (negatives if atom.is_delta else positives).append(variable)
            raw.append((positives, negatives))
            derived = assignment.derived
            origins.append((rule_name, (derived.relation, derived.values)))
    return table, raw, origins


def _sqlite_clauses(db: SQLiteDatabase, program: Iterable[Rule]) -> _Collected:
    """Raw clauses decoded from the rows of the hypothetical SQL joins.

    A rule with ``k`` delta atoms runs ``2^k`` queries (each delta atom reads
    the active or the delta table); an assignment found by several of them is
    kept once, by its value columns.
    """
    already_deleted: Dict[str, set] = {}
    for item in db.all_deltas():
        already_deleted.setdefault(item.relation, set()).add(item.values)
    ids: Dict[str, Dict[tuple, int]] = {}
    table: List[Fact] = []
    raw: List[_RawClause] = []
    origins: List[_Origin] = []
    for rule in program:
        queries = compile_rule(rule, hypothetical_deltas=True)
        decoder = row_decoder(rule, queries[0].atom_arities)
        rule_name = rule.display_name()
        head_relation = rule.head.relation
        # Per atom: its relation's id map, relation, value columns and (for
        # delta atoms) the values already recorded as deleted.
        base = []
        delta = []
        for atom, (relation, start, stop) in zip(rule.body, decoder.atoms):
            known = ids.setdefault(relation, {})
            if atom.is_delta:
                delta.append((known, relation, start, stop, already_deleted.get(relation, ())))
            else:
                base.append((known, relation, start, stop))
        consistent = decoder.consistent
        head_values = decoder.head_values
        signature = decoder.signature
        seen = set() if len(queries) > 1 else None
        for query in queries:
            for row in db.execute(query.sql, query.params):
                if not consistent(row):
                    continue
                if seen is not None:
                    key = signature(row)
                    if key in seen:
                        continue
                    seen.add(key)
                positives: List[int] = []
                for known, relation, start, stop in base:
                    values = row[start:stop]
                    variable = known.get(values)
                    if variable is None:
                        variable = known[values] = len(table)
                        table.append(Fact(relation, values, tid=row[stop]))
                    positives.append(variable)
                negatives: List[int] = []
                for known, relation, start, stop, deleted in delta:
                    values = row[start:stop]
                    if values in deleted:
                        continue
                    variable = known.get(values)
                    if variable is None:
                        variable = known[values] = len(table)
                        table.append(Fact(relation, values, tid=row[stop]))
                    negatives.append(variable)
                raw.append((positives, negatives))
                origins.append((rule_name, (head_relation, head_values(row))))
    return table, raw, origins


def _numbered(
    table: List[Fact], raw: List[_RawClause], origins: List[_Origin],
) -> BooleanProvenance:
    """Number the facts in :meth:`Fact.sort_key` order and rewrite the clauses.

    ``table`` lists the facts by first-seen id; ties in ``sort_key`` keep
    that order.  The clauses come out in a canonical order, a stable sort on
    their literal tuples: the joins enumerate in-memory matches in the order
    of hash-ordered fact sets, and the solver's search (hence its node count)
    follows clause order, so without the sort its statistics would depend on
    ``PYTHONHASHSEED``.
    """
    keys = [item.sort_key() for item in table]
    order = sorted(range(len(table)), key=keys.__getitem__)
    number = [0] * len(table)
    for variable, index in enumerate(order, 1):
        number[index] = variable
    renumber = number.__getitem__
    literals = []
    for positives, negatives in raw:
        if len(positives) == 1 and len(negatives) == 1:
            # The common shape (a guard atom and one delta atom) needs no sort.
            literals.append((renumber(positives[0]), -renumber(negatives[0])))
            continue
        clause = sorted(set(map(renumber, positives)))
        clause += [-variable for variable in sorted(set(map(renumber, negatives)))]
        literals.append(tuple(clause))
    canonical = sorted(range(len(literals)), key=literals.__getitem__)
    return BooleanProvenance(
        tuple(table[index] for index in order),
        [literals[index] for index in canonical],
        [origins[index] for index in canonical],
    )
