"""The integer Boolean-provenance builder against the fact-level loop it replaced.

:func:`reference_boolean_provenance` is the builder as it was before clauses
went integer: one :class:`~repro.datalog.evaluation.Assignment` per
hypothetical match (``find_assignments(..., hypothetical_deltas=True)``) and
the frozensets of facts ``add_assignment`` built from it.
:func:`reference_cnf` is the CNF independent semantics then built from those
clauses: facts sorted by :meth:`Fact.sort_key`, numbered from 1, one clause
per non-empty assignment clause.  Random inputs take their seeds from
``tests.generators.differential_seeds`` and scale with ``PROPERTY_SCALE``.
"""

import random
from collections import Counter
from typing import List, Set, Tuple

import pytest

from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import find_assignments
from repro.datalog.sql_compiler import compile_rule
from repro.provenance.boolean import build_boolean_provenance
from repro.storage.database import Database
from repro.storage.facts import Fact
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import SQLiteDatabase

from tests.generators import (
    PROPERTY_SCALE,
    differential_seeds,
    random_instance,
    random_torture_spec,
    seed_note,
)

INSTANCE_SEEDS = differential_seeds(200 * PROPERTY_SCALE)
TORTURE_SEEDS = differential_seeds(150 * PROPERTY_SCALE)
RECORDED_SEEDS = differential_seeds(50 * PROPERTY_SCALE)

#: (positives, negatives, rule name, derived): one fact-level clause.
ReferenceClause = Tuple[frozenset, frozenset, str, Fact]


def reference_boolean_provenance(db, rules) -> Tuple[List[ReferenceClause], Set[Fact]]:
    """The fact-level clauses and variables, as the old builder made them."""
    already_deleted = set(db.all_deltas())
    clauses: List[ReferenceClause] = []
    variables: Set[Fact] = set()
    for rule in rules:
        for assignment in find_assignments(db, rule, hypothetical_deltas=True):
            positives = frozenset(assignment.base_facts())
            negatives = frozenset(
                item for item in assignment.delta_facts() if item not in already_deleted
            )
            clauses.append(
                (positives, negatives, assignment.rule.display_name(), assignment.derived),
            )
            variables |= positives | negatives
    return clauses, variables


def reference_cnf(clauses: List[ReferenceClause], variables: Set[Fact]) -> List[frozenset]:
    """The CNF independent semantics built from fact-level clauses."""
    ordered = sorted(variables, key=lambda item: item.sort_key())
    number = {item: index + 1 for index, item in enumerate(ordered)}
    cnf = []
    for positives, negatives, _rule_name, _derived in clauses:
        literals = [number[item] for item in sorted(positives)]
        literals += [-number[item] for item in sorted(negatives)]
        if literals:
            cnf.append(frozenset(literals))
    return cnf


def assert_matches_reference(memory: Database, program, note: str) -> None:
    """Both backends match the reference on their own input, and each other."""
    rules = list(program)
    decoded_by_backend = []
    for db in (memory, SQLiteDatabase.from_database(memory)):
        where = f"{note} backend={type(db).__name__}"
        provenance = build_boolean_provenance(db, rules)
        expected, variables = reference_boolean_provenance(db, rules)
        decoded = Counter(
            (clause.positives, clause.negatives, clause.rule_name, clause.derived)
            for clause in provenance.clauses
        )
        assert decoded == Counter(expected), where
        assert provenance.variables == variables, where
        # One fact per variable, carrying the tid the reference kept.
        assert sorted(map(repr, provenance.facts)) == sorted(map(repr, variables)), where
        # Variables are numbered in sort_key order.
        keys = [item.sort_key() for item in provenance.facts]
        assert keys == sorted(keys), where
        cnf = Counter(frozenset(literals) for literals in provenance.literals if literals)
        assert cnf == Counter(reference_cnf(expected, variables)), where
        decoded_by_backend.append(decoded)
    # The in-memory reference does not share the SQLite row decoder.
    assert decoded_by_backend[0] == decoded_by_backend[1], note


def with_recorded_deletions(db: Database) -> Database:
    """Every fifth fact marked deleted (still active), every seventh deleted."""
    for index, item in enumerate(sorted(db.all_active(), key=Fact.sort_key)):
        if index % 5 == 0:
            db.mark_deleted(item)
        elif index % 7 == 0:
            db.delete(item)
    return db


class TestIntegerBuilderMatchesReference:
    @pytest.mark.parametrize("seed", INSTANCE_SEEDS)
    def test_random_instances(self, seed):
        db, program = random_instance(seed)
        assert_matches_reference(db, program, seed_note(seed))

    @pytest.mark.parametrize("seed", TORTURE_SEEDS)
    def test_torture_specs(self, seed):
        db, program = random_torture_spec(random.Random(seed)).build()
        assert_matches_reference(db, program, seed_note(seed))

    @pytest.mark.parametrize("seed", RECORDED_SEEDS)
    def test_inputs_with_recorded_deletions(self, seed):
        db, program = random_instance(seed)
        assert_matches_reference(with_recorded_deletions(db), program, seed_note(seed))


class TestAffinityGuard:
    def test_text_never_joins_an_integer(self):
        schema = Schema.from_relations(
            [RelationSchema.of("R", "x:str"), RelationSchema.of("S", "x:int")],
        )
        memory = Database.from_dicts(schema, {"R": [("1",)], "S": [(1,)]})
        sqlite = SQLiteDatabase.from_database(memory)
        program = DeltaProgram.from_text("delta S(x) :- S(x), delta R(x).")
        (rule,) = program
        # SQLite's join matches TEXT '1' with INTEGER 1 through type affinity…
        rows = [
            row
            for query in compile_rule(rule, hypothetical_deltas=True)
            for row in sqlite.execute(query.sql, query.params)
        ]
        assert rows
        # …so the decoder's Python re-check is what keeps the clause out.
        for db in (memory, sqlite):
            provenance = build_boolean_provenance(db, program)
            assert provenance.clause_count() == 0
            assert provenance.facts == ()
