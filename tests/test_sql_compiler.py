"""Unit tests for the SQL rule compiler (repro.datalog.sql_compiler)."""

import pytest

from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import find_assignments
from repro.datalog.parser import parse_rule
from repro.datalog.sql_compiler import compile_rule, find_assignments_sql
from repro.exceptions import EvaluationError
from repro.provenance.boolean import build_boolean_provenance
from repro.storage.database import Database
from repro.storage.facts import fact
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import SQLiteDatabase


@pytest.fixture
def schema() -> Schema:
    return Schema.from_relations(
        [
            RelationSchema.of("R", "x:int", "y:str"),
            RelationSchema.of("S", "x:int", "z:int"),
        ],
    )


@pytest.fixture
def db(schema: Schema) -> SQLiteDatabase:
    built = SQLiteDatabase(schema)
    built.insert_all(
        [fact("R", 1, "a"), fact("R", 2, "b"), fact("S", 1, 10), fact("S", 1, 20)],
    )
    return built


class TestCompileRule:
    def test_single_query_in_normal_mode(self):
        rule = parse_rule("delta R(x, y) :- R(x, y), delta S(x, z).")
        compiled = compile_rule(rule)
        assert len(compiled) == 1
        assert "r_R" in compiled[0].sql and "d_S" in compiled[0].sql

    def test_hypothetical_mode_enumerates_sources(self):
        rule = parse_rule("delta R(x, y) :- R(x, y), delta S(x, z), delta R(x, y).")
        compiled = compile_rule(rule, hypothetical_deltas=True)
        assert len(compiled) == 4  # two delta atoms, two sources each

    def test_join_condition_emitted_for_shared_variable(self):
        rule = parse_rule("delta R(x, y) :- R(x, y), S(x, z).")
        sql = compile_rule(rule)[0].sql
        assert "a0.c0 = " not in sql.split("WHERE")[0]
        assert "a1.c0 = a0.c0" in sql or "a0.c0 = a1.c0" in sql

    def test_constants_become_parameters(self):
        rule = parse_rule("delta R(x, 'b') :- R(x, 'b'), x < 5.")
        compiled = compile_rule(rule)[0]
        assert compiled.params == ("b", 5)
        assert "?" in compiled.sql

    def test_comparison_with_unknown_variable_raises(self):
        rule = parse_rule("delta R(x, y) :- R(x, y), w > 3.")
        with pytest.raises(EvaluationError):
            compile_rule(rule)


class TestFindAssignmentsSQL:
    def test_matches_in_memory_evaluator(self, schema, db):
        rule = parse_rule("delta R(x, y) :- R(x, y), S(x, z), z > 15.")
        memory = Database.from_dicts(
            schema, {"R": [(1, "a"), (2, "b")], "S": [(1, 10), (1, 20)]},
        )
        sql_results = {a.signature() for a in find_assignments_sql(db, rule)}
        mem_results = {a.signature() for a in find_assignments(memory, rule)}
        assert sql_results == mem_results
        assert len(sql_results) == 1

    def test_delta_atoms_read_delta_tables(self, db):
        rule = parse_rule("delta R(x, y) :- R(x, y), delta S(x, z).")
        assert find_assignments_sql(db, rule) == []
        db.delete(fact("S", 1, 10))
        derived = {a.derived for a in find_assignments_sql(db, rule)}
        assert derived == {fact("R", 1, "a")}

    def test_hypothetical_mode_unions_active_and_delta(self, db):
        rule = parse_rule("delta R(x, y) :- R(x, y), delta S(x, z).")
        derived = {
            a.derived
            for a in find_assignments_sql(db, rule, hypothetical_deltas=True)
        }
        assert derived == {fact("R", 1, "a")}

    def test_dispatch_through_find_assignments(self, db):
        rule = parse_rule("delta R(x, y) :- R(x, y), S(x, z).")
        via_dispatch = {a.signature() for a in find_assignments(db, rule)}
        direct = {a.signature() for a in find_assignments_sql(db, rule)}
        assert via_dispatch == direct

    def test_repeated_variable_filtered(self, schema):
        db = SQLiteDatabase(schema)
        db.insert_all([fact("S", 1, 1), fact("S", 1, 2)])
        rule = parse_rule("delta S(x, x) :- S(x, x).")
        derived = {a.derived for a in find_assignments_sql(db, rule)}
        assert derived == {fact("S", 1, 1)}

    def test_unbound_head_variable_raises_like_the_memory_path(self, schema, db):
        # Plain rule lists skip DeltaProgram's safety check; a head variable
        # no body atom binds fails when the first row is decoded.
        rule = parse_rule("delta S(x, w) :- S(x, z).")
        memory = Database.from_dicts(schema, {"R": [], "S": [(1, 10)]})
        for backend in (memory, db):
            with pytest.raises(EvaluationError, match="unbound"):
                find_assignments(backend, rule)
            with pytest.raises(EvaluationError, match="unbound"):
                build_boolean_provenance(backend, [rule])

    def test_full_program_closure_matches_memory(self, schema):
        program = DeltaProgram.from_text(
            "delta S(x, z) :- S(x, z), z > 15. delta R(x, y) :- R(x, y), delta S(x, z).",
        )
        memory = Database.from_dicts(
            schema, {"R": [(1, "a"), (2, "b")], "S": [(1, 10), (1, 20)]},
        )
        sqlite = SQLiteDatabase.from_database(memory)
        from repro import RepairEngine, Semantics

        for semantics in (Semantics.END, Semantics.STAGE):
            assert (
                RepairEngine(memory, program).repair(semantics).deleted
                == RepairEngine(sqlite, program).repair(semantics).deleted
            )
