"""Unit tests for the SQLite storage engine and its equivalence with the in-memory one."""

import pytest

from repro.datalog import DeltaProgram, find_assignments, run_closure
from repro.datalog.parser import parse_rule
from repro.datalog.planner import PLAN_WCOJ
from repro.datalog.sql_compiler import compile_frontier_rule
from repro.exceptions import ArityMismatchError, StorageError, UnknownRelationError
from repro.storage.database import Database
from repro.storage.facts import fact
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import (
    SQLiteDatabase,
    active_table,
    delta_table,
    frontier_table,
)


@pytest.fixture
def schema() -> Schema:
    return Schema.from_relations(
        [RelationSchema.of("R", "x:int", "y:str"), RelationSchema.of("S", "x:int")],
    )


@pytest.fixture
def db(schema: Schema) -> SQLiteDatabase:
    built = SQLiteDatabase(schema)
    built.insert_all([fact("R", 1, "a"), fact("R", 2, "b"), fact("S", 1)])
    return built


class TestBasics:
    def test_table_names(self):
        assert active_table("R") == "r_R"
        assert delta_table("R") == "d_R"

    def test_insert_and_count(self, db: SQLiteDatabase):
        assert db.count_active("R") == 2
        assert db.count_active() == 3

    def test_insert_duplicate_ignored(self, db: SQLiteDatabase):
        assert not db.insert(fact("R", 1, "a"))
        assert db.count_active("R") == 2

    def test_unknown_relation_rejected(self, db: SQLiteDatabase):
        with pytest.raises(UnknownRelationError):
            db.insert(fact("T", 1))
        with pytest.raises(UnknownRelationError):
            db.active_facts("T")

    def test_arity_mismatch_rejected(self, db: SQLiteDatabase):
        with pytest.raises(ArityMismatchError):
            db.insert(fact("R", 1))

    def test_delete_and_delta(self, db: SQLiteDatabase):
        db.delete(fact("R", 1, "a"))
        assert not db.has_active(fact("R", 1, "a"))
        assert db.has_delta(fact("R", 1, "a"))
        assert db.count_delta("R") == 1

    def test_mark_deleted_and_drop_active(self, db: SQLiteDatabase):
        db.mark_deleted(fact("R", 2, "b"))
        assert db.has_active(fact("R", 2, "b"))
        db.drop_active(fact("R", 2, "b"))
        assert not db.has_active(fact("R", 2, "b"))

    def test_candidates_filters_by_bindings(self, db: SQLiteDatabase):
        assert set(db.candidates("R", {0: 2})) == {fact("R", 2, "b")}
        assert set(db.candidates("R", {})) == {fact("R", 1, "a"), fact("R", 2, "b")}

    def test_tid_round_trips(self, schema: Schema):
        built = SQLiteDatabase(schema)
        built.insert(fact("R", 5, "z", tid="special"))
        stored = next(iter(built.active_facts("R")))
        assert stored.tid == "special"

    def test_execute_rejects_bad_sql(self, db: SQLiteDatabase):
        with pytest.raises(StorageError):
            db.execute("SELECT * FROM missing_table")

    def test_clone_and_equality(self, db: SQLiteDatabase):
        db.delete(fact("S", 1))
        copy = db.clone()
        assert copy.same_state_as(db)
        copy.delete(fact("R", 1, "a"))
        assert not copy.same_state_as(db)

    def test_not_hashable(self, db: SQLiteDatabase):
        with pytest.raises(TypeError):
            hash(db)


class TestCrossBackendEquivalence:
    def test_from_database_copies_state(self, schema: Schema):
        memory = Database.from_dicts(schema, {"R": [(1, "a")], "S": [(2,)]})
        memory.delete(fact("S", 2))
        sqlite = SQLiteDatabase.from_database(memory)
        assert sqlite.same_state_as(memory)

    def test_rule_evaluation_matches_memory_backend(self, schema: Schema):
        program = DeltaProgram.from_text("delta R(x, y) :- R(x, y), S(x).")
        memory = Database.from_dicts(schema, {"R": [(1, "a"), (2, "b")], "S": [(1,)]})
        sqlite = SQLiteDatabase.from_database(memory)
        mem_derived = {a.derived for a in find_assignments(memory, program[0])}
        sql_derived = {a.derived for a in find_assignments(sqlite, program[0])}
        assert mem_derived == sql_derived == {fact("R", 1, "a")}

    def test_repair_matches_memory_backend(self, schema: Schema):
        from repro import RepairEngine, Semantics

        program = DeltaProgram.from_text("delta R(x, y) :- R(x, y), S(x).")
        memory = Database.from_dicts(schema, {"R": [(1, "a"), (2, "b")], "S": [(1,)]})
        sqlite = SQLiteDatabase.from_database(memory)
        for semantics in Semantics:
            mem = RepairEngine(memory, program).repair(semantics).deleted
            sql = RepairEngine(sqlite, program).repair(semantics).deleted
            assert mem == sql


class TestFrontierTables:
    def test_table_name(self):
        assert frontier_table("R") == "f_R"

    def test_tokens_and_added_since(self, db: SQLiteDatabase):
        token = db.delta_token("R")
        assert db.delta_added_since("R", token) == []
        db.mark_deleted(fact("R", 1, "a"))
        db.mark_deleted(fact("R", 1, "a"))  # duplicate: must not re-log
        assert db.delta_added_since("R", token) == [fact("R", 1, "a")]
        assert db.delta_added_since("R", db.delta_token("R")) == []

    def test_generations_are_monotone_and_clone_preserves_them(
        self, db: SQLiteDatabase,
    ):
        db.delete(fact("R", 1, "a"))
        before = db.generation()
        copy = db.clone()
        assert copy.generation() == before
        assert copy.same_state_as(db)
        # New deletions on the clone land after the copied generations.
        copy.delete(fact("R", 2, "b"))
        assert copy.delta_added_since("R", before) == [fact("R", 2, "b")]
        # The original is untouched.
        assert db.delta_added_since("R", before) == []

    def test_reopened_file_database_resumes_generations(self, schema, tmp_path):
        # Regression: a reopened file-backed database must resume the counter
        # after the persisted stamps, so pre-recorded deltas stay inside the
        # semi-naive round-1 window and new deltas don't collide with them.
        path = str(tmp_path / "frontier.db")
        first = SQLiteDatabase(schema, path=path)
        first.insert(fact("S", 1))
        first.insert(fact("R", 1, "a"))
        first.mark_deleted(fact("R", 1, "a"))
        persisted = first.generation()
        first.close()

        reopened = SQLiteDatabase(schema, path=path)
        assert reopened.generation() == persisted
        token = reopened.delta_token("S")
        reopened.mark_deleted(fact("S", 1))
        assert reopened.delta_added_since("S", token) == [fact("S", 1)]
        program = DeltaProgram.from_text("delta S(x) :- S(x), delta R(x, y).")
        semi = run_closure(reopened.clone(), program, engine="semi-naive")
        naive = run_closure(reopened.clone(), program, engine="naive")
        assert {a.signature() for a in semi.assignments} == {
            a.signature() for a in naive.assignments
        }
        assert len(semi.assignments) == 1
        reopened.close()

    def test_frontier_mirrors_delta_extent(self, db: SQLiteDatabase):
        db.delete(fact("R", 1, "a"))
        db.mark_deleted(fact("S", 1))
        for relation in ("R", "S"):
            rows = db.execute(
                f"SELECT COUNT(*) FROM {frontier_table(relation)}",
            ).fetchone()
            assert rows[0] == db.count_delta(relation)


class TestWALMode:
    """File-backed databases run in WAL; in-memory ones keep a MEMORY journal.

    A MEMORY rollback journal can corrupt the file on a crash mid-write;
    WAL is crash-safe.
    """

    def _journal_mode(self, db: SQLiteDatabase) -> str:
        return db.execute("PRAGMA journal_mode").fetchone()[0].lower()

    def test_memory_database_keeps_memory_journal(self, schema):
        db = SQLiteDatabase(schema)
        assert self._journal_mode(db) == "memory"

    def test_file_database_uses_wal(self, schema, tmp_path):
        db = SQLiteDatabase(schema, path=str(tmp_path / "wal.db"))
        assert self._journal_mode(db) == "wal"
        # synchronous = NORMAL (1): commits only sync at WAL checkpoints.
        assert db.execute("PRAGMA synchronous").fetchone()[0] == 1
        db.close()

    def test_wal_survives_reopen_and_resumes_fixpoint(self, schema, tmp_path):
        # The reopen/resume path under WAL: generations persist, the journal
        # mode sticks (WAL is recorded in the database header), and a closure
        # started before the reopen settles to the oracle state after it.
        path = str(tmp_path / "wal_resume.db")
        first = SQLiteDatabase(schema, path=path)
        first.insert_all([fact("R", 1, "a"), fact("S", 1)])
        first.mark_deleted(fact("R", 1, "a"))
        persisted = first.generation()
        first.close()

        reopened = SQLiteDatabase(schema, path=path)
        assert self._journal_mode(reopened) == "wal"
        assert reopened.generation() == persisted
        program = DeltaProgram.from_text("delta S(x) :- S(x), delta R(x, y).")
        run_closure(reopened, program, engine="semi-naive")
        assert reopened.has_delta(fact("S", 1))
        reopened.close()

    def test_clone_of_file_database_is_in_memory(self, schema, tmp_path):
        # clone() backs up into a fresh in-memory engine regardless of the
        # source's journal mode.
        db = SQLiteDatabase(schema, path=str(tmp_path / "clone_src.db"))
        db.insert(fact("S", 1))
        copy = db.clone()
        assert self._journal_mode(copy) == "memory"
        assert copy.same_state_as(db)
        db.close()


class TestClone:
    """``clone()`` backs up into a bare connection: no DDL, no counter scan."""

    @pytest.fixture
    def no_ddl(self, monkeypatch):
        def refuse(self):
            raise AssertionError("clone() must not run table or counter set-up")

        monkeypatch.setattr(SQLiteDatabase, "_create_tables", refuse)
        monkeypatch.setattr(SQLiteDatabase, "_max_persisted_generation", refuse)

    def test_clone_runs_no_table_setup(self, db: SQLiteDatabase, no_ddl):
        db.delete(fact("S", 1))
        copy = db.clone()
        assert copy.same_state_as(db)
        assert copy.path == ":memory:"

    def test_clone_of_file_database_is_memory_journaled(self, schema, tmp_path):
        source = SQLiteDatabase(schema, path=str(tmp_path / "wal_clone.db"))
        source.insert_all([fact("R", 1, "a"), fact("S", 1)])
        source.mark_deleted(fact("S", 1))
        assert source.execute("PRAGMA journal_mode").fetchone()[0].lower() == "wal"
        copy = source.clone()
        assert copy.path == ":memory:"
        assert copy.execute("PRAGMA journal_mode").fetchone()[0].lower() == "memory"
        assert copy.same_state_as(source)
        copy.insert(fact("R", 2, "b"))
        assert not source.has_active(fact("R", 2, "b"))
        source.close()

    def test_generation_carries_over_and_next_stamp_is_above(
        self, db: SQLiteDatabase, no_ddl,
    ):
        db.mark_deleted(fact("R", 1, "a"))
        db.mark_deleted(fact("S", 1))
        before = db.generation()
        copy = db.clone()
        assert copy.generation() == before
        copy.mark_deleted(fact("R", 2, "b"))
        (stamp,) = copy.execute(
            f"SELECT gen FROM {frontier_table('R')} WHERE c0 = 2",
        ).fetchone()
        assert stamp > before
        assert copy.delta_added_since("R", before) == [fact("R", 2, "b")]

    def test_staged_closure_on_clone_of_a_staging_source(self, schema):
        program = DeltaProgram.from_text(
            """
            delta R(x, y) :- R(x, y), S(x).
            delta S(x) :- S(x), delta R(x, y).
            """,
        )
        memory = Database.from_dicts(
            schema, {"R": [(1, "a"), (2, "b")], "S": [(1,), (2,)]},
        )
        source = SQLiteDatabase.from_database(memory)
        for width in range(1, 16):
            source.ensure_stage_table(width)
        # Stage tables are temp tables of the source's connection: the clone
        # has none and must create its own on first use.
        copy = source.clone()
        staged = run_closure(copy, program, collect_assignments=True)
        expected = run_closure(memory, program, collect_assignments=True)
        assert staged.assignments
        assert {a.signature() for a in staged.assignments} == {
            a.signature() for a in expected.assignments
        }
        assert copy.same_state_as(memory)

    def test_wcoj_covering_indexes_are_copied(self):
        triangle_schema = Schema.from_relations([RelationSchema.of("E", "a:int", "b:int")])
        source = SQLiteDatabase(triangle_schema)
        source.insert_all([fact("E", 1, 2), fact("E", 2, 3), fact("E", 3, 1)])
        full, _ = compile_frontier_rule(
            parse_rule("delta E(x, y) :- E(x, y), E(y, z), E(z, x)."),
            plan_kind=PLAN_WCOJ,
        )
        assert source.ensure_wcoj_indexes(full.wcoj_index_sql) > 0

        def indexes(database):
            rows = database.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'",
            ).fetchall()
            return {name for (name,) in rows}

        copy = source.clone()
        assert indexes(copy) == indexes(source)
        # The clone's own first run applies the idempotent DDL again.
        assert copy.ensure_wcoj_indexes(full.wcoj_index_sql) == len(full.wcoj_index_sql)

    def test_statement_hooks_are_not_inherited(self, db: SQLiteDatabase):
        seen = []
        db.add_statement_hook(seen.append)
        copy = db.clone()
        copy.execute("SELECT 1")
        assert seen == []
        db.execute("SELECT 2")
        assert seen == ["SELECT 2"]

    def test_clone_of_a_clone(self, db: SQLiteDatabase, no_ddl):
        db.delete(fact("S", 1))
        copy = db.clone().clone()
        assert copy.same_state_as(db)
        assert copy.generation() == db.generation()
        copy.delete(fact("R", 1, "a"))
        assert not db.has_delta(fact("R", 1, "a"))


class TestFileBackedResume:
    """Reopening a file-backed database mid-fixpoint must lose nothing.

    The delta and frontier tables are written by consecutive autocommit
    statements, so an interrupted session can leave them torn in either
    direction; ``SQLiteDatabase.__init__`` reconciles on reopen.  These tests
    simulate the torn states directly and assert the resumed generation
    counter neither re-derives nor skips frontier facts.
    """

    def _cascade(self, tmp_path, name: str):
        schema = Schema.from_relations(
            [RelationSchema.of("R", "x:int", "y:str"), RelationSchema.of("S", "x:int")],
        )
        path = str(tmp_path / f"{name}.db")
        db = SQLiteDatabase(schema, path=path)
        db.insert_all(
            [fact("R", 1, "a"), fact("R", 2, "b"), fact("S", 1), fact("S", 2)],
        )
        program = DeltaProgram.from_text(
            """
            delta R(x, y) :- R(x, y), S(x), x < 2.
            delta S(x) :- S(x), delta R(x, y).
            delta R(x, y) :- R(x, y), delta S(x).
            """,
        )
        return schema, path, db, program

    def _oracle_state(self, schema, program):
        oracle = SQLiteDatabase(schema)
        oracle.insert_all(
            [fact("R", 1, "a"), fact("R", 2, "b"), fact("S", 1), fact("S", 2)],
        )
        run_closure(oracle, program, engine="naive")
        return set(oracle.all_deltas())

    def test_interrupted_closure_resumes_to_same_fixpoint(self, tmp_path):
        from repro.exceptions import EvaluationError

        schema, path, db, program = self._cascade(tmp_path, "interrupted")
        # Abort the closure mid-fixpoint: round 1 commits its installs and
        # delta copies, then the round-2 guard raises.
        with pytest.raises(EvaluationError):
            run_closure(db, program, engine="semi-naive", max_rounds=1)
        interrupted_generation = db.generation()
        db.close()

        reopened = SQLiteDatabase(schema, path=path)
        assert reopened.generation() >= interrupted_generation - 1
        resumed = run_closure(reopened, program, engine="semi-naive")
        assert resumed.rounds >= 1
        assert set(reopened.all_deltas()) == self._oracle_state(schema, program)
        reopened.close()

    def test_torn_install_is_reconciled_on_reopen(self, tmp_path):
        # Simulate a kill between an INSERT..SELECT install into f_R and the
        # delta-copy promotion into d_R: the frontier row exists, the delta
        # row does not.
        schema, path, db, program = self._cascade(tmp_path, "torn_install")
        orphan_gen = db.next_generation()
        db.execute(
            f"INSERT OR IGNORE INTO {frontier_table('R')} (c0, c1, tid, gen) "
            "VALUES (1, 'a', NULL, ?)",
            (orphan_gen,),
        )
        assert not db.has_delta(fact("R", 1, "a"))  # torn state on disk
        db.close()

        reopened = SQLiteDatabase(schema, path=path)
        # Reconciliation restored the mirror: the orphaned frontier fact is a
        # delta fact again, and is never re-stamped (no duplicate frontier row).
        assert reopened.has_delta(fact("R", 1, "a"))
        rows = reopened.execute(
            f"SELECT COUNT(*) FROM {frontier_table('R')} WHERE c0 = 1",
        ).fetchone()
        assert rows[0] == 1
        run_closure(reopened, program, engine="semi-naive")
        assert set(reopened.all_deltas()) == self._oracle_state(schema, program)
        reopened.close()

    def test_torn_mark_deleted_is_reconciled_on_reopen(self, tmp_path):
        # Simulate a kill between the d_R insert and the f_R stamp of
        # mark_deleted(): the delta row exists but carries no generation, so
        # without reconciliation no frontier window would ever join it.
        schema, path, db, program = self._cascade(tmp_path, "torn_mark")
        db.execute(
            f"INSERT OR IGNORE INTO {delta_table('S')} (c0, tid) VALUES (2, NULL)",
        )
        stale_generation = db.generation()
        db.close()

        reopened = SQLiteDatabase(schema, path=path)
        # The unstamped delta fact received a fresh generation...
        assert reopened.generation() == stale_generation + 1
        assert reopened.delta_added_since("S", stale_generation) == [fact("S", 2)]
        # ...and the cascade through it fires: ΔS(2) deletes R-facts with x=2
        # that the seed rule (x < 2) alone would never reach.
        run_closure(reopened, program, engine="semi-naive")
        deltas = set(reopened.all_deltas())
        assert fact("R", 2, "b") in deltas
        # Equivalent to a naive oracle run from the same reconciled state.
        oracle = SQLiteDatabase(schema)
        oracle.insert_all(
            [fact("R", 1, "a"), fact("R", 2, "b"), fact("S", 1), fact("S", 2)],
        )
        oracle.mark_deleted(fact("S", 2))
        run_closure(oracle, program, engine="naive")
        assert deltas == set(oracle.all_deltas())
        reopened.close()

    def test_resumed_counter_never_rederives_frontier_facts(self, tmp_path):
        schema, path, db, program = self._cascade(tmp_path, "rederive")
        first = run_closure(db, program, engine="semi-naive")
        assert first.rounds >= 2
        settled = set(db.all_deltas())
        db.close()

        reopened = SQLiteDatabase(schema, path=path)
        token = reopened.generation()
        again = run_closure(reopened, program, engine="semi-naive")
        # Round 1 re-enumerates (full window) but derives nothing new: no
        # fact re-enters the frontier, so the closure stops after one round
        # and the pre-reopen token still sees an empty frontier.
        assert again.rounds == 1
        assert set(reopened.all_deltas()) == settled
        for relation in ("R", "S"):
            assert reopened.delta_added_since(relation, token) == []
        reopened.close()


class SQLiteSemiNaiveCase:
    """Shared scaffolding: one schema, closures run on both engines."""

    def closure_pair(self, db: SQLiteDatabase, program: DeltaProgram):
        naive_db, semi_db = db.clone(), db.clone()
        naive = run_closure(naive_db, program, engine="naive")
        semi = run_closure(semi_db, program, engine="semi-naive")
        assert set(naive_db.all_deltas()) == set(semi_db.all_deltas())
        assert {a.signature() for a in naive.assignments} == {
            a.signature() for a in semi.assignments
        }
        return semi, semi_db


class TestSQLiteSemiNaiveEdgeCases(SQLiteSemiNaiveCase):
    def test_empty_frontier_round_terminates(self, schema: Schema):
        # The cascade re-derives only already-recorded facts after round 2:
        # the install statements insert nothing new, the frontier window is
        # empty and the closure must stop without an extra round.
        db = SQLiteDatabase(schema)
        db.insert_all([fact("R", 1, "a"), fact("S", 1)])
        program = DeltaProgram.from_text(
            """
            delta R(x, y) :- R(x, y), S(x).
            delta S(x) :- S(x), delta R(x, y).
            delta R(x, y) :- R(x, y), delta S(x).
            """,
        )
        semi, semi_db = self.closure_pair(db, program)
        assert set(semi_db.all_deltas()) == {fact("R", 1, "a"), fact("S", 1)}
        # Round 1 derives ΔR, round 2 ΔS, round 3 re-derives only ΔR(1, a)
        # (already recorded — an assignment, but no frontier), then stop.
        assert semi.rounds == 3

    def test_self_join_hits_frontier_table_twice(self):
        # Two delta atoms over the same relation: the seeded variants must
        # join f_E twice with different generation windows, and the rank
        # stratification must not double-count the symmetric assignments.
        schema = Schema.from_relations([RelationSchema.of("E", "x:int", "y:int")])
        memory = Database.from_dicts(
            schema, {"E": [(1, 2), (2, 1), (2, 2), (3, 4)]},
        )
        program = DeltaProgram.from_text(
            """
            delta E(x, y) :- E(x, y), x = 1.
            delta E(y, z) :- E(y, z), delta E(x, y), delta E(z, w).
            """,
        )
        db = SQLiteDatabase.from_database(memory)
        semi, semi_db = self.closure_pair(db, program)
        mem_db = memory.clone()
        mem = run_closure(mem_db, program, engine="semi-naive")
        assert set(semi_db.all_deltas()) == set(mem_db.all_deltas())
        assert {a.signature() for a in semi.assignments} == {
            a.signature() for a in mem.assignments
        }
        assert semi.rounds == mem.rounds

    def test_tid_labels_preserved_through_sql_insert_path(self, schema: Schema):
        db = SQLiteDatabase(schema)
        db.insert(fact("R", 1, "a", tid="r1"))
        db.insert(fact("S", 1, tid="s1"))
        program = DeltaProgram.from_text(
            "delta R(x, y) :- R(x, y), S(x). delta S(x) :- S(x), delta R(x, y).",
        )
        semi, semi_db = self.closure_pair(db, program)
        # Body facts keep their labels through SELECT reconstruction.
        used = {
            (item.relation, item.values, item.tid)
            for assignment in semi.assignments
            for item in assignment.all_facts()
        }
        assert ("R", (1, "a"), "r1") in used
        assert ("S", (1,), "s1") in used
        # Facts installed by INSERT ... SELECT carry no label, and the
        # installed delta row for R(1, a) did not clobber anything.
        delta_r = {(item.values, item.tid) for item in semi_db.delta_facts("R")}
        assert delta_r == {((1, "a"), None)}

    def test_pre_recorded_delta_tid_not_clobbered_by_install(self, schema: Schema):
        # A fact already in the delta extent with a label must keep it even
        # when the closure re-derives (and re-installs) the same fact.
        db = SQLiteDatabase(schema)
        db.insert(fact("S", 1))
        db.insert(fact("R", 1, "a"))
        db.mark_deleted(fact("R", 1, "a", tid="kept"))
        program = DeltaProgram.from_text("delta R(x, y) :- R(x, y), S(x).")
        _, semi_db = self.closure_pair(db, program)
        delta_r = {(item.values, item.tid) for item in semi_db.delta_facts("R")}
        assert delta_r == {((1, "a"), "kept")}
