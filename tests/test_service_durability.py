"""Durability & correctness tests for the incremental maintenance layer.

ISSUE 8: the persistent ``AssignmentStore`` (warm restart of a file-backed
``RepairService`` from the ``_repro_assign*`` tables), the counting-based
deletion fast path (base-only support counts deciding delete batches without
the DRed detour), multi-tenant batch coalescing (``apply_many``), the
``max_rounds`` threading through the maintenance drivers, and the poisoned
service contract after a failed batch.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import run_closure
from repro.datalog.incremental import (
    AssignmentStore,
    PersistentAssignmentStore,
    make_assignment_store,
    program_fingerprint,
)
from repro.exceptions import EvaluationError, ServicePoisonedError
from repro.service import ENGINE_WARM, RepairService
from repro.storage.database import Database
from repro.storage.facts import Fact, fact
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import SQLiteDatabase

BACKENDS = ["memory", "sqlite", "sqlite-file"]


def cascade_schema():
    return Schema.from_relations(
        [
            RelationSchema.of("E", "x:int", "y:int"),
            RelationSchema.of("N", "x:int"),
            RelationSchema.of("S", "x:int"),
        ],
    )


def cascade_program():
    return DeltaProgram.from_text(
        """
        delta N(x) :- N(x), S(x).
        delta E(x, y) :- E(x, y), delta N(x).
        delta N(y) :- N(y), E(x, y), delta E(x, y).
        """,
    )


def cascade_facts():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (5, 6), (6, 5), (2, 6), (7, 8)]
    return (
        [fact("E", a, b) for a, b in edges]
        + [fact("N", i) for i in range(9)]
        + [fact("S", 0)]
    )


def redundant_schema():
    """Schema for the counting workload: two independent seed relations."""
    return Schema.from_relations(
        [
            RelationSchema.of("E", "x:int", "y:int"),
            RelationSchema.of("N", "x:int"),
            RelationSchema.of("S", "x:int"),
            RelationSchema.of("T", "x:int"),
        ],
    )


def redundant_program():
    """Two base-only derivations per seed: deleting one leaves a live count."""
    return DeltaProgram.from_text(
        """
        delta N(x) :- N(x), S(x).
        delta N(x) :- N(x), T(x).
        delta N(y) :- N(y), E(x, y), delta N(x).
        """,
    )


def redundant_facts(chain=4):
    return (
        [fact("E", i, i + 1) for i in range(chain)]
        + [fact("N", i) for i in range(chain + 1)]
        + [fact("S", 0), fact("T", 0)]
    )


def make_db(backend, schema, facts, tmp_path=None, tag=""):
    if backend == "memory":
        return Database.from_facts(schema, facts)
    path = ":memory:" if backend == "sqlite" else str(tmp_path / f"dur_{tag}.db")
    db = SQLiteDatabase(schema, path=path)
    db.insert_all(facts)
    return db


def labelled_active(db, schema):
    return {
        (item.relation, item.values, item.tid)
        for relation in schema.relations
        for item in db.candidates(relation, {})
    }


def labelled_deltas(db):
    return {(item.relation, item.values, item.tid) for item in db.all_deltas()}


def assert_matches_scratch(service, schema, program, backend, tmp_path, tag):
    """Maintained state == from-scratch fixpoint on the current base instance."""
    db = service.db
    active = sorted(
        (
            item
            for relation in schema.relations
            for item in db.candidates(relation, {})
        ),
        key=Fact.sort_key,
    )
    scratch = make_db(backend, schema, active, tmp_path, tag)
    result = run_closure(scratch, program, engine="naive")

    assert labelled_active(db, schema) == labelled_active(scratch, schema)
    assert labelled_deltas(db) == labelled_deltas(scratch)
    maintained_sigs = {a.signature() for a in service.assignments()}
    scratch_sigs = {a.signature() for a in result.assignments}
    assert maintained_sigs == scratch_sigs
    scratch_repair = {item for item in scratch.all_deltas() if scratch.has_active(item)}
    assert service.repair_deleted() == frozenset(scratch_repair)
    if isinstance(scratch, SQLiteDatabase):
        scratch.close()


# ---------------------------------------------------------------------------
# Warm restart (persistent AssignmentStore)
# ---------------------------------------------------------------------------


class TestWarmRestart:
    def reopen(self, path, schema, program, **kwargs):
        db = SQLiteDatabase(schema, path=path)
        return db, RepairService(db, program, **kwargs)

    def test_store_backend_selection(self, tmp_path):
        schema = cascade_schema()
        assert isinstance(
            make_assignment_store(Database(schema), []), AssignmentStore,
        )
        assert not isinstance(
            make_assignment_store(Database(schema), []), PersistentAssignmentStore,
        )
        db = SQLiteDatabase(schema)
        assert isinstance(
            make_assignment_store(db, []), PersistentAssignmentStore,
        )
        db.close()

    def test_warm_restart_differential(self, tmp_path):
        """File-backed service -> batches -> reopen -> more batches == scratch."""
        schema, program = cascade_schema(), cascade_program()
        path = str(tmp_path / "warm.db")
        db = SQLiteDatabase(schema, path=path)
        db.insert_all(cascade_facts())
        service = RepairService(db, program)
        service.apply(deletes=[fact("E", 2, 3)])
        service.apply(inserts=[fact("E", 8, 2), fact("N", 8)], deletes=[fact("E", 7, 8)])
        live_before = {a.signature() for a in service.assignments()}
        deltas_before = labelled_deltas(db)
        db.close()

        db2, warmed = self.reopen(path, schema, program)
        # The load fixpoint did not run: no closure engine, zero rounds.
        assert warmed.load_engine == ENGINE_WARM
        assert warmed.load_rounds == 0
        assert {a.signature() for a in warmed.assignments()} == live_before
        assert labelled_deltas(db2) == deltas_before
        # Point queries answer straight off the reloaded state.
        assert warmed.is_derivable(fact("N", 0))
        assert not warmed.is_derivable(fact("N", 3))
        assert_matches_scratch(warmed, schema, program, "sqlite-file", tmp_path, "w0")

        # Further batches maintain the reloaded store correctly.
        warmed.apply(inserts=[fact("E", 2, 3)])
        assert_matches_scratch(warmed, schema, program, "sqlite-file", tmp_path, "w1")
        warmed.apply(deletes=[fact("S", 0)])
        assert_matches_scratch(warmed, schema, program, "sqlite-file", tmp_path, "w2")
        db2.close()

    def test_warm_restart_replays_observers_in_record_order(self, tmp_path):
        """The assignment store is the service's one assignment consumer: a
        warm restart replays the persisted rows into it in the writer's
        record order, and later batches maintain it like a cold load."""
        schema, program = cascade_schema(), cascade_program()
        path = str(tmp_path / "replay.db")
        db = SQLiteDatabase(schema, path=path)
        db.insert_all(cascade_facts())
        service = RepairService(db, program)
        service.apply(deletes=[fact("E", 0, 1)])
        service.apply(inserts=[fact("E", 0, 1)])
        live = [a.signature() for a in service.assignments()]
        db.close()

        db2, warmed = self.reopen(path, schema, program)
        restored = [a.signature() for a in warmed.assignments()]
        # Exactly the live assignments, once each, in original record order
        # (persisted aids are monotone in record order).
        assert restored == live
        assert len(set(restored)) == len(restored)
        warmed.apply(deletes=[fact("E", 0, 1)])
        assert_matches_scratch(warmed, schema, program, "sqlite-file", tmp_path, "r1")
        warmed.apply(inserts=[fact("E", 0, 1)])
        assert_matches_scratch(warmed, schema, program, "sqlite-file", tmp_path, "r2")
        db2.close()

    def test_dirty_store_refuses_warm_restart(self, tmp_path):
        schema, program = cascade_schema(), cascade_program()
        path = str(tmp_path / "dirty.db")
        db = SQLiteDatabase(schema, path=path)
        db.insert_all(cascade_facts())
        RepairService(db, program)
        # Simulate a torn batch: the dirty flag never got cleared.
        db.set_assignment_meta("dirty", "1")
        db.close()

        db2 = SQLiteDatabase(schema, path=path)
        with pytest.raises(EvaluationError, match="warm-restart"):
            RepairService(db2, program)
        db2.close()

    def test_program_mismatch_refuses_warm_restart(self, tmp_path):
        schema, program = cascade_schema(), cascade_program()
        path = str(tmp_path / "prog.db")
        db = SQLiteDatabase(schema, path=path)
        db.insert_all(cascade_facts())
        RepairService(db, program)
        db.close()

        other = DeltaProgram.from_text("delta N(x) :- N(x), S(x).")
        assert program_fingerprint(list(other)) != program_fingerprint(list(program))
        db2 = SQLiteDatabase(schema, path=path)
        with pytest.raises(EvaluationError, match="warm-restart"):
            RepairService(db2, other)
        db2.close()

    def test_cold_load_resets_stale_persisted_store(self, tmp_path):
        """An empty-delta database with leftover assign tables reloads cleanly."""
        schema, program = cascade_schema(), cascade_program()
        path = str(tmp_path / "stale.db")
        db = SQLiteDatabase(schema, path=path)
        db.insert_all(cascade_facts())
        service = RepairService(db, program)
        # Wipe the maintained closure but leave the assign tables behind.
        for item in list(db.all_deltas()):
            db.retract_delta(item)
        db.close()

        db2 = SQLiteDatabase(schema, path=path)
        reloaded = RepairService(db2, program)
        assert reloaded.load_engine != ENGINE_WARM
        assert len(reloaded.assignments()) == len(service.assignments())
        row = db2.execute("SELECT COUNT(*) FROM _repro_assign").fetchone()
        assert row[0] == len(reloaded.assignments())
        db2.close()


# ---------------------------------------------------------------------------
# Counting-based deletion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestCountingDeletion:
    def test_fast_path_skips_dred(self, backend, tmp_path):
        schema, program = redundant_schema(), redundant_program()
        db = make_db(backend, schema, redundant_facts(), tmp_path, "cnt")
        service = RepairService(db, program)
        stats = service.stats
        # N(0) is seeded by both S(0) and T(0): deleting T(0) kills the
        # T-derivation but the S-derivation keeps a base-only support alive,
        # so the whole batch is decided by counts — no over-delete at all.
        result = service.apply(deletes=[fact("T", 0)])
        assert stats.counted_deletes == 1
        assert stats.dred_fallbacks == 0
        assert result.overdeleted == 0 and result.retracted == frozenset()
        assert service.is_derivable(fact("N", 4))
        assert_matches_scratch(service, schema, program, backend, tmp_path, "c0")
        # Deleting the last seed cannot be decided by counts: exact DRed runs
        # and retracts the whole cascade.
        service.apply(deletes=[fact("S", 0)])
        assert stats.dred_fallbacks == 1
        assert not service.is_derivable(fact("N", 0))
        assert_matches_scratch(service, schema, program, backend, tmp_path, "c1")
        if isinstance(db, SQLiteDatabase):
            db.close()

    def test_counting_disabled_forces_exact_dred(self, backend, tmp_path):
        schema, program = redundant_schema(), redundant_program()
        db = make_db(backend, schema, redundant_facts(), tmp_path, "nocnt")
        service = RepairService(db, program, counting=False)
        result = service.apply(deletes=[fact("T", 0)])
        assert service.stats.counted_deletes == 0
        assert service.stats.dred_fallbacks == 0
        # Exact DRed over-deletes and re-derives instead of skipping.
        assert result.overdeleted > 0 and result.rederived == result.overdeleted
        assert_matches_scratch(service, schema, program, backend, tmp_path, "n0")
        if isinstance(db, SQLiteDatabase):
            db.close()

    def test_randomized_counting_equivalence(self, backend, tmp_path):
        """counting=True and counting=False stay state-identical batch by batch."""
        schema, program = redundant_schema(), redundant_program()
        counted = RepairService(
            make_db(backend, schema, redundant_facts(6), tmp_path, "eqA"),
            program,
        )
        exact = RepairService(
            make_db(backend, schema, redundant_facts(6), tmp_path, "eqB"),
            program,
            counting=False,
        )
        rng = random.Random(11)
        for batch in range(14):
            inserts, deletes = [], []
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.4:
                    deletes.append(fact("T", rng.randint(0, 2)))
                elif roll < 0.6:
                    deletes.append(fact("E", rng.randint(0, 5), rng.randint(0, 6)))
                else:
                    deletes.append(fact("S", rng.randint(0, 2)))
            for _ in range(rng.randint(0, 2)):
                roll = rng.random()
                if roll < 0.5:
                    inserts.append(fact("T", rng.randint(0, 2)))
                else:
                    inserts.append(fact("S", rng.randint(0, 2)))
            counted.apply(inserts=inserts, deletes=deletes)
            exact.apply(inserts=inserts, deletes=deletes)
            assert labelled_deltas(counted.db) == labelled_deltas(exact.db)
            assert {a.signature() for a in counted.assignments()} == {
                a.signature() for a in exact.assignments()
            }
            assert counted.repair_deleted() == exact.repair_deleted()
            assert_matches_scratch(
                counted, schema, program, backend, tmp_path, f"eq{batch}",
            )
        # The redundant seeds make some batches decidable by counts alone.
        assert counted.stats.counted_deletes > 0
        assert exact.stats.counted_deletes == 0
        for service in (counted, exact):
            if isinstance(service.db, SQLiteDatabase):
                service.db.close()


# ---------------------------------------------------------------------------
# Multi-tenant batch coalescing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestApplyMany:
    def make_service(self, backend, tmp_path, tag="many"):
        schema, program = cascade_schema(), cascade_program()
        db = make_db(backend, schema, cascade_facts(), tmp_path, tag)
        return RepairService(db, program), schema, program

    def test_coalesced_batches_match_scratch(self, backend, tmp_path):
        service, schema, program = self.make_service(backend, tmp_path)
        result = service.apply_many(
            [
                ([fact("E", 8, 2)], [fact("E", 2, 3)]),
                ([fact("N", 9), fact("E", 3, 9)], []),
                ([], [fact("E", 7, 8), fact("N", 7)]),
            ],
        )
        # One maintenance pass for all three tenants.
        assert service.stats.maintained_batches == 1
        assert {(f.relation, f.values) for f in result.inserted} == {
            ("E", (8, 2)),
            ("N", (9,)),
            ("E", (3, 9)),
        }
        assert {(f.relation, f.values) for f in result.deleted} == {
            ("E", (2, 3)),
            ("E", (7, 8)),
            ("N", (7,)),
        }
        assert_matches_scratch(service, schema, program, backend, tmp_path, "m0")
        if isinstance(service.db, SQLiteDatabase):
            service.db.close()

    def test_insert_wins_within_tenant_later_tenant_overrides(
        self, backend, tmp_path,
    ):
        service, schema, program = self.make_service(backend, tmp_path, "wins")
        # Tenant 1 deletes and inserts E(0,1): insert wins -> stays present.
        # Tenant 1 inserts E(1,2); tenant 2 deletes it: later tenant wins.
        service.apply_many(
            [
                ([fact("E", 0, 1)], [fact("E", 0, 1), fact("E", 1, 2)]),
                ([], [fact("E", 1, 2)]),
            ],
        )
        assert service.db.has_active(fact("E", 0, 1))
        assert not service.db.has_active(fact("E", 1, 2))
        assert_matches_scratch(service, schema, program, backend, tmp_path, "m1")
        if isinstance(service.db, SQLiteDatabase):
            service.db.close()

    def test_apply_many_equals_sequential_value_level(self, backend, tmp_path):
        coalesced, schema, program = self.make_service(backend, tmp_path, "seqA")
        sequential, _, _ = self.make_service(backend, tmp_path, "seqB")
        tenants = [
            ([fact("E", 8, 2)], [fact("E", 2, 3)]),
            ([], [fact("S", 0)]),
            ([fact("S", 0), fact("E", 2, 3)], []),
        ]
        coalesced.apply_many(tenants)
        for inserts, deletes in tenants:
            sequential.apply(inserts=inserts, deletes=deletes)
        assert {(r, v) for r, v, _ in labelled_deltas(coalesced.db)} == {
            (r, v) for r, v, _ in labelled_deltas(sequential.db)
        }
        assert coalesced.repair_deleted() == sequential.repair_deleted()
        for service in (coalesced, sequential):
            if isinstance(service.db, SQLiteDatabase):
                service.db.close()


# ---------------------------------------------------------------------------
# max_rounds threading + poisoned service
# ---------------------------------------------------------------------------


def chain_batch(length):
    """An insert batch whose propagation walks one chain hop per round."""
    inserts = [fact("E", i, i + 1) for i in range(length)]
    inserts += [fact("N", i) for i in range(1, length + 1)]
    return inserts


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestMaxRoundsAndPoisoning:
    def make_service(self, backend, tmp_path, **kwargs):
        schema, program = cascade_schema(), cascade_program()
        facts = [fact("N", 0), fact("S", 0)]
        db = make_db(backend, schema, facts, tmp_path, "cap")
        return RepairService(db, program, **kwargs), schema, program

    def test_max_rounds_caps_maintenance_batches(self, backend, tmp_path):
        service, _, _ = self.make_service(backend, tmp_path, max_rounds=3)
        with pytest.raises(EvaluationError, match="did not converge within 3"):
            service.apply(inserts=chain_batch(10))

    def test_uncapped_service_absorbs_the_same_batch(self, backend, tmp_path):
        service, schema, program = self.make_service(backend, tmp_path)
        result = service.apply(inserts=chain_batch(10))
        assert result.rounds > 3
        assert service.is_derivable(fact("N", 10))

    def test_failed_batch_poisons_the_service(self, backend, tmp_path):
        service, _, _ = self.make_service(backend, tmp_path, max_rounds=3)
        assert not service.poisoned
        with pytest.raises(EvaluationError):
            service.apply(inserts=chain_batch(10))
        assert service.poisoned
        # Every later entry point raises the dedicated error, which names
        # both recovery routes.
        for call in (
            lambda: service.apply(inserts=[fact("N", 50)]),
            lambda: service.apply_many([([fact("N", 50)], [])]),
            lambda: service.is_derivable(fact("N", 0)),
            lambda: service.in_repair(fact("N", 0)),
            lambda: service.repair_deleted(),
        ):
            with pytest.raises(ServicePoisonedError, match="re-derive"):
                call()


def test_poisoned_file_store_refuses_warm_restart(tmp_path):
    schema, program = cascade_schema(), cascade_program()
    path = str(tmp_path / "poison.db")
    db = SQLiteDatabase(schema, path=path)
    db.insert_all([fact("N", 0), fact("S", 0)])
    service = RepairService(db, program, max_rounds=3)
    with pytest.raises(EvaluationError):
        service.apply(inserts=chain_batch(10))
    assert service.poisoned
    db.close()
    # The dirty flag persisted: the torn on-disk state is not trusted.
    db2 = SQLiteDatabase(schema, path=path)
    with pytest.raises(EvaluationError, match="warm-restart"):
        RepairService(db2, program)
    db2.close()
