"""Incremental maintenance tests: RepairService under insert/delete streams.

The central contract (ISSUE 7 / ROADMAP open item 2): after **any** sequence
of insert/delete batches, the maintained state — active extents, delta
closure with tids, satisfying assignments, repair outcome — equals a
from-scratch fixpoint on the resulting base instance, on both backends.
Alongside the randomized differential, targeted tests pin the DRed
over-delete / re-derive behaviour (cascade retraction, rescue through an
alternate derivation, re-insertion through a fresh frontier entry), the
maintenance counters, the point queries, and the exactly-once assignment
store across load + batches.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import run_closure
from repro.exceptions import EvaluationError
from repro.service import MaintenanceResult, RepairService
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
    """A guarded recursive cascade: S seeds N, deletions flow along E."""
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


def make_db(backend, schema, facts, tmp_path=None, tag=""):
    if backend == "memory":
        return Database.from_facts(schema, facts)
    path = ":memory:" if backend == "sqlite" else str(tmp_path / f"inc_{tag}.db")
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
    """The maintained state must equal a from-scratch fixpoint on the same
    backend over the current base instance — closures, tids, assignments,
    and repair outcomes."""
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


@pytest.mark.parametrize("backend", BACKENDS)
class TestRandomizedDifferential:
    def test_random_batches_match_scratch_fixpoint(self, backend, tmp_path):
        schema, program = cascade_schema(), cascade_program()
        db = make_db(backend, schema, cascade_facts(), tmp_path, "rand")
        service = RepairService(db, program)
        assert_matches_scratch(service, schema, program, backend, tmp_path, "r0")

        rng = random.Random(7)
        for batch in range(12):
            inserts, deletes = [], []
            for _ in range(rng.randint(0, 3)):
                deletes.append(fact("E", rng.randint(0, 8), rng.randint(0, 8)))
                if rng.random() < 0.4:
                    deletes.append(fact("N", rng.randint(0, 8)))
            for _ in range(rng.randint(0, 3)):
                inserts.append(fact("E", rng.randint(0, 8), rng.randint(0, 8)))
                if rng.random() < 0.4:
                    inserts.append(fact("N", rng.randint(0, 8)))
            if rng.random() < 0.2:
                deletes.append(fact("S", 0))
            if rng.random() < 0.3:
                inserts.append(fact("S", 0))
            service.apply(inserts=inserts, deletes=deletes)
            assert_matches_scratch(
                service, schema, program, backend, tmp_path, f"r{batch + 1}",
            )
        assert service.stats.maintained_batches == 12
        if isinstance(db, SQLiteDatabase):
            db.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestMaintenanceBehaviour:
    def make_service(self, backend, tmp_path, facts=None):
        schema, program = cascade_schema(), cascade_program()
        db = make_db(
            backend, schema, cascade_facts() if facts is None else facts, tmp_path, "svc",
        )
        return RepairService(db, program), schema, program

    def test_load_requires_empty_delta(self, backend, tmp_path):
        schema, program = cascade_schema(), cascade_program()
        db = make_db(backend, schema, cascade_facts(), tmp_path, "dirty")
        db.mark_deleted(fact("N", 0))
        with pytest.raises(EvaluationError):
            RepairService(db, program)

    def test_point_queries(self, backend, tmp_path):
        service, _, _ = self.make_service(backend, tmp_path)
        # 0 seeds the cascade: the whole 0->1->2->... chain is derivable.
        assert service.is_derivable(fact("N", 0))
        assert service.is_derivable(fact("N", 4))
        assert not service.in_repair(fact("N", 4))
        # 7 -> 8 is disconnected from the seed: never derived, survives.
        assert not service.is_derivable(fact("N", 7))
        assert service.in_repair(fact("N", 7))
        # Facts outside the base instance are neither derivable nor repaired.
        assert not service.is_derivable(fact("N", 99))
        assert not service.in_repair(fact("N", 99))

    def test_cascade_retraction(self, backend, tmp_path):
        service, _, _ = self.make_service(backend, tmp_path)
        assert service.is_derivable(fact("N", 3))
        # Cutting 2 -> 3 severs the only path to 3 and 4 (4 -> 2 is a back
        # edge), so both leave the closure and re-enter the repair.
        result = service.apply(deletes=[fact("E", 2, 3)])
        assert result.deleted and result.overdeleted > 0
        for node in (3, 4):
            assert not service.is_derivable(fact("N", node))
            assert service.in_repair(fact("N", node))
        # The strongly-connected 5/6 pair hangs off node 2, not 3: untouched.
        assert service.is_derivable(fact("N", 5))

    def test_rescue_through_alternate_derivation(self, backend, tmp_path):
        # Diamond: 0 -> 1 -> 3 and 0 -> 2 -> 3.  Deleting edge 1 -> 3
        # over-deletes N(3) but the 2 -> 3 derivation rescues it.
        facts = (
            [fact("E", 0, 1), fact("E", 0, 2), fact("E", 1, 3), fact("E", 2, 3)]
            + [fact("N", i) for i in range(4)]
            + [fact("S", 0)]
        )
        service, _, _ = self.make_service(backend, tmp_path, facts=facts)
        stats = service.stats
        result = service.apply(deletes=[fact("E", 1, 3)])
        assert result.overdeleted == 2  # delta E(1,3) and delta N(3)
        assert result.rederived == 1  # delta N(3) survives via 2 -> 3
        assert {(f.relation, f.values) for f in result.retracted} == {("E", (1, 3))}
        assert service.is_derivable(fact("N", 3))
        assert not service.is_derivable(fact("E", 1, 3))
        assert stats.overdeleted >= 2 and stats.rederived >= 1

    def test_reinsertion_rederives_through_fresh_frontier(self, backend, tmp_path):
        # Retract a chain, then re-insert the cut edge in a later batch: the
        # retracted facts must re-enter the frontier (the SQLite path must
        # re-stamp f_R) and the closure must be fully restored.
        service, schema, program = self.make_service(backend, tmp_path)
        before = labelled_deltas(service.db)
        service.apply(deletes=[fact("E", 0, 1)])
        assert not service.is_derivable(fact("N", 1))
        restored = service.apply(inserts=[fact("E", 0, 1)])
        assert restored.rounds >= 1
        assert {(r, v) for r, v, _ in labelled_deltas(service.db)} == {
            (r, v) for r, v, _ in before
        }
        assert service.is_derivable(fact("N", 4))

    def test_batches_are_idempotent_and_empty_batches_noop(self, backend, tmp_path):
        service, schema, program = self.make_service(backend, tmp_path)
        snapshot = labelled_deltas(service.db)
        result = service.apply()
        assert result == MaintenanceResult()
        # Inserting present facts / deleting absent ones changes nothing.
        result = service.apply(
            inserts=[fact("N", 0), fact("E", 0, 1)], deletes=[fact("E", 42, 43)],
        )
        assert result.inserted == () and result.deleted == ()
        assert result.overdeleted == 0 and result.rounds == 0
        assert labelled_deltas(service.db) == snapshot
        assert service.stats.maintained_batches == 2

    def test_insert_wins_when_batch_deletes_and_inserts_same_fact(
        self, backend, tmp_path,
    ):
        service, _, _ = self.make_service(backend, tmp_path)
        service.apply(deletes=[fact("E", 0, 1)], inserts=[fact("E", 0, 1)])
        assert service.db.has_active(fact("E", 0, 1))
        assert service.is_derivable(fact("N", 1))

    def test_observers_see_every_assignment_exactly_once(self, backend, tmp_path):
        # The assignment store is the service's one assignment consumer.
        service, _, _ = self.make_service(backend, tmp_path)
        load_sigs = [a.signature() for a in service.assignments()]
        assert load_sigs and len(set(load_sigs)) == len(load_sigs)
        service.apply(deletes=[fact("E", 0, 1)])
        # Deletions only remove; survivors keep their record order.
        kept = [a.signature() for a in service.assignments()]
        assert kept == [sig for sig in load_sigs if sig in set(kept)]
        assert len(kept) < len(load_sigs)
        service.apply(inserts=[fact("E", 0, 1)])
        # The re-insertion batch records each removed assignment exactly once
        # more, after the survivors; the closure is restored.
        live = [a.signature() for a in service.assignments()]
        assert live[: len(kept)] == kept
        recorded = live[len(kept):]
        assert len(set(recorded)) == len(recorded)
        assert set(recorded) == set(load_sigs) - set(kept)
