"""Regression tests for the single-pass staged SQLite rounds.

The semi-naive SQL driver evaluates every rule variant's join exactly once per
round.  When the assignments are consumed (collected, or fed to an
``on_assignment`` hook) it stages the join's rows into a temp table and feeds
both the consumers and the install from the staged rows; otherwise it runs
the install directly (the fast path).  These tests pin down:

* staged rows vs the legacy re-SELECT double-pass: identical assignment
  multisets **including tid labels**, identical delta fixpoints;
* the consumer-free fast path: same fixpoint, zero assignment rows, zero
  ``assign-select``/``stage`` statements (verified by tag-counting hooks);
* empty-frontier rounds behave identically on both paths;
* the :class:`~repro.datalog.context.QueryStats` single-pass accounting;
* the bounded-chunk replay of the staged rows to ``on_assignment``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import pytest

from repro.datalog import DeltaProgram, EvalContext, run_closure, sql_seminaive
from repro.datalog.sql_compiler import (
    TAG_ASSIGN_SELECT,
    TAG_INSTALL_DIRECT,
    TAG_INSTALL_STAGED,
    TAG_STAGE,
    assignments_from_rows,
    compile_frontier_rule,
    delta_copy_sql,
)
from repro.storage.database import Database
from repro.storage.facts import fact
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import SQLiteDatabase

from tests.generators import paper_instance, random_instance

#: Seeds for the randomized staged-vs-reselect comparison.
SEEDS = tuple(range(12))


def tag_counter(db: SQLiteDatabase) -> Counter:
    """Install a statement hook counting the compiler's statement tags."""
    counts: Counter = Counter()

    def hook(sql: str) -> None:
        staging_tags = (
            TAG_ASSIGN_SELECT,
            TAG_STAGE,
            TAG_INSTALL_DIRECT,
            TAG_INSTALL_STAGED,
        )
        for tag in staging_tags:
            if tag in sql:
                counts[tag] += 1

    db.add_statement_hook(hook)
    return counts


def assignment_key(assignment) -> tuple:
    """Identity of one assignment *including* the tid labels of its rows."""
    return (
        assignment.signature(),
        tuple(item.tid for item in assignment.all_facts()),
    )


def reselect_closure(db: SQLiteDatabase, program: DeltaProgram):
    """The legacy double-pass driver: assignment SELECT + separate install.

    Re-implements the pre-staging loop from the same compiled variants
    (``variant.sql`` then ``variant.install_sql``, both running the body
    join), serving as the oracle the staged rows must match row-for-row.
    """
    rules = list(program)
    delta_rules = [r for r in rules if any(a.is_delta for a in r.body)]
    watched = {a.relation for r in delta_rules for a in r.body if a.is_delta}
    copy_statements = {
        r.head.relation: delta_copy_sql(r.head.relation, r.head.arity) for r in rules
    }
    assignments: List = []
    seen: set = set()

    def record(assignment) -> None:
        signature = assignment.signature()
        if signature not in seen:
            seen.add(signature)
            assignments.append(assignment)

    def install(rule, variant, window, gen, new_by_relation) -> None:
        cursor = db.execute(variant.install_sql, variant.bind(gen=gen, **window))
        if cursor.rowcount > 0:
            relation = rule.head.relation
            seen = new_by_relation.get(relation, 0)
            new_by_relation[relation] = seen + cursor.rowcount

    rounds = 0
    hi = db.generation()
    gen = db.next_generation()
    new_by_relation: Dict[str, int] = {}
    rounds += 1
    for rule in rules:
        full, _ = compile_frontier_rule(rule)
        cursor = db.execute(full.sql, full.bind(hi=hi))
        for assignment in assignments_from_rows(rule, full.atom_arities, cursor):
            record(assignment)
        install(rule, full, {"hi": hi}, gen, new_by_relation)
    for relation in new_by_relation:
        db.execute(copy_statements[relation], {"gen": gen})
    while any(new_by_relation.get(relation) for relation in watched):
        rounds += 1
        lo, hi = hi, gen
        gen = db.next_generation()
        frontier, new_by_relation = new_by_relation, {}
        for rule in delta_rules:
            _, seeded = compile_frontier_rule(rule)
            for variant in seeded:
                if not frontier.get(variant.seed_relation):
                    continue
                cursor = db.execute(variant.sql, variant.bind(lo=lo, hi=hi))
                for assignment in assignments_from_rows(
                    rule, variant.atom_arities, cursor,
                ):
                    record(assignment)
                install(rule, variant, {"lo": lo, "hi": hi}, gen, new_by_relation)
        for relation in new_by_relation:
            db.execute(copy_statements[relation], {"gen": gen})
    return assignments, rounds


def cascade_fixture():
    """The empty-frontier-round cascade from the backend edge-case tests."""
    schema = Schema.from_relations(
        [RelationSchema.of("R", "x:int", "y:str"), RelationSchema.of("S", "x:int")],
    )
    db = SQLiteDatabase(schema)
    db.insert_all(
        [fact("R", 1, "a", tid="r1"), fact("R", 2, "b", tid="r2"), fact("S", 1, tid="s1")],
    )
    program = DeltaProgram.from_text(
        """
        delta R(x, y) :- R(x, y), S(x).
        delta S(x) :- S(x), delta R(x, y).
        delta R(x, y) :- R(x, y), delta S(x).
        """,
    )
    return db, program


class TestStagedMatchesReselect:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_instances_same_assignments_and_tids(self, seed):
        memory, program = random_instance(seed, max_facts=25)
        base = SQLiteDatabase.from_database(memory)

        staged_db = base.clone()
        staged = run_closure(staged_db, program, engine="semi-naive")
        reselect_db = base.clone()
        legacy, legacy_rounds = reselect_closure(reselect_db, program)

        assert Counter(assignment_key(a) for a in staged.assignments) == Counter(
            assignment_key(a) for a in legacy
        )
        assert staged.rounds == legacy_rounds
        assert set(staged_db.all_deltas()) == set(reselect_db.all_deltas())

    def test_paper_instance_tids_flow_through_stage(self):
        memory, program = paper_instance()
        base = SQLiteDatabase.from_database(memory)
        staged = run_closure(base.clone(), program, engine="semi-naive")
        legacy, _ = reselect_closure(base.clone(), program)
        assert Counter(assignment_key(a) for a in staged.assignments) == Counter(
            assignment_key(a) for a in legacy
        )
        # The paper instance carries human-readable tids; they must survive
        # the temp-table round trip.
        tids = {
            item.tid
            for assignment in staged.assignments
            for item in assignment.all_facts()
        }
        assert tids - {None}

    def test_empty_frontier_rounds_identical(self):
        db, program = cascade_fixture()
        staged_db = db.clone()
        staged = run_closure(staged_db, program, engine="semi-naive")
        legacy_db = db.clone()
        legacy, legacy_rounds = reselect_closure(legacy_db, program)
        # Round 3 re-derives only known facts (empty frontier afterwards).
        assert staged.rounds == legacy_rounds == 3
        assert Counter(assignment_key(a) for a in staged.assignments) == Counter(
            assignment_key(a) for a in legacy
        )
        assert set(staged_db.all_deltas()) == set(legacy_db.all_deltas())


class TestFastPath:
    def test_no_observer_skips_staging_and_selects(self):
        db, program = cascade_fixture()
        fast_db = db.clone()
        counts = tag_counter(fast_db)
        ctx = EvalContext()
        result = run_closure(
            fast_db, program, engine="semi-naive",
            collect_assignments=False, context=ctx,
        )
        assert result.assignments == []
        assert counts[TAG_ASSIGN_SELECT] == 0
        assert counts[TAG_STAGE] == 0
        assert counts[TAG_INSTALL_STAGED] == 0
        assert counts[TAG_INSTALL_DIRECT] > 0
        assert ctx.stats.direct_installs == counts[TAG_INSTALL_DIRECT]
        assert ctx.stats.staged_selects == 0
        # Same fixpoint and round count as the observed run.
        observed_db = db.clone()
        observed = run_closure(observed_db, program, engine="semi-naive")
        assert result.rounds == observed.rounds == 3
        assert set(fast_db.all_deltas()) == set(observed_db.all_deltas())

    def test_on_assignment_hook_forces_staging(self):
        db, program = cascade_fixture()
        working = db.clone()
        counts = tag_counter(working)
        seen: List = []
        run_closure(
            working, program, engine="semi-naive",
            on_assignment=seen.append, collect_assignments=False,
        )
        assert seen
        assert counts[TAG_STAGE] > 0
        assert counts[TAG_ASSIGN_SELECT] == 0
        assert counts[TAG_INSTALL_DIRECT] == 0

    def test_empty_frontier_rounds_on_fast_path(self):
        # A closure whose final round installs nothing must terminate with
        # the same round count on both paths (the install change counts are
        # the only emptiness signal on the fast path).
        db, program = cascade_fixture()
        fast_db = db.clone()
        fast = run_closure(
            fast_db, program, engine="semi-naive", collect_assignments=False,
        )
        assert fast.rounds == 3
        assert set(fast_db.all_deltas()) == {fact("R", 1, "a"), fact("S", 1)}


class TestSinglePassAccounting:
    def test_staged_run_never_reruns_the_join(self):
        db, program = cascade_fixture()
        working = db.clone()
        counts = tag_counter(working)
        ctx = EvalContext()
        run_closure(working, program, engine="semi-naive", context=ctx)
        # One staged CREATE per executed variant, one staged install each,
        # and not a single assignment re-SELECT or direct install.
        assert counts[TAG_STAGE] == counts[TAG_INSTALL_STAGED] > 0
        assert counts[TAG_ASSIGN_SELECT] == 0
        assert counts[TAG_INSTALL_DIRECT] == 0
        assert ctx.stats.staged_selects == counts[TAG_STAGE]
        assert ctx.stats.staged_installs == counts[TAG_INSTALL_STAGED]

    def test_fast_and_staged_paths_run_equally_many_joins(self):
        db, program = cascade_fixture()
        staged_ctx, fast_ctx = EvalContext(), EvalContext()
        run_closure(db.clone(), program, engine="semi-naive", context=staged_ctx)
        run_closure(
            db.clone(), program, engine="semi-naive",
            collect_assignments=False, context=fast_ctx,
        )
        assert staged_ctx.stats.joins() == fast_ctx.stats.joins() > 0

    def test_context_shares_compiled_variants_across_runs(self):
        db, program = cascade_fixture()
        ctx = EvalContext()
        run_closure(db.clone(), program, engine="semi-naive", context=ctx)
        compiles_after_first = ctx.stats.variant_compiles
        assert compiles_after_first == len(list(program))
        run_closure(db.clone(), program, engine="semi-naive", context=ctx)
        assert ctx.stats.variant_compiles == compiles_after_first

    def test_discovery_without_context_stays_plain_selects(self):
        from repro.datalog.sql_seminaive import seeded_assignments_sql

        db, program = cascade_fixture()
        run_closure(db, program, engine="semi-naive", collect_assignments=False)
        counts = tag_counter(db)
        plain = [
            a
            for rule in program
            for a in seeded_assignments_sql(db, rule, 0, db.generation())
        ]
        assert plain
        assert counts[TAG_ASSIGN_SELECT] > 0
        assert counts[TAG_STAGE] == 0


class TestBatchedObserverReplay:
    """Staged rows reach ``on_assignment`` in bounded chunks, order preserved."""

    def _wide_instance(self):
        # One variant staging 20 rows in a single round, so a small chunk
        # size forces several batches for one staged install.
        schema = Schema.from_arities({"R": 2, "S": 1})
        db = Database.from_dicts(
            schema,
            {"R": [(i, i % 5) for i in range(20)], "S": [(i,) for i in range(5)]},
        )
        program = DeltaProgram.from_text("delta R(x, y) :- R(x, y), S(y).")
        return db, program

    def _cascade_instance(self):
        # A two-relation cascade deep enough for several frontier rounds.
        schema = Schema.from_relations(
            [
                RelationSchema.of("E", "x:int", "y:int"),
                RelationSchema.of("N", "x:int"),
            ],
        )
        edges = [(i, i + 1) for i in range(12)] + [(i, i + 2) for i in range(0, 10, 2)]
        db = Database.from_dicts(
            schema, {"E": edges, "N": [(i,) for i in range(14)]},
        )
        program = DeltaProgram.from_text(
            """
            delta N(x) :- N(x), x = 0.
            delta E(x, y) :- E(x, y), delta N(x).
            delta N(y) :- N(y), E(x, y), delta E(x, y).
            """,
        )
        return db, program

    def _staged_stream(self, base, program):
        db = SQLiteDatabase.from_database(base)
        ctx = EvalContext()
        delivered = []
        result = run_closure(
            db, program, engine="semi-naive", on_assignment=delivered.append,
            context=ctx,
        )
        db.close()
        return delivered, result, ctx

    def test_chunked_replay_preserves_order_and_multiset(self, monkeypatch):
        base, program = self._wide_instance()
        reference, ref_result, ref_ctx = self._staged_stream(base, program)
        assert len(reference) == 20
        monkeypatch.setattr(sql_seminaive, "STAGE_REPLAY_CHUNK", 3)
        chunked, result, ctx = self._staged_stream(base, program)
        # 20 rows in chunks of 3 → 7 batches where the default chunk took 1.
        assert ctx.stats.replay_batches > ref_ctx.stats.replay_batches > 0
        assert [a.signature() for a in chunked] == [a.signature() for a in reference]
        assert [a.signature() for a in result.assignments] == [
            a.signature() for a in ref_result.assignments
        ]

    def test_chunked_replay_in_deep_cascade(self, monkeypatch):
        base, program = self._cascade_instance()
        reference, _, _ = self._staged_stream(base, program)
        monkeypatch.setattr(sql_seminaive, "STAGE_REPLAY_CHUNK", 2)
        chunked, _, ctx = self._staged_stream(base, program)
        assert ctx.stats.replay_batches > 0
        assert [a.signature() for a in chunked] == [a.signature() for a in reference]
