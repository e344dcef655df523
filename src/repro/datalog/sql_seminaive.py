"""Semi-naive, frontier-window fixpoint evaluation inside SQLite.

SQL-level counterpart of :mod:`repro.datalog.seminaive`: the same stage-style,
delta-driven closure, but with the frontier kept *inside* the database.  Every
relation's delta extent is mirrored by a generation-stamped frontier table
(``f_R``, see :mod:`repro.storage.sqlite_backend`), and one round's frontier is
simply the half-open generation window ``(lo, hi]``:

* round 1 evaluates every rule once, all delta atoms bounded by the
  generations already recorded (``gen <= :hi``);
* every later round re-enters only the delta rules, through the
  delta-rewritten variants of :func:`~repro.datalog.sql_compiler.compile_frontier_rule`
  — one per delta atom, seeding that atom from the window and stratifying the
  other delta atoms by rank (pre-seed ranks read ``gen <= :lo``, later ranks
  ``gen <= :hi``), so each new assignment is enumerated exactly once;
* derived head facts are installed by ``INSERT OR IGNORE ... SELECT`` with the
  round's fresh generation stamp — deduplication and installation never leave
  SQLite, and the install statements' change counts double as the emptiness
  test for the next round's frontier.

Single-pass rounds
------------------

Each variant's body join runs **exactly once per round**.  Which of the two
execution forms runs depends on whether anything consumes the assignments:

* **fast path** — no ``on_assignment`` hook and ``collect_assignments=False``:
  the driver runs only the variant's
  :attr:`~repro.datalog.sql_compiler.FrontierQuery.install_sql`.  One join,
  zero rows crossing into Python;
* **staged path** — the hook or the collection needs the assignments: the
  driver inserts the join's rows into the **persistent keyed stage table** of
  the variant's width (:func:`~repro.storage.sqlite_backend.stage_table_name`,
  created at most once per connection by ``SQLiteDatabase.ensure_stage_table``),
  keyed by the variant's ``variant_id``.  The per-round cycle is ``DELETE`` the
  variant's key, ``INSERT ... SELECT`` the join, read the staged rows back for
  the assignment collection and the ``on_assignment`` hook in bounded
  :data:`STAGE_REPLAY_CHUNK`-row batches (:func:`staged_row_batches` — very
  large staged row sets never cross into Python as one round trip), and
  install the head facts from the *same* staged rows via
  ``staged_install_sql`` — the join is never re-run for the install and
  **steady-state rounds issue zero DDL** (no ``DROP TABLE``/``CREATE TEMP
  TABLE`` after the first staging of each width).

With ``delete_derived=True`` (stage semantics) each round's derived facts
also leave the active extent: after the round's
:func:`~repro.datalog.sql_compiler.delta_copy_sql`, one
:func:`~repro.datalog.sql_compiler.active_delete_sql` per head relation with
new rows deletes that generation from ``r_R``, still without a row reaching
Python.  The loop then continues while the previous round derived any fact,
so ``rounds`` counts the final stage that changes nothing (see
:mod:`repro.datalog.seminaive`).

Maintenance discovery (:func:`seeded_assignments_sql`) has a single consumer,
so it streams a plain single-pass SELECT and materialises nothing (the joins
are counted in ``stats.assignment_selects`` when a context is present).

A shared :class:`~repro.datalog.context.EvalContext` supplies compiled
variants cached across runs (one ``RepairEngine.compare()`` compiles each rule
once for all four semantics) and the
:class:`~repro.datalog.context.QueryStats` counters the staging tests assert
on.  Only the *new* assignments of each round cross the boundary — the naive
SQL loop re-fetches every assignment ever derivable at every round.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.datalog.ast import Program, Rule
from repro.datalog.context import EvalContext
from repro.datalog.evaluation import Assignment, ClosureResult, ENGINE_SEMI_NAIVE
from repro.datalog.sql_compiler import (
    active_delete_sql,
    assignments_from_rows,
    compile_frontier_rule,
    delta_copy_sql,
)
from repro.exceptions import EvaluationError
from repro.storage.sqlite_backend import SQLiteDatabase


#: Staged rows are read back into Python in bounded chunks of this many rows
#: (``cursor.fetchmany``) instead of one unbounded fetch: a very large staged
#: row set — a deep cascade can stage hundreds of thousands of rows in one
#: round — never materialises as a single Python list, and each chunk is
#: accounted in :attr:`~repro.datalog.context.QueryStats.replay_batches`.
STAGE_REPLAY_CHUNK = 10_000


def _variants(rule: Rule, context: EvalContext | None):
    """Compiled ``(full, seeded)`` variants, via the context cache when given."""
    if context is not None:
        return context.frontier_variants(rule)
    return compile_frontier_rule(rule)


def staged_row_batches(cursor, context: EvalContext):
    """Yield the cursor's rows in :data:`STAGE_REPLAY_CHUNK`-bounded batches.

    The batched replay of the staged path: row order is exactly the cursor's
    order (each batch is a consecutive slice), so ``on_assignment`` delivery
    order is unchanged — only the peak Python-side materialisation is bounded.
    Every non-empty batch bumps ``stats.replay_batches``.
    """
    while True:
        batch = cursor.fetchmany(STAGE_REPLAY_CHUNK)
        if not batch:
            return
        context.stats.replay_batches += 1
        yield batch


def seeded_assignments_sql(
    db: SQLiteDatabase,
    rule: Rule,
    lo: int,
    hi: int,
    context: EvalContext | None = None,
) -> Iterator[Assignment]:
    """Assignments of ``rule`` using at least one frontier fact of ``(lo, hi]``.

    Mirror of :func:`repro.datalog.seminaive.seeded_assignments` with the
    frontier expressed as a generation window; each qualifying assignment is
    produced exactly once (rank-stratified variants partition the space by the
    first delta atom falling inside the window).  This is the maintenance
    discovery path: it only enumerates (no install), streaming each variant's
    plain SELECT, counted in ``stats.assignment_selects`` under a context.
    """
    _, seeded = _variants(rule, context)
    for variant in seeded:
        if variant.wcoj_index_sql:
            db.ensure_wcoj_indexes(variant.wcoj_index_sql)
        rows = db.execute(variant.sql, variant.bind(lo=lo, hi=hi))
        if context is not None:
            context.stats.assignment_selects += 1
        yield from assignments_from_rows(rule, variant.atom_arities, rows)


def sql_semi_naive_closure(
    db: SQLiteDatabase,
    program: Program | Iterable[Rule],
    on_assignment=None,
    max_rounds: int | None = None,
    collect_assignments: bool = True,
    context: EvalContext | None = None,
    delete_derived: bool = False,
) -> ClosureResult:
    """Derive all delta facts of ``db`` under ``program`` to fixpoint.

    Equivalent to the naive SQL closure (same delta facts; same assignments
    and exactly-once ``on_assignment`` calls whenever assignments are
    observed) and to the in-memory semi-naive engine (same stage-style round
    count, same ``delete_derived`` rounds), but incremental after round 1 and
    with every variant's join evaluated once per round (see module
    docstring).  With ``collect_assignments=False`` the returned
    :class:`~repro.datalog.evaluation.ClosureResult` carries an empty
    assignment list; combined with no ``on_assignment`` hook this enables the
    install-only fast path.
    """
    ctx = context if context is not None else EvalContext()
    rules = list(program)
    delta_rules = [rule for rule in rules if any(atom.is_delta for atom in rule.body)]
    #: Relations whose frontier can re-enter some rule.
    watched = {
        atom.relation for rule in delta_rules for atom in rule.body if atom.is_delta
    }
    heads = {rule.head.relation: rule.head.arity for rule in rules}
    copy_statements = {
        name: delta_copy_sql(name, arity) for name, arity in heads.items()
    }
    delete_statements = {
        name: active_delete_sql(name, arity) for name, arity in heads.items()
    }
    observing = collect_assignments or on_assignment is not None

    all_assignments: List[Assignment] = []
    seen_signatures: set[tuple] = set()

    def record(assignment: Assignment) -> None:
        signature = assignment.signature()
        if signature in seen_signatures:
            return
        seen_signatures.add(signature)
        if collect_assignments:
            all_assignments.append(assignment)
        if on_assignment is not None:
            on_assignment(assignment)

    def run_variant(rule: Rule, variant, window: Dict[str, int], gen: int,
                    new_by_relation: Dict[str, int],) -> None:
        """Evaluate one variant's join once, feeding the consumers and the
        install."""
        if variant.wcoj_index_sql:
            db.ensure_wcoj_indexes(variant.wcoj_index_sql)
        if observing:
            # Stage the join's rows under the variant's key (DDL at most once
            # per width and connection), then read them back for the
            # consumers; the install below scans the same staged rows.
            if db.ensure_stage_table(variant.stage_width):
                ctx.stats.stage_ddl += 1
            db.execute(variant.stage_delete_sql, variant.bind())
            db.execute(variant.staged_insert_sql, variant.bind(**window))
            ctx.stats.staged_selects += 1
            rows = db.execute(variant.staged_rows_sql, variant.bind())
            for batch in staged_row_batches(rows, ctx):
                for assignment in assignments_from_rows(
                    rule, variant.atom_arities, batch,
                ):
                    record(assignment)
            cursor = db.execute(variant.staged_install_sql, variant.bind(gen=gen))
            ctx.stats.staged_installs += 1
            # Drop the consumed rows so a finished closure leaves the keyed
            # stage tables empty (they persist for the connection's lifetime).
            db.execute(variant.stage_delete_sql, variant.bind())
        else:
            cursor = db.execute(variant.install_sql, variant.bind(gen=gen, **window))
            ctx.stats.direct_installs += 1
        if cursor.rowcount > 0:
            relation = rule.head.relation
            new_by_relation[relation] = (
                new_by_relation.get(relation, 0) + cursor.rowcount
            )

    def settle(new_by_relation: Dict[str, int], gen: int) -> None:
        """Promote the round's new rows into ``d_R`` (and, under
        ``delete_derived``, delete them from ``r_R``)."""
        for relation in new_by_relation:
            db.execute(copy_statements[relation], {"gen": gen})
            if delete_derived:
                db.execute(delete_statements[relation], {"gen": gen})

    rounds = 0

    def enter_round() -> None:
        nonlocal rounds
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise EvaluationError(
                f"closure did not converge within {max_rounds} rounds",
            )

    # Round 1: one full evaluation of every rule, bounded by the generations
    # present when the closure starts (installs during the round are stamped
    # later and stay invisible, preserving stage-style rounds).
    enter_round()
    hi = db.generation()
    gen = db.next_generation()
    new_by_relation: Dict[str, int] = {}
    for rule in rules:
        full, _ = _variants(rule, ctx)
        run_variant(rule, full, {"hi": hi}, gen, new_by_relation)
    settle(new_by_relation, gen)

    # Rounds 2..: re-enter delta rules only through the previous round's
    # frontier window (lo, hi].
    while any(new_by_relation.get(relation) for relation in watched) or (
        delete_derived and new_by_relation
    ):
        enter_round()
        lo, hi = hi, gen
        gen = db.next_generation()
        frontier = new_by_relation
        new_by_relation = {}
        for rule in delta_rules:
            _, seeded = _variants(rule, ctx)
            for variant in seeded:
                if not frontier.get(variant.seed_relation):
                    continue
                run_variant(
                    rule, variant, {"lo": lo, "hi": hi}, gen, new_by_relation,
                )
        settle(new_by_relation, gen)

    return ClosureResult(all_assignments, rounds, ENGINE_SEMI_NAIVE)
