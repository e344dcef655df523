"""Stage semantics (Definition 3.7): semi-naive rounds with immediate deletion.

At every stage all satisfying assignments over the *current* state of the
database are evaluated, all the derived tuples are deleted together, and the
next stage starts from the updated state.  The evaluation is deterministic and
rule-order independent, and converges to a unique fixpoint (Proposition 3.9);
computing it is PTIME (Proposition 4.1).

Stage semantics models cascade deletions by SQL triggers that fire in rounds
(statement-level "after delete" triggers), as discussed in Section 3.4.

The default engine maintains the satisfying assignments *incrementally*
between stages instead of re-enumerating them: deleting a tuple can only
(a) void assignments that matched it through a base atom — tracked by an
assignment-per-base-fact index — and (b) enable assignments that match it
through a delta atom — discovered by seeding the rules from the frontier of
newly recorded deletions (:func:`repro.datalog.seminaive.seeded_assignments`
on in-memory databases, the generation-window SQL variants of
:func:`repro.datalog.sql_seminaive.seeded_assignments_sql` on SQLite-backed
ones).  ``engine="naive"`` keeps the re-evaluate-everything loop as the oracle.

Discovery always streams: plain single-pass SELECTs on SQLite, planned joins
in memory.  With a shared :class:`~repro.datalog.context.EvalContext` (e.g.
inside a ``RepairEngine.compare()`` run) both paths reuse the context's
compiled variants and join plans, and the in-memory planner re-costs its plans
at every stage boundary
(:meth:`~repro.datalog.planner.JoinPlanner.begin_round` — deletions shrink
extents, so cached orders go stale).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from repro.core.semantics.base import PHASE_EVAL, RepairResult, Semantics
from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import (
    ENGINE_AUTO,
    ENGINE_NAIVE,
    Assignment,
    find_assignments,
    resolve_engine,
)
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact
from repro.storage.sqlite_backend import SQLiteDatabase
from repro.utils.timing import PhaseTimer


def stage_semantics(
    db: BaseDatabase,
    program: DeltaProgram | Program | Iterable[Rule],
    timer: PhaseTimer | None = None,
    engine: str = ENGINE_AUTO,
    context=None,
) -> RepairResult:
    """Compute ``Stage(P, D)``.

    The input database is never modified; the returned result carries a
    repaired clone and the number of stages until the fixpoint.  ``context``
    (an :class:`~repro.datalog.context.EvalContext`) shares join plans /
    compiled SQL variants with other runs, e.g. the sibling semantics of one
    ``RepairEngine.compare()`` call.
    """
    timer = timer if timer is not None else PhaseTimer()
    rules = list(program)
    working = db.clone()
    resolved = resolve_engine(working, engine)
    deleted: set = set()
    with timer.phase(PHASE_EVAL):
        if resolved == ENGINE_NAIVE:
            stages = _stage_fixpoint_naive(working, rules, deleted)
        else:
            stages = _stage_fixpoint_incremental(working, rules, deleted, context)
    return RepairResult(
        semantics=Semantics.STAGE,
        deleted=frozenset(deleted),
        repaired=working,
        timer=timer,
        rounds=stages,
        metadata={"engine": resolved},
    )


def _apply_stage(
    working: BaseDatabase, derived_now: Set[Fact], deleted: set,
) -> tuple[bool, List[Fact]]:
    """Delete this stage's derived tuples; returns (changed, facts deleted from
    the active extent)."""
    # Only tuples still active lead to a state change.
    newly_deleted = {
        item
        for item in derived_now
        if working.has_active(item) or not working.has_delta(item)
    }
    changed = False
    dropped: List[Fact] = []
    for item in newly_deleted:
        was_active = working.has_active(item)
        if working.delete(item) or was_active:
            changed = True
        if was_active:
            deleted.add(item)
            dropped.append(item)
    return changed, dropped


def _stage_fixpoint_naive(
    working: BaseDatabase, rules: List[Rule], deleted: set,
) -> int:
    """The oracle loop: re-enumerate every rule at every stage."""
    stages = 0
    while True:
        stages += 1
        # Evaluate every rule against the state at the start of the stage.
        derived_now: Set[Fact] = set()
        for rule in rules:
            for assignment in find_assignments(working, rule):
                derived_now.add(assignment.derived)
        changed, _dropped = _apply_stage(working, derived_now, deleted)
        if not changed:
            break
    return stages


class _MemoryStageDiscovery:
    """Assignment discovery over the in-memory engine's planned joins."""

    def __init__(
        self, working: BaseDatabase, rules: List[Rule], context=None,
    ) -> None:
        from repro.datalog.planner import JoinPlanner
        from repro.datalog.seminaive import _FrontierTokens

        self._working = working
        self._rules = rules
        self._planner = (
            context.planner(working) if context is not None else JoinPlanner(working)
        )
        self._delta_rules = [
            rule for rule in rules if any(atom.is_delta for atom in rule.body)
        ]
        self._tokens = _FrontierTokens(working, self._delta_rules)

    def initial(self) -> Iterator[Assignment]:
        for rule in self._rules:
            yield from find_assignments(self._working, rule, planner=self._planner)

    def newly_enabled(self) -> Iterator[Assignment]:
        from repro.datalog.seminaive import seeded_assignments

        # Stage boundary: deletions changed the extents, so let the planner
        # re-cost any plan whose snapshot has drifted.
        self._planner.begin_round()
        frontier = self._tokens.advance()
        if frontier:
            for rule in self._delta_rules:
                yield from seeded_assignments(
                    self._working, rule, frontier, self._planner,
                )


class _SQLStageDiscovery:
    """Assignment discovery over the SQLite frontier tables.

    The frontier of one stage is the generation window recorded since the
    previous discovery call; the delta-rewritten variants enumerate exactly
    the assignments enabled by it, entirely via SQL joins.
    """

    def __init__(
        self, working: SQLiteDatabase, rules: List[Rule], context=None,
    ) -> None:
        self._working = working
        self._rules = rules
        self._context = context
        self._delta_rules = [
            rule for rule in rules if any(atom.is_delta for atom in rule.body)
        ]
        self._token = working.generation()

    def initial(self) -> Iterator[Assignment]:
        from repro.datalog.sql_seminaive import full_assignments_sql

        for rule in self._rules:
            yield from full_assignments_sql(
                self._working, rule, self._token, context=self._context,
            )

    def newly_enabled(self) -> Iterator[Assignment]:
        from repro.datalog.sql_seminaive import seeded_assignments_sql

        lo, self._token = self._token, self._working.generation()
        if lo == self._token:
            return
        for rule in self._delta_rules:
            yield from seeded_assignments_sql(
                self._working, rule, lo, self._token, context=self._context,
            )


def _stage_fixpoint_incremental(
    working: BaseDatabase, rules: List[Rule], deleted: set, context=None,
) -> int:
    """Delta-driven stages: maintain the live assignments across deletions."""
    if isinstance(working, SQLiteDatabase):
        discovery = _SQLStageDiscovery(working, rules, context)
    else:
        discovery = _MemoryStageDiscovery(working, rules, context)

    live: Dict[tuple, Assignment] = {}
    by_base: Dict[Fact, Set[tuple]] = {}

    def admit(assignment: Assignment) -> None:
        signature = assignment.signature()
        if signature in live:
            return
        live[signature] = assignment
        for item in assignment.base_facts():
            by_base.setdefault(item, set()).add(signature)

    for assignment in discovery.initial():
        admit(assignment)

    stages = 0
    while True:
        stages += 1
        derived_now = {assignment.derived for assignment in live.values()}
        changed, dropped = _apply_stage(working, derived_now, deleted)
        if not changed:
            break
        # Deleting a base fact voids every assignment matching it positively.
        for item in dropped:
            for signature in by_base.pop(item, ()):
                live.pop(signature, None)
        # Newly recorded deltas may enable assignments through delta atoms.
        for assignment in discovery.newly_enabled():
            admit(assignment)
    return stages
