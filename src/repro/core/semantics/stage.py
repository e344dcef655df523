"""Stage semantics (Definition 3.7): semi-naive rounds with immediate deletion.

At every stage all satisfying assignments over the *current* state of the
database are evaluated, all the derived tuples are deleted together, and the
next stage starts from the updated state.  The evaluation is deterministic and
rule-order independent, and converges to a unique fixpoint (Proposition 3.9);
computing it is PTIME (Proposition 4.1).

Stage semantics models cascade deletions by SQL triggers that fire in rounds
(statement-level "after delete" triggers), as discussed in Section 3.4.

Because every delta rule has a guard atom (Definition 3.1), stage ``k+1``
fires exactly the assignments that stage ``k``'s deletions enable: the
semi-naive closure's next frontier round, with that round's facts also
removed from the active extent.  The default engine therefore runs the
backend's closure driver (:func:`repro.datalog.seminaive.semi_naive_closure`
in memory, :func:`repro.datalog.sql_seminaive.sql_semi_naive_closure` on
SQLite, whose install-only path keeps every stage inside SQLite) with
``delete_derived=True``.  ``engine="naive"`` keeps the re-evaluate-everything
loop as the oracle.  That loop also runs the inputs where the argument above
fails: rule lists with an unguarded rule (``DeltaProgram(require_guard=False)``
or raw rules), and databases whose delta extent is already non-empty.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.core.semantics.base import PHASE_EVAL, RepairResult, Semantics
from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import (
    ENGINE_AUTO,
    ENGINE_NAIVE,
    find_assignments,
    resolve_engine,
)
from repro.datalog.seminaive import semi_naive_closure
from repro.datalog.sql_seminaive import sql_semi_naive_closure
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
    ``RepairEngine.compare()`` call.  ``metadata["engine"]`` names the engine
    that ran.
    """
    timer = timer if timer is not None else PhaseTimer()
    rules = list(program)
    working = db.clone()
    resolved = resolve_engine(working, engine)
    if any(rule.guard_atom() is None for rule in rules) or working.count_delta():
        resolved = ENGINE_NAIVE
    with timer.phase(PHASE_EVAL):
        if resolved == ENGINE_NAIVE:
            deleted: set = set()
            stages = _stage_fixpoint_naive(working, rules, deleted)
        else:
            closure = (
                sql_semi_naive_closure
                if isinstance(working, SQLiteDatabase)
                else semi_naive_closure
            )
            stages = closure(
                working,
                rules,
                collect_assignments=False,
                context=context,
                delete_derived=True,
            ).rounds
            # Every derived fact was active when its stage deleted it.
            deleted = set(working.all_deltas())
    return RepairResult(
        semantics=Semantics.STAGE,
        deleted=frozenset(deleted),
        repaired=working,
        timer=timer,
        rounds=stages,
        metadata={"engine": resolved},
    )


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
        # Only tuples still active lead to a state change.
        newly_deleted = {
            item
            for item in derived_now
            if working.has_active(item) or not working.has_delta(item)
        }
        changed = False
        for item in newly_deleted:
            was_active = working.has_active(item)
            if working.delete(item) or was_active:
                changed = True
            if was_active:
                deleted.add(item)
        if not changed:
            break
    return stages
