"""End semantics (Definition 3.10): standard datalog evaluation of delta relations.

End semantics treats the delta relations as ordinary intensional relations:
every derivable delta tuple is derived against the *original* relations, and
only once the fixpoint is reached are the derived tuples removed from the
database.  It is the most permissive of the four semantics (its result
contains both the stage and step results) and serves as the paper's baseline.
Computing it is PTIME (Proposition 4.1).

The derivation fixpoint runs on the shared closure engine: semi-naive and
delta-driven by default (``engine="auto"``) on both the in-memory and the
SQLite backend (the latter through the frontier-table SQL driver of
:mod:`repro.datalog.sql_seminaive`), with the naive re-evaluate-everything
loop kept as the differential-testing oracle (``engine="naive"``).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.semantics.base import PHASE_EVAL, RepairResult, Semantics
from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import ENGINE_AUTO, run_closure
from repro.storage.database import BaseDatabase
from repro.utils.timing import PhaseTimer


def end_semantics(
    db: BaseDatabase,
    program: DeltaProgram | Program | Iterable[Rule],
    timer: PhaseTimer | None = None,
    engine: str = ENGINE_AUTO,
    context=None,
    collect_assignments: bool = False,
) -> RepairResult:
    """Compute ``End(P, D)``.

    The input database is never modified; the returned result carries a
    repaired clone.  ``engine`` selects the closure engine (see
    :func:`repro.datalog.evaluation.run_closure`) and ``context`` shares
    planning state across runs.
    End semantics only needs the derived delta *facts*, so by default it does
    not collect assignments — on SQLite this enables the install-only
    fast path (one join per rule variant per round).  Pass
    ``collect_assignments=True`` to retain the old behaviour and populate
    ``metadata["assignments"]``.
    """
    timer = timer if timer is not None else PhaseTimer()
    rules = list(program)
    working = db.clone()
    with timer.phase(PHASE_EVAL):
        # Derive all delta tuples to fixpoint; the active relations stay frozen
        # at D^0 (mark_deleted only touches the delta extents).
        closure = run_closure(
            working,
            rules,
            engine=engine,
            context=context,
            collect_assignments=collect_assignments,
        )
        # Final state T: remove every derived tuple from the active relations.
        deleted = set()
        for relation in working.relation_names():
            for item in working.delta_facts(relation):
                if working.has_active(item):
                    working.drop_active(item)
                    deleted.add(item)
    return RepairResult(
        semantics=Semantics.END,
        deleted=frozenset(deleted),
        repaired=working,
        timer=timer,
        rounds=closure.rounds,
        metadata={
            "derived_delta_tuples": working.count_delta(),
            "engine": closure.engine,
            # None when the fast path skipped assignment enumeration.
            "assignments": (
                len(closure.assignments) if collect_assignments else None
            ),
        },
    )
