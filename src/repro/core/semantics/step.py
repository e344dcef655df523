"""Step semantics (Definition 3.5): one rule activation at a time.

Step semantics fires a single satisfying assignment per step, immediately
updates the database, and looks for the firing sequence whose fixpoint deletes
the fewest tuples.  Deciding whether a result of size ``k`` exists is NP-hard
(Proposition 4.2), so the paper proposes the greedy Algorithm 2 over the
provenance graph; this module implements both that greedy algorithm (the
default) and an exhaustive search over firing sequences that is exact but only
feasible on small instances (used by the tests to validate the greedy result
and by the vertex-cover reduction experiments).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.core.semantics.base import (
    PHASE_EVAL,
    PHASE_PROCESS_PROV,
    PHASE_TRAVERSE,
    RepairResult,
    Semantics,
)
from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import (
    ENGINE_AUTO,
    Assignment,
    find_assignments,
    run_closure,
    validate_engine,
)
from repro.exceptions import SemanticsError
from repro.provenance.graph import ProvenanceGraph
from repro.storage.database import BaseDatabase
from repro.storage.database import stabilized_copy
from repro.storage.facts import Fact
from repro.utils.rng import stable_hash
from repro.utils.timing import PhaseTimer


def step_semantics(
    db: BaseDatabase,
    program: DeltaProgram | Program | Iterable[Rule],
    timer: PhaseTimer | None = None,
    method: str = "greedy",
    max_states: int = 100_000,
    engine: str = ENGINE_AUTO,
    context=None,
) -> RepairResult:
    """Compute a step-semantics stabilizing set.

    Parameters
    ----------
    method:
        ``"greedy"`` (Algorithm 2, default) or ``"exhaustive"`` — an exact
        search over firing sequences, exponential in the worst case and guarded
        by ``max_states``.
    engine:
        The closure engine building the provenance for the greedy method (see
        :func:`repro.datalog.evaluation.run_closure`); the exhaustive search
        evaluates single hypothetical states and ignores it.
    context:
        Optional shared :class:`~repro.datalog.context.EvalContext` whose
        plan/variant caches carry over to sibling runs.  The provenance build
        is the closure's ``on_assignment`` hook (so on SQLite it reads the
        staged rows of the single per-round join).
    """
    validate_engine(engine)
    if method == "greedy":
        return _step_greedy(db, program, timer, engine=engine, context=context)
    if method == "exhaustive":
        return _step_exhaustive(db, program, timer, max_states=max_states)
    raise SemanticsError(f"unknown step-semantics method: {method!r}")


# ---------------------------------------------------------------------------
# Greedy Algorithm 2
# ---------------------------------------------------------------------------


def _step_greedy(
    db: BaseDatabase,
    program: DeltaProgram | Program | Iterable[Rule],
    timer: PhaseTimer | None,
    engine: str = ENGINE_AUTO,
    context=None,
) -> RepairResult:
    timer = timer if timer is not None else PhaseTimer()
    rules = list(program)

    # Line 1 of Algorithm 2: the provenance graph of End(P, D).  The graph
    # only needs the assignment *stream* (it indexes facts itself), so the
    # closure is told not to retain its own copy of the assignment list.
    provenance = ProvenanceGraph()
    working = db.clone()
    with timer.phase(PHASE_EVAL):
        closure = run_closure(
            working,
            rules,
            on_assignment=provenance._register_assignment,
            engine=engine,
            collect_assignments=False,
            context=context,
        )
    with timer.phase(PHASE_PROCESS_PROV):
        provenance._compute_layers()
        provenance._compute_benefits()

    chosen: Set[Fact] = set()
    removed: Set[Fact] = set()
    with timer.phase(PHASE_TRAVERSE):
        assignments_of: Dict[Fact, List[Assignment]] = {}
        for assignment in provenance.assignments:
            assignments_of.setdefault(assignment.derived, []).append(assignment)

        def prune() -> None:
            """Remove delta tuples all of whose derivations are voided."""
            changed = True
            while changed:
                changed = False
                for target in provenance.derived:
                    if target in chosen or target in removed:
                        continue
                    derivations = assignments_of.get(target, [])
                    if derivations and all(
                        _is_voided(assignment, target, chosen, removed)
                        for assignment in derivations
                    ):
                        removed.add(target)
                        changed = True

        for layer in range(1, provenance.layer_count + 1):
            while True:
                candidates = [
                    item
                    for item in provenance.tuples_in_layer(layer)
                    if item not in chosen and item not in removed
                ]
                if not candidates:
                    break
                best = max(
                    candidates,
                    key=lambda item: (
                        provenance.benefit(item),
                        -stable_hash(item.relation, item.values),
                    ),
                )
                chosen.add(best)
                prune()

    repaired = stabilized_copy(db, chosen)
    return RepairResult(
        semantics=Semantics.STEP,
        deleted=frozenset(chosen),
        repaired=repaired,
        timer=timer,
        rounds=provenance.layer_count,
        metadata={
            "method": "greedy",
            "engine": closure.engine,
            "closure_rounds": closure.rounds,
            "provenance_nodes": provenance.node_count(),
            "provenance_edges": provenance.edge_count(),
            "provenance_assignments": len(provenance.assignments),
            "pruned_delta_tuples": len(removed),
        },
    )


def _is_voided(
    assignment: Assignment,
    target: Fact,
    chosen: Set[Fact],
    removed: Set[Fact],
) -> bool:
    """An assignment is voided when a chosen deletion breaks one of its base atoms,
    or a pruned delta tuple can no longer supply one of its delta atoms."""
    for item in assignment.base_facts():
        if item in chosen and item != target:
            return True
    for item in assignment.delta_facts():
        if item in removed:
            return True
    return False


# ---------------------------------------------------------------------------
# Exhaustive search over firing sequences (exact, small inputs only)
# ---------------------------------------------------------------------------


def _step_exhaustive(
    db: BaseDatabase,
    program: DeltaProgram | Program | Iterable[Rule],
    timer: PhaseTimer | None,
    max_states: int,
) -> RepairResult:
    timer = timer if timer is not None else PhaseTimer()
    rules = list(program)
    best: Set[Fact] | None = None
    visited: Set[frozenset[Fact]] = set()
    explored = 0

    with timer.phase(PHASE_TRAVERSE):

        def explore(deleted: frozenset[Fact]) -> None:
            nonlocal best, explored
            if deleted in visited:
                return
            visited.add(deleted)
            explored += 1
            if explored > max_states:
                raise SemanticsError(
                    f"exhaustive step search exceeded {max_states} states; "
                    "use method='greedy' for this input",
                )
            if best is not None and len(deleted) >= len(best):
                # Any extension only grows; a known smaller/equal fixpoint wins.
                return
            state = stabilized_copy(db, deleted)
            derivable = set()
            for rule in rules:
                for assignment in find_assignments(state, rule):
                    derivable.add(assignment.derived)
            derivable -= set(deleted)
            if not derivable:
                if best is None or len(deleted) < len(best):
                    best = set(deleted)
                return
            if best is not None and len(deleted) + 1 >= len(best):
                return
            for item in sorted(derivable, key=lambda fact: fact.sort_key()):
                explore(deleted | {item})

        explore(frozenset())

    if best is None:
        raise SemanticsError("exhaustive step search found no fixpoint (unexpected)")
    repaired = stabilized_copy(db, best)
    return RepairResult(
        semantics=Semantics.STEP,
        deleted=frozenset(best),
        repaired=repaired,
        timer=timer,
        rounds=None,
        metadata={"method": "exhaustive", "states_explored": explored},
    )
