"""Step semantics (Definition 3.5): one rule activation at a time.

Step semantics fires a single satisfying assignment per step, immediately
updates the database, and looks for the firing sequence whose fixpoint deletes
the fewest tuples.  Deciding whether a result of size ``k`` exists is NP-hard
(Proposition 4.2), so the paper proposes the greedy Algorithm 2 over the
provenance graph; this module implements both that greedy algorithm (the
default) and an exhaustive search over firing sequences that is exact but only
feasible on small instances (used by the tests to validate the greedy result
and by the vertex-cover reduction experiments).

The greedy traverse walks the graph's layers in order.  Layers and benefits
are fixed once the graph is built, so the derived tuples are ranked once (by
layer, then highest benefit, ties to the smaller stable hash) and walked in
that order, skipping the tuples chosen or pruned meanwhile.  Pruning is a
worklist: choosing a tuple voids the derivations that use it as a base atom,
and a derived tuple left with no live derivation is pruned, which voids the
derivations that read its Δ.  Deletions the input database already records
are in Δ whatever the traverse picks, so they are layer 0 for the tuples that
read them and are never pruned.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

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
    # Deletions the input already records stay in Δ whatever the traverse
    # picks: the layering counts them as layer 0 and the traverse never
    # prunes them.  Read them before the closure adds its own.
    recorded = frozenset(db.all_deltas())

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
        provenance._compute_layers(recorded)
        provenance._compute_benefits()

    with timer.phase(PHASE_TRAVERSE):
        chosen, removed = _traverse(provenance, recorded)

    # Built on first read, from a snapshot of the input taken now.
    snapshot = db.clone()
    return RepairResult(
        semantics=Semantics.STEP,
        deleted=frozenset(chosen),
        repaired=lambda: stabilized_copy(snapshot, chosen),
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


def _traverse(
    provenance: ProvenanceGraph, recorded: frozenset[Fact],
) -> Tuple[Set[Fact], Set[Fact]]:
    """Algorithm 2's greedy traverse: the chosen deletions and the pruned tuples.

    Layer by layer, the traverse takes the tuple of highest benefit (ties to
    the smaller stable hash), then prunes every delta tuple whose derivations
    are all voided, until the layer has no candidate left.
    """
    assignments = provenance.assignments
    chosen: Set[Fact] = set()
    removed: Set[Fact] = set()

    # Pruning is a worklist over three indexes: per target, its derivations
    # not yet voided; per fact, the assignments that use it as a base atom
    # and those that read its Δ.
    live: Dict[Fact, int] = {}
    base_users: Dict[Fact, List[int]] = {}
    delta_users: Dict[Fact, List[int]] = {}
    for index, assignment in enumerate(assignments):
        live[assignment.derived] = live.get(assignment.derived, 0) + 1
        for item in assignment.base_facts():
            base_users.setdefault(item, []).append(index)
        for item in assignment.delta_facts():
            delta_users.setdefault(item, []).append(index)
    voided = [False] * len(assignments)

    def void(users: List[int]) -> None:
        """Void ``users``; prune each target left with no live derivation."""
        pending = list(users)
        while pending:
            index = pending.pop()
            if voided[index]:
                continue
            voided[index] = True
            target = assignments[index].derived
            live[target] -= 1
            if not live[target] and target not in chosen and target not in recorded:
                # A pruned tuple never reaches Δ, so whatever reads it is void.
                removed.add(target)
                pending.extend(delta_users.get(target, ()))

    # Layers and benefits never change during the traverse, so walking one
    # ranking and skipping what was chosen or pruned meanwhile picks the same
    # tuples as re-taking the layer's maximum after every choice.
    ranked = sorted(
        provenance.layers,
        key=lambda item: (
            provenance.layers[item],
            -provenance.benefit(item),
            stable_hash(item.relation, item.values),
        ),
    )
    for item in ranked:
        if item in chosen or item in removed:
            continue
        chosen.add(item)
        void(base_users.get(item, ()))
    return chosen, removed


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
    snapshot = db.clone()
    return RepairResult(
        semantics=Semantics.STEP,
        deleted=frozenset(best),
        repaired=lambda: stabilized_copy(snapshot, best),
        timer=timer,
        rounds=None,
        metadata={"method": "exhaustive", "states_explored": explored},
    )
