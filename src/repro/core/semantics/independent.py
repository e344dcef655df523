"""Independent semantics (Definition 3.3): the globally minimum stabilizing set.

Independent semantics asks for the smallest set ``S`` of tuples such that the
database ``(D \\ S) ∪ Δ(S)`` satisfies no rule of the program — the classic
minimum-repair objective for denial constraints, generalised to cascading
delta rules.  Finding it is NP-hard (Proposition 4.2); the paper's Algorithm 1
builds the Boolean provenance of every possible delta tuple, negates it, and
asks a Min-Ones SAT solver for a model with the fewest deletions.  This module
implements that algorithm on top of :mod:`repro.provenance.boolean` and
:mod:`repro.solver`.

The provenance arrives as clauses over integer variables (one per candidate
fact, numbered in :meth:`~repro.storage.facts.Fact.sort_key` order), so they
go into the :class:`~repro.solver.cnf.CNF` as they are, and the solver's true
variables map back to facts through :attr:`BooleanProvenance.facts
<repro.provenance.boolean.BooleanProvenance.facts>`.  The result's
``repaired`` copy is built on first read, from a snapshot of the input.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.semantics.base import (
    PHASE_EVAL,
    PHASE_PROCESS_PROV,
    PHASE_SOLVE,
    RepairResult,
    Semantics,
)
from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.provenance.boolean import build_boolean_provenance
from repro.solver.cnf import CNF
from repro.solver.minones import solve_min_ones
from repro.storage.database import BaseDatabase, stabilized_copy
from repro.utils.timing import PhaseTimer


def independent_semantics(
    db: BaseDatabase,
    program: DeltaProgram | Program | Iterable[Rule],
    timer: PhaseTimer | None = None,
    exact_variable_limit: int = 2000,
    node_limit: int = 200_000,
    engine: str = "auto",
    context=None,
) -> RepairResult:
    """Compute ``Ind(P, D)`` via Algorithm 1 (Boolean provenance + Min-Ones SAT).

    The result is the exact minimum whenever the solver reports optimality
    (``metadata["optimal"]``); otherwise it is still a valid stabilizing set,
    mirroring the paper's remark that any satisfying assignment is sound.
    ``engine`` selects join planning for the provenance build (see
    :func:`repro.provenance.boolean.build_boolean_provenance`).
    """
    from repro.datalog.evaluation import validate_engine

    validate_engine(engine)
    timer = timer if timer is not None else PhaseTimer()
    rules = list(program)

    # Line 1: Boolean provenance of every possible delta tuple.
    with timer.phase(PHASE_EVAL):
        provenance = build_boolean_provenance(
            db, rules, engine=engine, context=context,
        )

    # Lines 2-4: the negated provenance is already a CNF over the integer
    # deletion variables; an assignment with no voidable literal means the
    # database cannot be stabilized by deletions alone (cannot happen for
    # well-formed delta rules, whose guard atom always contributes a literal).
    with timer.phase(PHASE_PROCESS_PROV):
        cnf = CNF([frozenset(literals) for literals in provenance.literals if literals])
        nontrivial = all(provenance.literals)

    # Line 5: Min-Ones SAT.
    with timer.phase(PHASE_SOLVE):
        solution = solve_min_ones(
            cnf, exact_variable_limit=exact_variable_limit, node_limit=node_limit,
        )

    facts = provenance.facts
    deleted = frozenset(facts[variable - 1] for variable in solution.true_variables)
    # The repaired copy is built on first read, from a snapshot of the input
    # taken now, so later edits to ``db`` cannot leak into it.
    snapshot = db.clone()
    return RepairResult(
        semantics=Semantics.INDEPENDENT,
        deleted=deleted,
        repaired=lambda: stabilized_copy(snapshot, deleted),
        timer=timer,
        rounds=None,
        metadata={
            "optimal": solution.optimal and nontrivial,
            "clauses": provenance.clause_count(),
            "provenance_variables": provenance.variable_count(),
            "solver_components": solution.stats.components,
            "solver_nodes": solution.stats.nodes_explored,
            "solver_greedy_components": solution.stats.greedy_components,
        },
    )
