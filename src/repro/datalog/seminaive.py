"""Semi-naive, delta-driven fixpoint evaluation.

The naive closure re-evaluates **every** rule against the **whole** database
each round, so round ``k`` redoes all the work of rounds ``1..k-1`` and throws
the repetitions away through a signature set.  The engine in this module
applies the textbook semi-naive discipline to delta programs: after the first
full round, an assignment is new only if it matches at least one delta fact
derived in the previous round (the *frontier*), so each rule is re-entered
through its delta atoms seeded from the frontier and joined outward along a
cached per-rule plan (:mod:`repro.datalog.planner`).

Double counting is avoided by the usual stratification: when a rule has delta
atoms at ranks ``1..m`` (in body order) and the seed is rank ``i``, delta
atoms of rank ``< i`` match only *pre-frontier* facts and ranks ``> i`` match
the full delta extent.  Every new assignment is therefore enumerated exactly
once — the property the provenance ``on_assignment`` hook relies on.

Rounds are stage-style: facts derived during a round are recorded at its end,
so the frontier of round ``k+1`` is exactly what round ``k`` produced and the
round count is deterministic and rule-order independent.

Assignment consumers
--------------------

Assignments leave a run in two ways, mirroring the SQL driver
(:mod:`repro.datalog.sql_seminaive`): the per-call ``on_assignment`` hook and
the returned :class:`~repro.datalog.evaluation.ClosureResult` assignment list
(suppressed with ``collect_assignments=False``).  Both see every *new*
assignment exactly once, in derivation-round order.  The in-memory engine
always enumerates assignments in Python (the derivation itself needs them),
so unlike the SQL driver there is no install-only fast path — the flags only
control retention and delivery.  A shared
:class:`~repro.datalog.context.EvalContext` (``context=``) supplies the
planner, backed by the context's structural plan cache so several runs (e.g.
the four semantics of one ``compare()``) plan each rule shape once.

Deleting derived facts
----------------------

A round ends by recording its derived facts with
:meth:`~repro.storage.database.BaseDatabase.mark_deleted`, leaving the active
extents untouched (end semantics).  With ``delete_derived=True`` it calls
:meth:`~repro.storage.database.BaseDatabase.delete` instead, so the facts
also leave the active extent before the next round: stage semantics
(Definition 3.7).  The loop then runs once more after any round that derived
a fact, so ``rounds`` counts the final stage that changes nothing, as the
naive stage loop does.

Frontier tokens
---------------

Both in-memory frontier loops — this closure and insert propagation in
:mod:`repro.datalog.incremental` — read their next frontier through
:class:`_FrontierTokens`: one storage token per delta relation some rule
reads, advanced in sorted relation order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from repro.datalog.ast import Program, Rule
from repro.datalog.evaluation import (
    Assignment,
    ClosureResult,
    ENGINE_SEMI_NAIVE,
    _match_atom,
    find_assignments,
    planned_search,
)
from repro.datalog.planner import JoinPlanner
from repro.exceptions import EvaluationError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact

#: ``relation -> frontier facts`` for one semi-naive round.
Frontier = Dict[str, Set[Fact]]


class _FrontierTokens:
    """Frontier tokens over the delta relations that ``rules`` read.

    The tokens are taken at construction; each :meth:`advance` returns the
    delta facts recorded since the previous call (or since construction) and
    moves every token to "now".  Relations are visited in sorted order, so
    the frontier's relation order does not depend on rule order.
    """

    __slots__ = ("_db", "_tokens")

    def __init__(self, db: BaseDatabase, rules: Iterable[Rule]) -> None:
        self._db = db
        relations = sorted(
            {atom.relation for rule in rules for atom in rule.body if atom.is_delta},
        )
        self._tokens = {relation: db.delta_token(relation) for relation in relations}

    def advance(self) -> Frontier:
        """The delta facts recorded since the last call, keyed by relation
        (relations without new facts are omitted)."""
        frontier: Frontier = {}
        for relation, token in self._tokens.items():
            added = self._db.delta_added_since(relation, token)
            self._tokens[relation] = self._db.delta_token(relation)
            if added:
                frontier[relation] = set(added)
        return frontier


def delta_body_positions(rule: Rule) -> List[int]:
    """Body indices of the rule's delta atoms, in body order."""
    return [index for index, atom in enumerate(rule.body) if atom.is_delta]


def seeded_assignments(
    db: BaseDatabase,
    rule: Rule,
    frontier: Frontier,
    planner: JoinPlanner,
) -> Iterator[Assignment]:
    """Assignments of ``rule`` that use at least one frontier delta fact.

    Each qualifying assignment is produced exactly once: the enumeration is
    split by the rank of the *first* delta atom matched to a frontier fact.
    Base atoms match the active extent and delta atoms the delta extent of
    ``db`` as usual.
    """
    delta_positions = delta_body_positions(rule)
    for rank, seed_index in enumerate(delta_positions):
        seed_facts = frontier.get(rule.body[seed_index].relation)
        if not seed_facts:
            continue
        seed_atom = rule.body[seed_index]
        plan = planner.plan(rule, seed=seed_index)
        # Delta atoms strictly before the seed (in body order) must match
        # pre-frontier facts only; later ones may match anything recorded.
        pre_frontier = set(delta_positions[:rank])

        if plan.kind != "binary":
            from repro.datalog.wcoj import wcoj_eligible, wcoj_seeded_assignments

            if wcoj_eligible(db, plan):
                excluded = {
                    index: frontier[rule.body[index].relation]
                    for index in pre_frontier
                    if frontier.get(rule.body[index].relation)
                }
                yield from wcoj_seeded_assignments(
                    db,
                    rule,
                    plan,
                    seed_index,
                    list(seed_facts),
                    excluded=excluded or None,
                    stats=planner.stats,
                )
                continue

        def candidates_for(index: int, atom, fixed, pre_frontier=pre_frontier):
            facts = db.candidates(atom.relation, fixed, delta=atom.is_delta)
            if index in pre_frontier:
                excluded = frontier.get(atom.relation)
                if excluded:
                    return (item for item in facts if item not in excluded)
            return facts

        results: List[Assignment] = []
        for item in seed_facts:
            bindings = _match_atom(seed_atom, item, {})
            if bindings is None:
                continue
            planned_search(
                rule, plan.order, 1, bindings, [(seed_index, item)], set(),
                results, candidates_for,
            )
        yield from results


def semi_naive_closure(
    db: BaseDatabase,
    program: Program | Iterable[Rule],
    on_assignment=None,
    max_rounds: int | None = None,
    planner: JoinPlanner | None = None,
    collect_assignments: bool = True,
    context=None,
    delete_derived: bool = False,
) -> ClosureResult:
    """Derive all delta facts of ``db`` under ``program`` to fixpoint.

    Equivalent to the naive closure (same assignments, same delta facts, same
    exactly-once ``on_assignment`` calls) but incremental after round 1: only
    assignments reachable from the previous round's frontier are enumerated.
    The active extents are untouched unless ``delete_derived`` is set.  See
    the module docstring for the consumer knobs (``on_assignment``,
    ``collect_assignments``) and for ``delete_derived``.
    """
    rules = list(program)
    if planner is None:
        planner = context.planner(db) if context is not None else JoinPlanner(db)
    delta_rules = [rule for rule in rules if any(atom.is_delta for atom in rule.body)]
    tokens = _FrontierTokens(db, delta_rules)

    all_assignments: List[Assignment] = []
    seen_signatures: set[tuple] = set()
    derived_now: List[Fact] = []

    def record(assignment: Assignment) -> None:
        signature = assignment.signature()
        if signature in seen_signatures:
            return
        seen_signatures.add(signature)
        if collect_assignments:
            all_assignments.append(assignment)
        if on_assignment is not None:
            on_assignment(assignment)
        derived_now.append(assignment.derived)

    rounds = 0
    settle = db.delete if delete_derived else db.mark_deleted

    def enter_round() -> None:
        nonlocal rounds
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise EvaluationError(
                f"closure did not converge within {max_rounds} rounds",
            )

    # Round 1: one full evaluation of every rule (planned joins, no frontier).
    enter_round()
    for rule in rules:
        for assignment in find_assignments(db, rule, planner=planner):
            record(assignment)
    for item in derived_now:
        settle(item)

    # Rounds 2..: re-enter rules only through the previous round's frontier.
    # Each round boundary refreshes the planner's cardinality cache so plans
    # whose extents drifted get re-costed before the round's joins run.
    while True:
        frontier = tokens.advance()
        if not frontier and not (delete_derived and derived_now):
            break
        enter_round()
        planner.begin_round()
        derived_now = []
        for rule in delta_rules:
            for assignment in seeded_assignments(db, rule, frontier, planner):
                record(assignment)
        for item in derived_now:
            settle(item)

    return ClosureResult(all_assignments, rounds, ENGINE_SEMI_NAIVE)
