"""Branch-and-bound Min-Ones SAT solver.

Min-Ones SAT asks for a satisfying assignment with the minimum number of
variables set to True.  Algorithm 1 of the paper reduces independent semantics
to this problem (the true variables are the tuples to delete); the paper uses
Z3's MaxSMT engine, which is unavailable offline, so this module provides the
substitute described in DESIGN.md.

Strategy
--------

1. Simplify the formula (tautology removal + subsumption, see
   :meth:`CNF.simplified`) and split it into variable-connected components;
   minimum solutions add up across components.
2. Seed each component with a greedy hitting set: repeatedly set True the
   variable occurring positively in the most unsatisfied clauses.  The
   greedy keeps per-clause true-literal counts, occurrence lists and a lazy
   max-heap of scores, so each pick costs the clauses it touches rather than
   a rescan of the component.
3. Solve each component exactly by DPLL-style branch and bound, starting
   from the greedy cost: unit propagation, most-frequent-positive-literal
   branching (False branch first), and pruning with a lower bound counting
   variable-disjoint all-positive unsatisfied clauses.
4. Components larger than ``exact_variable_limit`` (or exceeding the node
   budget) keep the greedy answer.  It is still a *satisfying* assignment —
   hence a stabilizing set — just not guaranteed minimum (the same soundness
   remark the paper makes).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import UnsatisfiableError
from repro.solver.cnf import CNF, literal_is_positive, literal_variable


@dataclass
class SolverStats:
    """Counters describing one :func:`solve_min_ones` run."""

    components: int = 0
    exact_components: int = 0
    greedy_components: int = 0
    nodes_explored: int = 0
    propagations: int = 0

    def merge(self, other: "SolverStats") -> None:
        """Accumulate counters from a per-component run."""
        self.components += other.components
        self.exact_components += other.exact_components
        self.greedy_components += other.greedy_components
        self.nodes_explored += other.nodes_explored
        self.propagations += other.propagations


@dataclass
class MinOnesResult:
    """The outcome of a Min-Ones solve.

    ``assignment`` is complete over the formula's variables; ``true_variables``
    is the set of variables assigned True (the deletions, in the repair
    setting); ``optimal`` is False when any component used the greedy fallback.
    """

    assignment: Dict[int, bool]
    true_variables: frozenset[int]
    optimal: bool
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def cost(self) -> int:
        """Number of variables set to True."""
        return len(self.true_variables)


class _ComponentSolver:
    """Exact branch-and-bound search over a single connected component."""

    def __init__(self, cnf: CNF, node_limit: int) -> None:
        self.clauses: List[FrozenSet[int]] = list(cnf.clauses)
        self.variables = sorted(cnf.variables())
        self.node_limit = node_limit
        self.nodes = 0
        self.propagations = 0
        self.best_cost: Optional[int] = None
        self.best_assignment: Dict[int, bool] = {}
        self.aborted = False

    # -- helpers ------------------------------------------------------------------

    def _clause_state(self, clause: FrozenSet[int], assignment: Dict[int, bool]):
        """Return (satisfied, unassigned_literals) for a clause."""
        unassigned = []
        for literal in clause:
            variable = literal_variable(literal)
            if variable in assignment:
                if literal_is_positive(literal) == assignment[variable]:
                    return True, []
            else:
                unassigned.append(literal)
        return False, unassigned

    def _propagate(self, assignment: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        """Unit propagation; returns None on conflict."""
        changed = True
        current = dict(assignment)
        while changed:
            changed = False
            for clause in self.clauses:
                satisfied, unassigned = self._clause_state(clause, current)
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    literal = unassigned[0]
                    current[literal_variable(literal)] = literal_is_positive(literal)
                    self.propagations += 1
                    changed = True
        return current

    def _lower_bound(self, assignment: Dict[int, bool]) -> int:
        """Variable-disjoint unsatisfied clauses whose open literals are all positive.

        Each such clause requires at least one additional True variable, and
        because they share no variables the requirements add up.
        """
        used_variables: set[int] = set()
        bound = 0
        for clause in self.clauses:
            satisfied, unassigned = self._clause_state(clause, assignment)
            if satisfied or not unassigned:
                continue
            if any(not literal_is_positive(literal) for literal in unassigned):
                continue
            clause_variables = {literal_variable(literal) for literal in unassigned}
            if clause_variables & used_variables:
                continue
            used_variables |= clause_variables
            bound += 1
        return bound

    def _pick_branch_variable(self, assignment: Dict[int, bool]) -> Optional[int]:
        """The unassigned variable occurring positively in most unsatisfied clauses."""
        scores: Dict[int, int] = {}
        for clause in self.clauses:
            satisfied, unassigned = self._clause_state(clause, assignment)
            if satisfied:
                continue
            for literal in unassigned:
                if literal_is_positive(literal):
                    scores[literal_variable(literal)] = (
                        scores.get(literal_variable(literal), 0) + 1
                    )
        if scores:
            return max(scores, key=lambda variable: (scores[variable], -variable))
        # No positive literal is open in any unsatisfied clause: branch on a
        # variable of some unsatisfied clause (its False branch satisfies the
        # negative literal at zero cost).
        for clause in self.clauses:
            satisfied, unassigned = self._clause_state(clause, assignment)
            if not satisfied and unassigned:
                return literal_variable(unassigned[0])
        return None

    def _cost(self, assignment: Dict[int, bool]) -> int:
        return sum(1 for value in assignment.values() if value)

    # -- search --------------------------------------------------------------------

    def solve(self, initial_best: Optional[Dict[int, bool]] = None):
        """Run the search; returns (assignment, optimal_flag)."""
        if initial_best is not None:
            self.best_assignment = dict(initial_best)
            self.best_cost = self._cost(initial_best)
        self._search({})
        if self.best_cost is None:
            raise UnsatisfiableError("component has no satisfying assignment")
        complete = dict(self.best_assignment)
        for variable in self.variables:
            complete.setdefault(variable, False)
        return complete, not self.aborted

    def _search(self, assignment: Dict[int, bool]) -> None:
        if self.aborted:
            return
        self.nodes += 1
        if self.nodes > self.node_limit:
            self.aborted = True
            return
        propagated = self._propagate(assignment)
        if propagated is None:
            return
        cost = self._cost(propagated)
        bound = cost + self._lower_bound(propagated)
        if self.best_cost is not None and bound >= self.best_cost:
            return
        # Fully satisfied with everything else False?
        remaining_unsat = [
            clause
            for clause in self.clauses
            if not self._clause_state(clause, propagated)[0]
        ]
        if not remaining_unsat:
            if self.best_cost is None or cost < self.best_cost:
                self.best_cost = cost
                self.best_assignment = dict(propagated)
            return
        variable = self._pick_branch_variable(propagated)
        if variable is None:
            # Clauses remain unsatisfied but have no open literal: dead end.
            return
        for value in (False, True):
            branched = dict(propagated)
            branched[variable] = value
            self._search(branched)


def _find_any_model(cnf: CNF) -> Optional[Dict[int, bool]]:
    """Plain DPLL searching for *any* model, preferring False assignments.

    Used when the hitting-set greedy paints itself into a corner (it never
    revisits a choice); preferring the False branch keeps the incidental cost
    of the model low.  Returns None when the formula is unsatisfiable.
    """
    variables = sorted(cnf.variables())

    def search(assignment: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        # Unit propagation.
        changed = True
        while changed:
            changed = False
            for clause in cnf.clauses:
                unassigned = []
                satisfied = False
                for literal in clause:
                    variable = literal_variable(literal)
                    if variable in assignment:
                        if literal_is_positive(literal) == assignment[variable]:
                            satisfied = True
                            break
                    else:
                        unassigned.append(literal)
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    literal = unassigned[0]
                    assignment[literal_variable(literal)] = literal_is_positive(literal)
                    changed = True
        branch_variable = next(
            (variable for variable in variables if variable not in assignment), None,
        )
        if branch_variable is None:
            return assignment if cnf.is_satisfied_by(assignment) else None
        for value in (False, True):
            attempt = search({**assignment, branch_variable: value})
            if attempt is not None:
                return attempt
        return None

    return search({})


def _greedy_component(cnf: CNF) -> Dict[int, bool]:
    """Greedy hitting-set heuristic; always returns a satisfying assignment.

    Clauses produced by the boolean-provenance construction contain at least
    one positive literal (the guard tuple of their rule), so repeatedly
    choosing the positive variable that fixes the most unsatisfied clauses
    terminates with a model.  On arbitrary CNFs the greedy can wedge itself; it
    then falls back to a plain DPLL model search.

    Every variable starts False, so a clause starts with one true literal per
    negative literal.  The loop keeps each clause's true-literal count, each
    open variable's score (the unsatisfied clauses holding it positively) and
    a lazy max-heap keyed ``(-score, variable)``: the highest score wins and
    ties go to the smallest variable.  Setting ``v`` True satisfies each
    clause holding ``+v`` whose count leaves 0, lowering the scores of its
    open positive literals, and falsifies each clause holding ``-v`` whose
    count drops to 0, raising them.
    """
    clauses = cnf.clauses
    positive_in: Dict[int, List[int]] = {}
    negative_in: Dict[int, List[int]] = {}
    true_literals: List[int] = []
    for index, clause in enumerate(clauses):
        negatives = 0
        for literal in clause:
            if literal > 0:
                positive_in.setdefault(literal, []).append(index)
            else:
                negative_in.setdefault(-literal, []).append(index)
                negatives += 1
        true_literals.append(negatives)
    assignment: Dict[int, bool] = {}
    scores: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []

    def rescore(index: int, change: int) -> None:
        for literal in clauses[index]:
            if literal > 0 and literal not in assignment:
                score = scores.get(literal, 0) + change
                scores[literal] = score
                if score:
                    heapq.heappush(heap, (-score, literal))

    unsatisfied = 0
    for index, count in enumerate(true_literals):
        if not count:
            unsatisfied += 1
            rescore(index, 1)
    stuck = False
    while unsatisfied:
        while heap and (
            heap[0][1] in assignment or -heap[0][0] != scores[heap[0][1]]
        ):
            heapq.heappop(heap)  # stale: picked already, or rescored since
        if not heap:
            stuck = True
            break
        chosen = heapq.heappop(heap)[1]
        assignment[chosen] = True
        for index in positive_in.get(chosen, ()):
            true_literals[index] += 1
            if true_literals[index] == 1:
                unsatisfied -= 1
                rescore(index, -1)
        for index in negative_in.get(chosen, ()):
            true_literals[index] -= 1
            if not true_literals[index]:
                unsatisfied += 1
                rescore(index, 1)
    for variable in cnf.variables():
        assignment.setdefault(variable, False)
    if stuck or not cnf.is_satisfied_by(assignment):
        model = _find_any_model(cnf)
        if model is None:
            raise UnsatisfiableError("component has no satisfying assignment")
        for variable in cnf.variables():
            model.setdefault(variable, False)
        return model
    return assignment


def solve_min_ones(
    cnf: CNF,
    exact_variable_limit: int = 2000,
    node_limit: int = 200_000,
) -> MinOnesResult:
    """Solve Min-Ones SAT for ``cnf``.

    Parameters
    ----------
    cnf:
        The formula; an empty formula yields the all-False (cost 0) model.
    exact_variable_limit:
        Components with more variables than this use the greedy fallback.
    node_limit:
        Branch-and-bound node budget per component; exceeding it degrades that
        component to its best-known (greedy-seeded) answer and marks the
        overall result as non-optimal.
    """
    stats = SolverStats()
    simplified = cnf.simplified()
    assignment: Dict[int, bool] = {variable: False for variable in cnf.variables()}
    optimal = True
    for component in simplified.components():
        stats.components += 1
        greedy = _greedy_component(component)
        if component.variable_count > exact_variable_limit:
            stats.greedy_components += 1
            optimal = False
            assignment.update(greedy)
            continue
        solver = _ComponentSolver(component, node_limit=node_limit)
        solved, component_optimal = solver.solve(initial_best=greedy)
        stats.nodes_explored += solver.nodes
        stats.propagations += solver.propagations
        if component_optimal:
            stats.exact_components += 1
        else:
            stats.greedy_components += 1
            optimal = False
        assignment.update(solved)
    true_variables = frozenset(
        variable for variable, value in assignment.items() if value
    )
    result = MinOnesResult(
        assignment=assignment,
        true_variables=true_variables,
        optimal=optimal,
        stats=stats,
    )
    if not cnf.is_satisfied_by(result.assignment):
        raise UnsatisfiableError("solver produced a non-model (internal error)")
    return result
