"""Unit tests for the Min-Ones SAT solver (repro.solver.minones)."""

from typing import Dict

import pytest

from repro.exceptions import SolverError, UnsatisfiableError
from repro.solver.bruteforce import solve_min_ones_bruteforce
from repro.solver.cnf import CNF, literal_is_positive, literal_variable
from repro.solver.minones import _find_any_model, _greedy_component, solve_min_ones

from tests.generators import (
    PROPERTY_SCALE,
    differential_seeds,
    random_cnf,
    seed_note,
)

#: Random CNFs checked against the rescan reference (x ``PROPERTY_SCALE``).
CNF_SEEDS = differential_seeds(2000 * PROPERTY_SCALE)


def rescan_greedy(cnf: CNF) -> Dict[int, bool]:
    """Reference greedy hitting set: rescore every clause after every pick."""
    assignment: Dict[int, bool] = {}
    stuck = False
    for _ in range(cnf.clause_count + cnf.variable_count + 1):
        unsatisfied = cnf.unsatisfied_clauses(assignment)
        if not unsatisfied:
            break
        scores: Dict[int, int] = {}
        for clause in unsatisfied:
            for literal in clause:
                variable = literal_variable(literal)
                if literal_is_positive(literal) and not assignment.get(variable, False):
                    scores[variable] = scores.get(variable, 0) + 1
        if not scores:
            stuck = True
            break
        chosen = max(scores, key=lambda variable: (scores[variable], -variable))
        assignment[chosen] = True
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


def greedy_outcome(greedy, cnf: CNF):
    """The greedy's assignment in insertion order, or the error it raised."""
    try:
        return list(greedy(cnf).items())
    except UnsatisfiableError as error:
        return type(error)


class TestBasicSolving:
    def test_empty_formula_costs_zero(self):
        result = solve_min_ones(CNF())
        assert result.cost == 0
        assert result.optimal

    def test_single_positive_unit_clause(self):
        result = solve_min_ones(CNF.from_clauses([[1]]))
        assert result.true_variables == frozenset({1})
        assert result.cost == 1

    def test_negative_clauses_cost_nothing(self):
        result = solve_min_ones(CNF.from_clauses([[-1], [-2, -3]]))
        assert result.cost == 0

    def test_prefers_shared_variable(self):
        # x2 hits both clauses; the minimum is 1, not 2.
        result = solve_min_ones(CNF.from_clauses([[1, 2], [2, 3]]))
        assert result.true_variables == frozenset({2})

    def test_vertex_cover_of_a_triangle_costs_two(self):
        cnf = CNF.from_clauses([[1, 2], [2, 3], [1, 3]])
        assert solve_min_ones(cnf).cost == 2

    def test_mixed_literals(self):
        # Setting 1 True violates [-1, 2] unless 2 is True; optimal is {3} or {2}? ->
        # clause [1,3] needs 1 or 3; choosing 3 alone satisfies everything (cost 1).
        cnf = CNF.from_clauses([[1, 3], [-1, 2]])
        result = solve_min_ones(cnf)
        assert result.cost == 1
        assert cnf.is_satisfied_by(result.assignment)

    def test_forced_chain_through_negatives(self):
        # [1] forces x1; [-1, 2] then forces x2; [-2, 3] forces x3 -> cost 3.
        cnf = CNF.from_clauses([[1], [-1, 2], [-2, 3]])
        result = solve_min_ones(cnf)
        assert result.cost == 3
        assert result.true_variables == frozenset({1, 2, 3})

    def test_components_add_up(self):
        cnf = CNF.from_clauses([[1, 2], [3, 4], [5]])
        result = solve_min_ones(cnf)
        assert result.cost == 3
        assert result.stats.components == 3

    def test_result_is_always_a_model(self):
        cnf = CNF.from_clauses([[1, 2], [-2, 3], [-1, -3], [2, 4]])
        result = solve_min_ones(cnf)
        assert cnf.is_satisfied_by(result.assignment)

    def test_unsatisfiable_detected(self):
        with pytest.raises(UnsatisfiableError):
            solve_min_ones(CNF.from_clauses([[1], [-1]]))


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "clauses",
        [
            [[1, 2], [2, 3], [3, 1]],
            [[1, 2, 3], [-1, 4], [-2, 4], [2, 5], [5, -4]],
            [[1], [-1, 2], [-2, 3], [3, 4], [-4, 5, 6]],
            [[1, 2], [3, 4], [5, 6], [1, 3, 5]],
            [[-1, -2], [1, 3], [2, 3], [-3, 4]],
        ],
    )
    def test_matches_bruteforce_cost(self, clauses):
        cnf = CNF.from_clauses(clauses)
        exact = solve_min_ones_bruteforce(cnf)
        ours = solve_min_ones(cnf)
        assert ours.cost == exact.cost
        assert cnf.is_satisfied_by(ours.assignment)


class TestGreedyHittingSet:
    def test_falsified_clause_raises_the_score_of_its_literals(self):
        # x1 (score 2) goes first and falsifies (¬x1 ∨ x5), so x5 rises to 2
        # and beats x4; without the rise the tie would go to x4.
        cnf = CNF.from_clauses([[1, 2], [1, 3], [-1, 5], [4, 5]])
        assignment = _greedy_component(cnf)
        assert {v for v, value in assignment.items() if value} == {1, 5}
        assert list(assignment.items())[:2] == [(1, True), (5, True)]

    def test_score_tie_goes_to_the_smallest_variable(self):
        cnf = CNF.from_clauses([[3, 2], [7, 5]])
        assignment = _greedy_component(cnf)
        assert {v for v, value in assignment.items() if value} == {2, 5}
        # A component above the exact limit keeps the greedy answer.
        result = solve_min_ones(cnf, exact_variable_limit=1)
        assert result.true_variables == frozenset({2, 5})
        assert not result.optimal

    def test_stuck_greedy_falls_back_to_a_model_search(self):
        # x1 (score 2) goes first and falsifies (¬x1), which has no positive
        # literal to raise: the greedy stops and the model search takes over.
        cnf = CNF.from_clauses([[1, 2], [1, 3], [-1]])
        assert _greedy_component(cnf) == {1: False, 2: True, 3: True}

    def test_matches_rescan_reference_on_each_component(self):
        for seed in CNF_SEEDS:
            simplified = random_cnf(seed).simplified()
            for index, component in enumerate(simplified.components()):
                assert greedy_outcome(_greedy_component, component) == (
                    greedy_outcome(rescan_greedy, component)
                ), seed_note(seed, f"component {index}")


class TestFallbacks:
    def test_greedy_fallback_when_component_too_big(self):
        cnf = CNF.from_clauses([[1, 2], [2, 3], [3, 4]])
        result = solve_min_ones(cnf, exact_variable_limit=2)
        assert not result.optimal
        assert cnf.is_satisfied_by(result.assignment)
        assert result.stats.greedy_components >= 1

    def test_node_limit_degrades_gracefully(self):
        clauses = [[i, i + 1] for i in range(1, 20)]
        cnf = CNF.from_clauses(clauses)
        result = solve_min_ones(cnf, node_limit=1)
        assert cnf.is_satisfied_by(result.assignment)

    def test_bruteforce_guard(self):
        cnf = CNF.from_clauses([[i] for i in range(1, 30)])
        with pytest.raises(SolverError):
            solve_min_ones_bruteforce(cnf)

    def test_bruteforce_unsat(self):
        with pytest.raises(UnsatisfiableError):
            solve_min_ones_bruteforce(CNF.from_clauses([[1], [-1]]))
