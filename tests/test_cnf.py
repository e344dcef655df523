"""Unit tests for the CNF container (repro.solver.cnf)."""

from typing import FrozenSet, List

import pytest

from repro.exceptions import SolverError
from repro.solver.cnf import (
    CNF,
    literal_is_positive,
    literal_variable,
)

from tests.generators import (
    PROPERTY_SCALE,
    differential_seeds,
    random_cnf,
    seed_note,
)

#: Random CNFs checked against the pairwise reference (x ``PROPERTY_SCALE``).
CNF_SEEDS = differential_seeds(2000 * PROPERTY_SCALE)


def pairwise_simplified(cnf: CNF) -> List[FrozenSet[int]]:
    """Reference subsumption: each clause is tested against every kept clause."""
    cleaned: List[FrozenSet[int]] = []
    for clause in cnf.clauses:
        if any(-literal in clause for literal in clause):
            continue
        cleaned.append(clause)
    cleaned.sort(key=len)
    kept: List[FrozenSet[int]] = []
    for clause in cleaned:
        if any(other <= clause for other in kept):
            continue
        kept.append(clause)
    return kept


class TestLiterals:
    def test_variable_and_sign(self):
        assert literal_variable(-3) == 3
        assert literal_variable(3) == 3
        assert literal_is_positive(3)
        assert not literal_is_positive(-3)


class TestCNF:
    def test_add_clause_and_counts(self):
        cnf = CNF.from_clauses([[1, 2], [-1, 3]])
        assert cnf.clause_count == 2
        assert cnf.variable_count == 3
        assert cnf.variables() == frozenset({1, 2, 3})

    def test_empty_clause_rejected(self):
        with pytest.raises(SolverError):
            CNF().add_clause([])

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            CNF().add_clause([0])

    def test_satisfaction_with_default_false(self):
        cnf = CNF.from_clauses([[1, 2], [-3]])
        assert cnf.is_satisfied_by({1: True})
        assert not cnf.is_satisfied_by({})  # clause [1,2] needs a True
        assert cnf.is_satisfied_by({2: True, 3: False})
        assert not cnf.is_satisfied_by({2: True, 3: True})

    def test_unsatisfied_clauses(self):
        cnf = CNF.from_clauses([[1], [2]])
        failing = cnf.unsatisfied_clauses({1: True})
        assert failing == [frozenset({2})]

    def test_simplified_removes_tautologies(self):
        cnf = CNF.from_clauses([[1, -1], [2]])
        assert cnf.simplified().clause_count == 1

    def test_simplified_removes_subsumed_clauses(self):
        cnf = CNF.from_clauses([[1], [1, 2], [2, 3]])
        simplified = cnf.simplified()
        assert frozenset({1, 2}) not in simplified.clauses
        assert simplified.clause_count == 2

    def test_subset_filed_under_a_larger_literal_is_found(self):
        # {2} is filed under 2; {1, 2} must probe the bucket of each of its
        # literals, not only that of its smallest one.
        cnf = CNF.from_clauses([[1, 2], [2], [-3, 4], [4, -3, 5]])
        assert cnf.simplified().clauses == [frozenset({2}), frozenset({-3, 4})]

    def test_simplified_keeps_input_order_within_a_length(self):
        cnf = CNF.from_clauses([[3, 4], [1, 5, 6], [2], [1, 2], [5, 6], [1]])
        assert cnf.simplified().clauses == [
            frozenset({2}),
            frozenset({1}),
            frozenset({3, 4}),
            frozenset({5, 6}),
        ]

    def test_simplified_matches_pairwise_reference(self):
        for seed in CNF_SEEDS:
            cnf = random_cnf(seed)
            assert cnf.simplified().clauses == pairwise_simplified(cnf), (
                seed_note(seed)
            )

    def test_components_split_on_shared_variables(self):
        cnf = CNF.from_clauses([[1, 2], [2, 3], [4, 5]])
        components = cnf.components()
        sizes = sorted(component.variable_count for component in components)
        assert len(components) == 2
        assert sizes == [2, 3]

    def test_components_of_empty_formula(self):
        assert CNF().components() == []

    def test_str_rendering(self):
        text = str(CNF.from_clauses([[1, -2]]))
        assert "x1" in text and "¬x2" in text
        assert str(CNF()) == "⊤"
