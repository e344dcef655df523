"""Unit tests for step semantics (greedy Algorithm 2 and the exhaustive search)."""

import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.core.semantics import (
    Semantics,
    end_semantics,
    independent_semantics,
    stage_semantics,
    step_semantics,
)
from repro.core.stability import is_stabilizing_set, verify_repair
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import Assignment
from repro.exceptions import SemanticsError
from repro.provenance.graph import ProvenanceGraph, build_provenance_graph
from repro.storage.database import Database
from repro.storage.facts import Fact, fact
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import SQLiteDatabase
from repro.utils.rng import stable_hash

from tests.conftest import PAPER_PROGRAM_TEXT, make_paper_database
from tests.generators import (
    PROPERTY_SCALE,
    differential_seeds,
    random_instance,
    random_torture_spec,
    seed_note,
)

#: Random inputs checked against the prune-loop reference (x ``PROPERTY_SCALE``).
INSTANCE_SEEDS = differential_seeds(200 * PROPERTY_SCALE)
TORTURE_SEEDS = differential_seeds(150 * PROPERTY_SCALE)


def prune_loop_traverse(provenance: ProvenanceGraph) -> Tuple[Set[Fact], Set[Fact]]:
    """Reference traverse of Algorithm 2: the chosen and the pruned delta tuples.

    It re-takes the layer's maximum after every choice and re-checks every
    derivation until pruning is stable.
    """
    chosen: Set[Fact] = set()
    removed: Set[Fact] = set()
    assignments_of: Dict[Fact, List[Assignment]] = {}
    for assignment in provenance.assignments:
        assignments_of.setdefault(assignment.derived, []).append(assignment)

    def is_voided(assignment: Assignment, target: Fact) -> bool:
        for item in assignment.base_facts():
            if item in chosen and item != target:
                return True
        return any(item in removed for item in assignment.delta_facts())

    def prune() -> None:
        changed = True
        while changed:
            changed = False
            for target in provenance.derived:
                if target in chosen or target in removed:
                    continue
                derivations = assignments_of.get(target, [])
                if derivations and all(
                    is_voided(assignment, target) for assignment in derivations
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
    return chosen, removed


def assert_matches_prune_loop(db, program, note: str) -> None:
    result = step_semantics(db, program)
    chosen, removed = prune_loop_traverse(build_provenance_graph(db, program))
    assert result.deleted == chosen, note
    assert result.metadata["pruned_delta_tuples"] == len(removed), note


def small_choice_instance():
    """Proposition 3.20-4 part 1: step can fire one rule and block the other."""
    schema = Schema.from_arities({"R1": 1, "R2": 1})
    db = Database.from_dicts(
        schema, {"R1": [("a",)], "R2": [(f"b{i}",) for i in range(3)]},
    )
    program = DeltaProgram.from_text(
        """
        delta R1(x) :- R1(x), R2(y).
        delta R2(y) :- R1(x), R2(y).
        """,
    )
    return db, program


class TestGreedyStep:
    def test_paper_example_matches_example_5_2(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        result = step_semantics(db, program)
        assert result.deleted == frozenset(
            {
                fact("Grant", 2, "ERC"),
                fact("Author", 4, "Marge"),
                fact("Author", 5, "Homer"),
                fact("Writes", 4, 6),
                fact("Writes", 5, 7),
            },
        )
        assert result.metadata["method"] == "greedy"

    def test_result_is_stabilizing(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        result = step_semantics(db, program)
        assert is_stabilizing_set(db, program, result.deleted)

    def test_metadata_reports_provenance_size(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        result = step_semantics(db, program)
        assert result.metadata["provenance_assignments"] == 8
        assert result.metadata["pruned_delta_tuples"] == 3  # p1, p2 and c

    def test_timer_has_three_phases(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        timer_phases = step_semantics(db, program).timer.phases
        assert set(timer_phases) == {"eval", "process_prov", "traverse"}

    def test_greedy_beats_stage_on_same_body_rules(self):
        db, program = small_choice_instance()
        step = step_semantics(db, program)
        stage = stage_semantics(db, program)
        assert step.size < stage.size
        assert step.size == 1

    def test_stable_database_returns_empty(self):
        schema = Schema.from_arities({"R": 1, "S": 1})
        db = Database.from_dicts(schema, {"R": [(1,)], "S": []})
        program = DeltaProgram.from_text("delta R(x) :- R(x), S(x).")
        assert step_semantics(db, program).size == 0

    def test_unknown_method_rejected(self):
        db, program = small_choice_instance()
        with pytest.raises(SemanticsError):
            step_semantics(db, program, method="magic")

    def test_original_database_untouched(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        step_semantics(db, program)
        assert db.count_delta() == 0


class TestTraverse:
    def test_one_choice_prunes_a_chain(self):
        # A(1) (benefit 2) beats T(1) (benefit 1) in layer 1 and voids both
        # derivations of ΔT(1); pruning T(1) voids ΔB(1)'s only derivation,
        # and pruning B(1) in turn voids ΔC(1)'s.
        schema = Schema.from_arities({"A": 1, "T": 1, "B": 1, "C": 1})
        db = Database.from_dicts(
            schema, {"A": [(1,)], "T": [(1,)], "B": [(1,)], "C": [(1,)]},
        )
        program = DeltaProgram.from_text(
            """
            delta A(x) :- A(x), T(x).
            delta T(x) :- T(x), A(x).
            delta B(x) :- B(x), delta T(x).
            delta C(x) :- C(x), delta B(x).
            """,
        )
        result = step_semantics(db, program)
        assert result.deleted == {fact("A", 1)}
        assert result.metadata["pruned_delta_tuples"] == 3
        assert result.rounds == 3
        assert_matches_prune_loop(db, program, "chain")

    def test_benefit_tie_goes_to_the_smaller_stable_hash(self):
        # R(1) and S(1) share layer 1 and benefit 2; either choice voids the
        # other's derivations, so only the first pick is deleted.
        schema = Schema.from_arities({"R": 1, "S": 1})
        db = Database.from_dicts(schema, {"R": [(1,)], "S": [(1,)]})
        program = DeltaProgram.from_text(
            """
            delta R(x) :- R(x), S(x).
            delta S(x) :- S(x), R(x).
            """,
        )
        graph = build_provenance_graph(db, program)
        tied = graph.tuples_in_layer(1)
        assert len(tied) == 2
        assert {graph.benefit(item) for item in tied} == {2}
        first = min(tied, key=lambda item: stable_hash(item.relation, item.values))
        result = step_semantics(db, program)
        assert result.deleted == {first}
        assert result.metadata["pruned_delta_tuples"] == 1
        assert_matches_prune_loop(db, program, "tie")

    @pytest.mark.parametrize("seed", INSTANCE_SEEDS)
    def test_matches_prune_loop_on_random_instances(self, seed):
        db, program = random_instance(seed)
        assert_matches_prune_loop(db, program, seed_note(seed))

    @pytest.mark.parametrize("seed", TORTURE_SEEDS)
    def test_matches_prune_loop_on_torture_specs(self, seed):
        db, program = random_torture_spec(random.Random(seed)).build()
        assert_matches_prune_loop(db, program, seed_note(seed))


class TestRecordedDeletions:
    """Inputs whose delta relations already hold deletions."""

    def test_recorded_deletion_is_layer_0(self):
        schema = Schema.from_arities({"R": 1, "S": 1})
        db = Database.from_dicts(schema, {"R": [(1,)], "S": [(1,)]})
        db.delete(Fact("R", (1,)))
        program = DeltaProgram.from_text("delta S(x) :- S(x), delta R(x).")
        assert build_provenance_graph(db, program).layers == {fact("S", 1): 1}
        for compute in (end_semantics, stage_semantics, independent_semantics):
            assert compute(db, program).deleted == {fact("S", 1)}, compute.__name__
        result = step_semantics(db, program)
        assert result.deleted == {fact("S", 1)}
        assert result.rounds == 1
        assert verify_repair(db, program, result)

    def test_recorded_deletion_is_never_pruned(self):
        # R(1) is recorded but still active.  T(1) (benefit 2) goes first and
        # voids both derivations of ΔR(1); ΔR(1) stays in Δ regardless, so
        # S(1), which reads it, must still be deleted.
        schema = Schema.from_relations(
            [RelationSchema.of(name, "x:int") for name in ("R", "T", "S")],
        )
        db = Database.from_dicts(schema, {"R": [(1,)], "T": [(1,)], "S": [(1,)]})
        db.mark_deleted(Fact("R", (1,)))
        program = DeltaProgram.from_text(
            """
            delta R(x) :- R(x), T(x).
            delta T(x) :- T(x), R(x).
            delta S(x) :- S(x), delta R(x).
            """,
        )
        for backend in (db, SQLiteDatabase.from_database(db)):
            result = step_semantics(backend, program)
            assert fact("T", 1) in result.deleted
            assert fact("S", 1) in result.deleted
            assert result.metadata["pruned_delta_tuples"] == 0
            assert verify_repair(backend, program, result)


class TestExhaustiveStep:
    def test_finds_minimum_firing_sequence(self):
        db, program = small_choice_instance()
        result = step_semantics(db, program, method="exhaustive")
        assert result.size == 1
        assert result.metadata["method"] == "exhaustive"

    def test_matches_greedy_on_paper_example(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        exact = step_semantics(db, program, method="exhaustive")
        greedy = step_semantics(db, program, method="greedy")
        assert exact.size == 5
        assert greedy.size == exact.size

    def test_greedy_never_beats_exhaustive(self):
        """The exhaustive search is the ground truth; greedy is an upper bound."""
        schema = Schema.from_arities({"A": 1, "B": 1, "C": 1})
        db = Database.from_dicts(
            schema, {"A": [(1,), (2,)], "B": [(1,), (2,)], "C": [(1,)]},
        )
        program = DeltaProgram.from_text(
            """
            delta A(x) :- A(x), B(x).
            delta B(x) :- A(x), B(x).
            delta C(x) :- C(x), delta A(x).
            """,
        )
        exact = step_semantics(db, program, method="exhaustive")
        greedy = step_semantics(db, program, method="greedy")
        assert exact.size <= greedy.size
        assert is_stabilizing_set(db, program, greedy.deleted)

    def test_state_budget_guard(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        with pytest.raises(SemanticsError):
            step_semantics(db, program, method="exhaustive", max_states=2)

    def test_step_subset_of_end_on_paper_example(self):
        from repro.core.semantics import end_semantics

        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        step = step_semantics(db, program)
        end = end_semantics(db, program)
        assert step.deleted <= end.deleted

    def test_semantics_tag(self):
        db, program = small_choice_instance()
        assert step_semantics(db, program).semantics is Semantics.STEP
