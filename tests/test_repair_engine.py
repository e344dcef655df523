"""Unit tests for the public RepairEngine API, stability helpers, and containment."""

import importlib

import pytest

from repro import (
    Database,
    DeltaProgram,
    RepairEngine,
    Schema,
    Semantics,
    compare_results,
    fact,
    is_stable,
    verify_repair,
)
from repro.core.containment import ContainmentReport
from repro.core.semantics import (
    RepairResult,
    compute_repair,
    independent_semantics,
    step_semantics,
)
from repro.core.stability import violating_assignments
from repro.exceptions import ProgramValidationError
from repro.storage.database import stabilized_copy
from repro.storage.sqlite_backend import SQLiteDatabase
from repro.utils.timing import PhaseTimer

from tests.conftest import PAPER_PROGRAM_TEXT, make_paper_database


@pytest.fixture
def simple_setup():
    schema = Schema.from_arities({"R": 1, "S": 1})
    db = Database.from_dicts(schema, {"R": [(1,), (2,)], "S": [(1,)]})
    program = DeltaProgram.from_text("delta R(x) :- R(x), S(x).")
    return db, program


class TestRepairEngine:
    def test_repair_accepts_string_semantics(self, simple_setup):
        db, program = simple_setup
        engine = RepairEngine(db, program)
        assert engine.repair("end").size == 1
        assert engine.repair("ind").semantics is Semantics.INDEPENDENT

    def test_unknown_semantics_string_rejected(self, simple_setup):
        db, program = simple_setup
        with pytest.raises(ValueError):
            RepairEngine(db, program).repair("magic")

    def test_schema_validation_on_construction(self, simple_setup):
        db, _ = simple_setup
        bad_program = DeltaProgram.from_text("delta T(x) :- T(x).")
        with pytest.raises(ProgramValidationError):
            RepairEngine(db, bad_program)
        RepairEngine(db, bad_program, validate_schema=False)

    def test_accepts_plain_rule_iterables(self, simple_setup):
        db, program = simple_setup
        engine = RepairEngine(db, list(program.rules))
        assert engine.repair(Semantics.STAGE).size == 1

    def test_repair_all_returns_all_four(self, simple_setup):
        db, program = simple_setup
        results = RepairEngine(db, program).repair_all()
        assert set(results) == set(Semantics)

    def test_repair_all_subset(self, simple_setup):
        db, program = simple_setup
        results = RepairEngine(db, program).repair_all(semantics=["end", "stage"])
        assert set(results) == {Semantics.END, Semantics.STAGE}

    def test_compare_produces_report(self, simple_setup):
        db, program = simple_setup
        report = RepairEngine(db, program).compare("simple")
        assert isinstance(report, ContainmentReport)
        assert report.invariants_hold()
        assert report.name == "simple"

    def test_is_stable_and_stabilizing(self, simple_setup):
        db, program = simple_setup
        engine = RepairEngine(db, program)
        assert not engine.is_stable()
        assert engine.is_stabilizing_set({fact("S", 1)})
        assert not engine.is_stabilizing_set(set())

    def test_with_deletion_requests(self):
        """Seeding repairs on a stable database (Section 3.6's second mode)."""
        db = make_paper_database()
        cascade_only = DeltaProgram.from_text(
            """
            delta Author(a, n) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).
            delta Writes(a, p) :- Pub(p, t), Writes(a, p), delta Author(a, n).
            """,
        )
        engine = RepairEngine(db, cascade_only)
        assert engine.is_stable()
        seeded = engine.with_deletion_requests([fact("Grant", 2, "ERC")])
        result = seeded.repair(Semantics.STAGE)
        assert fact("Grant", 2, "ERC") in result.deleted
        assert result.size == 5

    def test_verify_flag_checks_results(self, simple_setup):
        db, program = simple_setup
        result = RepairEngine(db, program, verify=True).repair(Semantics.STEP)
        assert verify_repair(db, program, result)

    def test_engine_repr(self, simple_setup):
        db, program = simple_setup
        assert "rules=1" in repr(RepairEngine(db, program))

    def test_compute_repair_dispatch(self, simple_setup):
        db, program = simple_setup
        result = compute_repair(db, program, "step", method="exhaustive")
        assert result.metadata["method"] == "exhaustive"


class TestRepairResult:
    def test_result_reporting_helpers(self):
        engine = RepairEngine(
            make_paper_database(), DeltaProgram.from_text(PAPER_PROGRAM_TEXT),
        )
        result = engine.repair(Semantics.STAGE)
        by_relation = result.deleted_by_relation()
        assert by_relation["Author"] == {
            fact("Author", 4, "Marge"),
            fact("Author", 5, "Homer"),
        }
        assert "stage" in result.summary()
        assert result.runtime >= 0.0

    def test_contains_helper(self, simple_setup):
        db, program = simple_setup
        results = RepairEngine(db, program).repair_all()
        assert results[Semantics.END].contains(results[Semantics.STAGE])

    def test_deferred_repaired_is_built_once_on_first_read(self, simple_setup):
        db, program = simple_setup
        builds = []

        def build():
            builds.append(1)
            return db.clone()

        result = RepairResult(Semantics.END, frozenset(), repaired=build)
        assert builds == []
        first = result.repaired
        assert result.repaired is first
        assert builds == [1]
        with pytest.raises(AttributeError):
            result.missing_attribute


#: The repairs whose ``repaired`` copy is deferred, by name.
DEFERRED = {
    "step-greedy": lambda db, program: step_semantics(db, program),
    "step-exhaustive": lambda db, program: step_semantics(
        db, program, method="exhaustive",
    ),
    "independent": independent_semantics,
}


def choice_instance(backend: str):
    """A small cascade whose repairs choose between the A and B tuples."""
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
    if backend == "sqlite":
        db = SQLiteDatabase.from_database(db)
    return db, program


class TestRepairedOnDemand:
    """Step and independent build ``repaired`` on first read, from a snapshot."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("method", sorted(DEFERRED))
    def test_repaired_is_the_stabilized_copy(self, backend, method):
        db, program = choice_instance(backend)
        result = DEFERRED[method](db, program)
        assert result.deleted
        assert result.repaired.same_state_as(stabilized_copy(db, result.deleted))
        assert result.repaired is result.repaired
        assert verify_repair(db, program, result)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("method", sorted(DEFERRED))
    def test_later_edits_to_the_input_do_not_leak(self, backend, method):
        db, program = choice_instance(backend)
        result = DEFERRED[method](db, program)
        expected = stabilized_copy(db, result.deleted)
        db.insert(fact("C", 3))
        db.delete(fact("B", 2))
        db.drop_active(fact("A", 1))
        assert result.repaired.same_state_as(expected)
        assert not result.repaired.has_active(fact("C", 3))

    @pytest.mark.parametrize("method", sorted(DEFERRED))
    def test_first_read_calls_the_module_level_stabilized_copy(
        self, monkeypatch, method,
    ):
        # The benchmark trace rebinds ``stabilized_copy`` in the semantics
        # modules, so the deferred build must look the name up there.
        module = importlib.import_module(
            "repro.core.semantics."
            + ("independent" if method == "independent" else "step"),
        )
        original = module.stabilized_copy
        calls = []

        def counting(db, deleted):
            calls.append(1)
            return original(db, deleted)

        monkeypatch.setattr(module, "stabilized_copy", counting)
        db, program = choice_instance("memory")
        result = DEFERRED[method](db, program)
        searched = len(calls)  # the exhaustive search builds states too
        result.repaired
        result.repaired
        assert len(calls) == searched + 1


class TestStabilityHelpers:
    def test_violating_assignments_lists_each_violation(self, simple_setup):
        db, program = simple_setup
        found = violating_assignments(db, program)
        assert len(found) == 1
        assert found[0].derived == fact("R", 1)

    def test_is_stable_after_repair(self, simple_setup):
        db, program = simple_setup
        result = RepairEngine(db, program).repair(Semantics.END)
        assert is_stable(result.repaired, program)

    def test_verify_repair_detects_tampering(self, simple_setup):
        db, program = simple_setup
        result = RepairEngine(db, program).repair(Semantics.END)
        tampered = type(result)(
            semantics=result.semantics,
            deleted=frozenset(),
            repaired=db.clone(),
            timer=PhaseTimer(),
        )
        assert not verify_repair(db, program, tampered)


class TestContainmentReport:
    def test_missing_semantics_rejected(self, simple_setup):
        db, program = simple_setup
        partial = RepairEngine(db, program).repair_all(semantics=["end"])
        with pytest.raises(ValueError):
            compare_results(partial)

    def test_table3_row_and_describe(self, simple_setup):
        db, program = simple_setup
        report = RepairEngine(db, program).compare("p")
        name, step_eq, ind_stage, ind_step = report.table3_row()
        assert name == "p"
        assert isinstance(step_eq, bool)
        assert "|End|" in report.describe()
        assert report.size_map["end"] == 1
