"""Unit tests for independent semantics (Algorithm 1)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.semantics import Semantics, independent_semantics
from repro.core.stability import (
    is_stabilizing_set,
    minimum_stabilizing_set_bruteforce,
)
from repro.datalog.delta import DeltaProgram
from repro.storage.database import Database
from repro.storage.facts import fact
from repro.storage.schema import Schema

from tests.conftest import PAPER_PROGRAM_TEXT, make_paper_database


class TestPaperExample:
    def test_matches_example_3_4(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        result = independent_semantics(db, program)
        assert result.deleted == frozenset(
            {fact("Grant", 2, "ERC"), fact("AuthGrant", 4, 2), fact("AuthGrant", 5, 2)},
        )
        assert result.metadata["optimal"]
        assert result.semantics is Semantics.INDEPENDENT

    def test_result_is_stabilizing(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        result = independent_semantics(db, program)
        assert is_stabilizing_set(db, program, result.deleted)

    def test_matches_bruteforce_minimum_size(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        exact = minimum_stabilizing_set_bruteforce(db, program)
        result = independent_semantics(db, program)
        assert result.size == len(exact)

    def test_timer_has_three_phases(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        phases = independent_semantics(db, program).timer.phases
        assert set(phases) == {"eval", "process_prov", "solve"}

    def test_metadata_counts(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        metadata = independent_semantics(db, program).metadata
        assert metadata["clauses"] == 9
        assert metadata["provenance_variables"] >= 6
        assert metadata["solver_components"] >= 1

    def test_original_database_untouched(self):
        db = make_paper_database()
        independent_semantics(db, DeltaProgram.from_text(PAPER_PROGRAM_TEXT))
        assert db.count_delta() == 0


class TestSmallInstances:
    def test_stable_database_deletes_nothing(self):
        schema = Schema.from_arities({"R": 1, "S": 1})
        db = Database.from_dicts(schema, {"R": [(1,)], "S": []})
        program = DeltaProgram.from_text("delta R(x) :- R(x), S(x).")
        assert independent_semantics(db, program).size == 0

    def test_prefers_the_cheaper_side(self):
        """Proposition 3.20-1: Ind deletes the single shared tuple, not the n others."""
        schema = Schema.from_arities({"R1": 1, "R2": 1})
        db = Database.from_dicts(
            schema, {"R1": [(f"a{i}",) for i in range(5)], "R2": [("b",)]},
        )
        program = DeltaProgram.from_text("delta R1(x) :- R1(x), R2(y).")
        result = independent_semantics(db, program)
        assert result.deleted == frozenset({fact("R2", "b")})

    def test_may_delete_underivable_tuples(self):
        """The Ind result need not be contained in the derivable delta tuples."""
        schema = Schema.from_arities({"W": 2, "A": 1})
        db = Database.from_dicts(schema, {"W": [(1, 10), (1, 20)], "A": [(1,)]})
        program = DeltaProgram.from_text("delta W(a, p) :- W(a, p), A(a).")
        result = independent_semantics(db, program)
        assert result.deleted == frozenset({fact("A", 1)})

    def test_cascade_rules_make_cheap_deletions_unattractive(self):
        """Deleting the guard of a cascade rule triggers the cascade, so Ind avoids it
        when a smaller cut exists upstream."""
        schema = Schema.from_arities({"R": 1, "S": 1, "T": 1})
        db = Database.from_dicts(
            schema,
            {"R": [(1,)], "S": [(1,)], "T": [(i,) for i in range(4)]},
        )
        program = DeltaProgram.from_text(
            """
            delta R(x) :- R(x), S(x).
            delta T(y) :- T(y), delta R(x).
            """,
        )
        result = independent_semantics(db, program)
        # Deleting S(1) stabilizes at cost 1; deleting R(1) would force all T tuples too.
        assert result.deleted == frozenset({fact("S", 1)})

    def test_matches_bruteforce_on_random_small_instances(self):
        schema = Schema.from_arities({"R": 2, "S": 1})
        db = Database.from_dicts(
            schema, {"R": [(1, 2), (2, 3), (3, 1), (2, 2)], "S": [(1,), (2,), (3,)]},
        )
        program = DeltaProgram.from_text(
            """
            delta S(x) :- S(x), S(y), R(x, y).
            delta R(x, y) :- R(x, y), delta S(x).
            """,
        )
        exact = minimum_stabilizing_set_bruteforce(db, program, max_tuples=16)
        result = independent_semantics(db, program)
        assert result.size == len(exact)
        assert is_stabilizing_set(db, program, result.deleted)

    def test_greedy_limit_still_returns_stabilizing_set(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        result = independent_semantics(db, program, exact_variable_limit=1)
        assert not result.metadata["optimal"]
        assert is_stabilizing_set(db, program, result.deleted)


#: Runs independent semantics on the inputs whose solver statistics once
#: followed the hash order of fact sets, and prints deleted sets and metadata.
HASH_SEED_PROBE = """
import json, random
from repro.core.semantics import independent_semantics
from tests.generators import random_instance, random_torture_spec

inputs = {f"instance {seed}": random_instance(seed) for seed in (65, 81, 101, 138, 174)}
inputs["torture spec 50"] = random_torture_spec(random.Random(50)).build()
report = {}
for name, (db, program) in inputs.items():
    result = independent_semantics(db, program)
    report[name] = {
        "deleted": sorted(repr(item) for item in result.deleted),
        "metadata": result.metadata,
    }
print(json.dumps(report, sort_keys=True))
"""


class TestHashSeedIndependence:
    def test_results_and_metadata_do_not_depend_on_the_hash_seed(self):
        root = Path(__file__).resolve().parents[1]
        reports = []
        for hash_seed in ("0", "5"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            completed = subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE],
                cwd=root, env=env, capture_output=True, text=True, check=True,
            )
            reports.append(json.loads(completed.stdout))
        assert reports[0] == reports[1]
