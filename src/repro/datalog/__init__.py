"""Non-recursive datalog engine and the delta-rule framework built on it.

The paper (Section 2) uses standard non-recursive (bounded) datalog programs
whose intensional relations are all *delta relations* ``ΔR``.  This package
provides:

* :mod:`repro.datalog.ast` — terms, atoms, comparisons, rules, programs;
* :mod:`repro.datalog.parser` — a textual syntax for rules and programs;
* :mod:`repro.datalog.delta` — delta programs: validation per Definition 3.1,
  deletion-request rules (the paper's rule (0)), DC translation hooks;
* :mod:`repro.datalog.evaluation` — assignment enumeration, the naive oracle
  closure, and the ``engine=`` dispatch;
* :mod:`repro.datalog.seminaive` — the semi-naive, delta-driven fixpoint
  engine (the default for in-memory databases);
* :mod:`repro.datalog.sql_seminaive` — the SQL-level semi-naive engine for
  SQLite-backed databases (frontier tables + generation windows, single-pass
  staged rounds);
* :mod:`repro.datalog.context` — the shared evaluation context: cross-run
  plan/variant caches and query statistics;
* :mod:`repro.datalog.planner` — per-rule join planning with cached plans;
* :mod:`repro.datalog.analysis` — dependency graphs, recursion detection,
  relation stratification;
* :mod:`repro.datalog.sql_compiler` — compilation of rule bodies to SQL joins
  for the SQLite backend, naive and delta-rewritten.
"""

from repro.datalog.ast import (
    Atom,
    Comparison,
    Constant,
    Program,
    Rule,
    Term,
    Variable,
)
from repro.datalog.delta import DeltaProgram, deletion_request_rule
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.evaluation import (
    Assignment,
    ClosureResult,
    ENGINE_AUTO,
    ENGINE_NAIVE,
    ENGINE_SEMI_NAIVE,
    derive_closure,
    find_assignments,
    resolve_engine,
    run_closure,
    validate_engine,
)
from repro.datalog.context import EvalContext, QueryStats
from repro.datalog.planner import JoinPlan, JoinPlanner

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "Comparison",
    "Rule",
    "Program",
    "DeltaProgram",
    "deletion_request_rule",
    "parse_program",
    "parse_rule",
    "Assignment",
    "ClosureResult",
    "find_assignments",
    "derive_closure",
    "run_closure",
    "resolve_engine",
    "validate_engine",
    "EvalContext",
    "QueryStats",
    "JoinPlan",
    "JoinPlanner",
    "ENGINE_AUTO",
    "ENGINE_NAIVE",
    "ENGINE_SEMI_NAIVE",
]
