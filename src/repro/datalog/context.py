"""Shared evaluation context: plan caches and query stats.

One :class:`EvalContext` groups a family of fixpoint runs that should share
their planning work — typically the four semantics of one
:class:`~repro.core.repair.RepairEngine.compare` call, which evaluate the same
program against clones of the same database.  The context carries two kinds
of shared state:

* **plan caches** — a structural :class:`~repro.datalog.planner.JoinPlan`
  cache handed to every in-memory :class:`~repro.datalog.planner.JoinPlanner`
  the context creates (:meth:`planner`), and a per-rule cache of compiled
  frontier variants for the SQLite engine (:meth:`frontier_variants`), so one
  ``compare()`` run plans each rule structure and compiles each rule exactly
  once across all four semantics;
* **query statistics** (:class:`QueryStats`) — counters the SQL driver bumps
  per executed statement class, used by the regression tests and the benchmark
  smoke run to assert that every rule variant's join runs exactly once per
  round (no double-join).

Assignments leave a run only through the per-call ``on_assignment`` hook and
the returned :class:`~repro.datalog.evaluation.ClosureResult`; the context
carries no subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datalog.ast import Rule
    from repro.datalog.planner import JoinPlanner
    from repro.datalog.sql_compiler import FrontierQuery
    from repro.storage.database import BaseDatabase


@dataclass
class QueryStats:
    """Per-statement-class counters for the SQLite semi-naive driver.

    Attributes
    ----------
    staged_selects:
        Keyed ``INSERT INTO _repro_stage_wN ... SELECT`` statements — one
        *join* each; the staged rows then feed the assignment consumers
        (``collect_assignments`` / ``on_assignment``) and the install.
    stage_ddl:
        ``CREATE TEMP TABLE``/``CREATE INDEX`` statements creating a keyed
        stage table — at most one table per distinct variant width per
        connection; steady-state rounds issue none (the zero-DDL discipline
        the staging tests assert).
    staged_installs:
        ``INSERT OR IGNORE ... SELECT ... FROM`` the stage table — a scan of
        the staged rows, **not** a join over the base tables.
    direct_installs:
        Fast-path ``INSERT OR IGNORE ... SELECT`` over the base tables — one
        join each, used when nothing consumes the assignments.
    assignment_selects:
        Plain streaming assignment ``SELECT`` joins run under a context — the
        maintenance discovery path
        (:func:`~repro.datalog.sql_seminaive.seeded_assignments_sql`).
    replans:
        Join plans rebuilt by round-boundary re-costing: the in-memory
        planner detected that a relation's extent drifted past the
        :data:`~repro.datalog.planner.DRIFT_FACTOR` band around the
        cardinalities its cached plan was costed with, and re-costed the
        plan in the shared structural cache.
    effective_shards, collapsed_rounds, shard_selects:
        Never incremented; always zero.  Kept because the frozen
        ``benchmarks/repair_bench`` harness reads them by name.
    replay_batches:
        Bounded chunks in which staged rows were read back into Python for
        the assignment consumers
        (:data:`~repro.datalog.sql_seminaive.STAGE_REPLAY_CHUNK` rows per
        chunk) instead of one unbounded Python round trip.
    variant_compiles:
        Distinct rules whose frontier variants this context resolved (cache
        misses of :meth:`EvalContext.frontier_variants`).  This counts
        *per-context* first sightings — the compilation itself is also
        memoised process-wide by the ``lru_cache`` on
        :func:`~repro.datalog.sql_compiler.compile_frontier_rule`, so a miss
        here is cheap; the counter exists to make sharing observable in
        tests, not to measure compile cost.  Keyed per ``(rule, plan kind)``
        since the wcoj lowering compiles distinct SQL.
    wcoj_rules:
        Plan builds the in-memory planner classified as worst-case-optimal
        (``plan_kind="wcoj"``) — once per build, so round-boundary re-costing
        that re-confirms the kind counts again.
    wcoj_intersections:
        Variable-level leapfrog intersection steps the generic-join driver
        performed (one per variable binding frontier explored).  Updated by
        the in-memory wcoj driver only; SQLite wcoj statements are observable
        through the ``/* repro:wcoj */`` statement tag instead.
    width_estimates:
        Width classifications performed (GYO reduction + AGM-vs-binary cost
        comparison) — one per plan build over a body with ≥ 2 atoms.
    maintained_batches:
        Insert/delete batches absorbed incrementally by a
        :class:`~repro.service.RepairService` (one per
        :meth:`~repro.service.RepairService.apply` call) instead of a full
        re-fixpoint.
    overdeleted:
        Delta facts the DRed deletion pass over-deleted — facts with at least
        one derivation transitively touching a deleted base fact, each a
        re-derivation candidate.
    rederived:
        The subset of :attr:`overdeleted` rescued by the re-derivation pass
        (an alternative derivation avoiding the deleted facts survived); the
        difference ``overdeleted - rederived`` left the delta extent.
    counted_deletes:
        Deletion batches fully decided by the counting fast path: every killed
        assignment's derived fact kept a positive *base-only* support count,
        so the DRed over-delete / re-derive detour was skipped entirely.
    dred_fallbacks:
        Deletion batches where support counts alone could not prove every
        affected fact alive, so the exact DRed passes ran (with counting-based
        pruning of provably alive facts when enabled).
    """

    staged_selects: int = 0
    stage_ddl: int = 0
    staged_installs: int = 0
    direct_installs: int = 0
    assignment_selects: int = 0
    replans: int = 0
    variant_compiles: int = 0
    # Never incremented; benchmarks/repair_bench reads them by name.
    effective_shards: int = 0
    collapsed_rounds: int = 0
    shard_selects: int = 0
    replay_batches: int = 0
    wcoj_rules: int = 0
    wcoj_intersections: int = 0
    width_estimates: int = 0
    maintained_batches: int = 0
    overdeleted: int = 0
    rederived: int = 0
    counted_deletes: int = 0
    dred_fallbacks: int = 0

    def joins(self) -> int:
        """Total statements that join the base/frontier tables."""
        return self.staged_selects + self.direct_installs + self.assignment_selects

    def reset(self) -> None:
        """Reset every counter to its default (the benchmark reuses one
        context per run)."""
        for counter in fields(self):
            setattr(self, counter.name, counter.default)


@dataclass
class EvalContext:
    """Shared cross-run evaluation state (see module docstring).

    A context is cheap to create and safe to drop; every fixpoint entry point
    creates a private one when the caller does not pass ``context=``.  Sharing
    only ever reuses *structural* artefacts (join orders keyed on rule shape,
    compiled SQL keyed on the rule), so one context may span databases with
    different contents — e.g. the per-semantics clones of a ``compare()`` run.
    """

    stats: QueryStats = field(default_factory=QueryStats)
    _plans: Dict = field(default_factory=dict, repr=False)
    _variants: Dict = field(default_factory=dict, repr=False)

    # -- planning ---------------------------------------------------------------

    def planner(self, db: "BaseDatabase") -> "JoinPlanner":
        """A planner for ``db`` backed by this context's shared plan cache.

        Cardinality estimates stay per-planner (they describe one database
        instance); the structural plan dictionary is shared, so every planner
        the context hands out benefits from plans built by the others.
        Planners created through a context also re-cost cached plans at round
        boundaries (see :meth:`~repro.datalog.planner.JoinPlanner.begin_round`)
        and record every rebuild in :attr:`QueryStats.replans`.
        """
        from repro.datalog.planner import JoinPlanner

        return JoinPlanner(db, plans=self._plans, stats=self.stats)

    def plan_cache_size(self) -> int:
        """Number of distinct rule structures planned so far."""
        return len(self._plans)

    def frontier_variants(
        self, rule: "Rule",
    ) -> Tuple["FrontierQuery", Tuple["FrontierQuery", ...]]:
        """The compiled ``(full, seeded)`` SQL variants of ``rule``, cached.

        The first request per rule resolves the variants (and counts a
        :attr:`QueryStats.variant_compiles`); later requests — including from
        other semantics sharing the context — return the cached tuple.  The
        per-context dict sits on top of the process-wide ``lru_cache`` of
        :func:`~repro.datalog.sql_compiler.compile_frontier_rule`: it pins
        the variants against lru eviction for the context's lifetime and
        gives the tests a deterministic sharing signal.  The cache key
        includes the resolved plan kind so flipping ``REPRO_FORCE_PLAN``
        mid-process can never serve a stale lowering.
        """
        from repro.datalog.sql_compiler import (
            compile_frontier_rule,
            resolve_plan_kind,
        )

        key = (rule, resolve_plan_kind(rule))
        cached = self._variants.get(key)
        if cached is None:
            self.stats.variant_compiles += 1
            cached = compile_frontier_rule(rule, plan_kind=key[1])
            self._variants[key] = cached
        return cached
