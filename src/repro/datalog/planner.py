"""Per-rule join planning for the tuple-at-a-time evaluator.

The naive evaluator re-picks "the most constrained remaining atom" at every
recursion node of every assignment search.  That scan is quadratic in the body
length per produced binding and, worse, ignores relation sizes entirely.  This
module computes a **static join order once per (rule, seed atom)** and caches
it, in the spirit of the classic selectivity-driven planners (and of the
worst-case-optimal join literature, where the variable/atom order is fixed up
front from the query structure):

* atoms whose variables are already bound (connected to the prefix) are
  preferred — they act as hash-joins on the per-attribute indexes rather than
  cross products;
* among equally connected atoms the one over the smallest extent comes first,
  so intermediate results stay small;
* ties fall back to body order for determinism.

A plan is keyed by the rule's *structure* (relations, delta flags and variable
positions) rather than by the rule object, so rules that differ only in the
constant values they mention — e.g. the per-event probe rules the trigger
baseline builds, or the per-tuple deletion requests of Section 3.6 — share a
single cached plan.

Round-boundary re-costing
-------------------------

A cached plan remembers the cardinalities it was costed with
(:attr:`JoinPlan.cost_snapshot`).  Delta extents start near-empty and can grow
by orders of magnitude across a deep cascade, so a join order that was right
in round 2 may be badly wrong by round 10.  The semi-naive frontier loop calls
:meth:`JoinPlanner.begin_round` at every round boundary, which drops the
planner's per-round cardinality cache; the next :meth:`JoinPlanner.plan`
request for a cached plan then compares the *current* extents against the
snapshot and rebuilds the plan when any relation drifted past the
:data:`DRIFT_FACTOR` band (in either direction).  Rebuilt plans replace their
predecessor in the (possibly context-shared) structural cache — sharing is
preserved, only the costing is refreshed — and every rebuild is recorded in
:attr:`~repro.datalog.context.QueryStats.replans` when the planner was created
through an :class:`~repro.datalog.context.EvalContext`.  Without a
``begin_round`` call the cardinality cache never refreshes and the planner
behaves exactly as before (plans are permanent).

Width-aware plan kinds
----------------------

Binary join orders are provably suboptimal on *cyclic* rule bodies: a
triangle ``R(x,y), R(y,z), R(z,x)`` over ``N`` facts can produce ``Θ(N²)``
intermediate pairs even though at most ``O(N^1.5)`` triangles exist (the AGM
bound).  The planner therefore classifies every body with at least two
relational atoms into a ``plan_kind``:

* ``"binary"`` — the classic one-atom-at-a-time order above;
* ``"wcoj"`` — a variable-at-a-time generic join (:mod:`repro.datalog.wcoj`
  in memory, ``CROSS JOIN``-pinned multiway joins on SQLite).

Classification runs a GYO reduction on the body's join hypergraph
(:func:`cyclic_core`); acyclic bodies always stay binary.  For a cyclic body
the planner compares a cardinality-based AGM estimate — the product of the
extents of a greedy fractional-edge-cover of the cyclic core — against the
binary plan's first-join cost estimate, and picks ``wcoj`` when the AGM
estimate is no worse.  The decision is re-taken by the same round-boundary
re-costing machinery that refreshes join orders, so a rule can switch kinds
as delta extents grow.  ``REPRO_FORCE_PLAN=binary|wcoj`` (read per plan
build) overrides the heuristic for differential testing; hypothetical plans
(independent semantics) always stay binary because wcoj tries cover single
extents, not the active ∪ delta union.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, Tuple

from repro.datalog.ast import Constant, Rule, Variable
from repro.storage.database import BaseDatabase

#: Marker used in plan keys for constant positions (the value is irrelevant
#: to the plan: any constant is an equality constraint on that position).
_CONST = "\0const"

#: Re-cost a cached plan when some scanned extent grew or shrank by at least
#: this factor relative to the plan's cost snapshot.  Join orders only change
#: on large relative swings (the planner compares sizes, not estimates), so a
#: wide band keeps replans rare and ping-ponging impossible within a round.
DRIFT_FACTOR = 4.0

#: Environment knob forcing every eligible rule onto one plan kind
#: (``binary`` or ``wcoj``); read at each plan build so tests can flip it.
PLAN_ENV = "REPRO_FORCE_PLAN"

#: The two plan kinds (see module docstring, *Width-aware plan kinds*).
PLAN_BINARY = "binary"
PLAN_WCOJ = "wcoj"


def env_forced_plan() -> str | None:
    """The plan kind forced via :data:`PLAN_ENV`, or None when unset/invalid."""
    forced = os.environ.get(PLAN_ENV, "").strip().lower()
    return forced if forced in (PLAN_BINARY, PLAN_WCOJ) else None


@lru_cache(maxsize=4096)
def _gyo_core(edges: Tuple[FrozenSet[str], ...]) -> Tuple[int, ...]:
    """Indices of the hyperedges surviving a GYO reduction (empty = acyclic).

    Classic Graham/Yu–Özsoyoğlu ear removal: repeatedly delete vertices that
    occur in exactly one edge and edges contained in another edge (of a pair
    of equal edges only the later one is dropped).  The reduction empties the
    hypergraph iff it is α-acyclic; whatever survives is the cyclic core.
    """
    alive: Dict[int, set] = {
        index: set(edge) for index, edge in enumerate(edges) if edge
    }
    changed = True
    while changed and alive:
        changed = False
        counts: Dict[str, int] = {}
        for vertices in alive.values():
            for vertex in vertices:
                counts[vertex] = counts.get(vertex, 0) + 1
        for vertices in alive.values():
            isolated = {v for v in vertices if counts[v] == 1}
            if isolated:
                vertices -= isolated
                changed = True
        for index in [i for i, vertices in alive.items() if not vertices]:
            del alive[index]
            changed = True
        for index in sorted(alive, reverse=True):
            vertices = alive[index]
            for other, theirs in alive.items():
                if other != index and vertices <= theirs and (
                    vertices < theirs or other < index
                ):
                    del alive[index]
                    changed = True
                    break
    return tuple(sorted(alive))


def cyclic_core(rule: Rule) -> Tuple[int, ...]:
    """Body-atom indices forming the cyclic core of ``rule`` (empty = acyclic)."""
    return _gyo_core(tuple(atom.variable_names() for atom in rule.body))


@dataclass(frozen=True)
class JoinPlan:
    """A static join order for one rule body.

    Attributes
    ----------
    order:
        Body-atom indices in the order the evaluator should match them.  When
        the plan was seeded, the seed atom's index comes first.
    seed:
        The body-atom index the plan assumes is matched first (from the
        delta frontier), or None for a full evaluation plan.
    cost_snapshot:
        The ``((relation, delta), size)`` cardinalities the plan was costed
        with, used by round-boundary re-costing to detect drift.  Empty for
        hand-built plans (never re-costed).
    kind:
        ``"binary"`` or ``"wcoj"`` (see module docstring, *Width-aware plan
        kinds*).  Defaults to binary so hand-built plans keep working.
    var_order:
        For wcoj plans: the global variable elimination order the generic
        join binds variables in (seed-atom variables first, then descending
        atom-degree).  Empty for binary plans.
    width:
        The fractional-cover width estimate of the cyclic core (e.g. 1.5 for
        a triangle); 1.0 for acyclic/binary plans.  Informational.
    """

    order: Tuple[int, ...]
    seed: int | None = None
    cost_snapshot: Tuple[Tuple[Tuple[str, bool], int], ...] = field(
        default=(), compare=False,
    )
    kind: str = PLAN_BINARY
    var_order: Tuple[str, ...] = field(default=(), compare=False)
    width: float = field(default=1.0, compare=False)


def _atom_shape(atom) -> tuple:
    """The plan-relevant shape of an atom: relation, delta flag, term pattern."""
    return (
        atom.relation,
        atom.is_delta,
        tuple(
            term.name if isinstance(term, Variable) else _CONST for term in atom.terms
        ),
    )


def plan_key(rule: Rule, seed: int | None, hypothetical: bool) -> Hashable:
    """Cache key identifying every rule with the same body structure."""
    return (
        tuple(_atom_shape(atom) for atom in rule.body),
        seed,
        hypothetical,
    )


class JoinPlanner:
    """Computes and caches :class:`JoinPlan` objects against one database.

    One planner is created per evaluation session (a closure run, a trigger
    cascade, a provenance build...) so the cardinalities it reads reflect the
    instance being evaluated; plans are cached on first use and reused for
    every later round.

    ``plans`` optionally injects a shared plan dictionary — the handle an
    :class:`~repro.datalog.context.EvalContext` passes so that the planners of
    one ``RepairEngine.compare()`` run (one per semantics, each over its own
    clone) reuse each other's join orders.  Plans are keyed purely on rule
    *structure*, so sharing them across clones of the same database is sound;
    only the cardinality snapshots stay per-planner.  ``stats`` (a
    :class:`~repro.datalog.context.QueryStats`) records round-boundary
    replans.
    """

    __slots__ = (
        "_db",
        "_plans",
        "_cardinalities",
        "_stats",
        "_recost_armed",
    )

    def __init__(
        self,
        db: BaseDatabase,
        plans: Dict[Hashable, JoinPlan] | None = None,
        stats=None,
    ) -> None:
        self._db = db
        self._plans: Dict[Hashable, JoinPlan] = plans if plans is not None else {}
        self._cardinalities: Dict[tuple[str, bool], int] = {}
        self._stats = stats
        #: Drift checks only arm after the first :meth:`begin_round` on *this*
        #: planner: a fresh planner over a different database instance must
        #: not re-cost plans a sibling put into a shared cache (plans stay
        #: permanent for round-less consumers like the trigger probes).
        self._recost_armed = False

    # -- cardinality estimates -------------------------------------------------

    def _cardinality(self, relation: str, delta: bool, hypothetical: bool) -> int:
        """Extent size the atom will scan, cached at first use."""
        if delta and hypothetical:
            return self._cardinality(relation, False, False) + self._cardinality(
                relation, True, False,
            )
        key = (relation, delta)
        size = self._cardinalities.get(key)
        if size is None:
            size = (
                self._db.count_delta(relation)
                if delta
                else self._db.count_active(relation)
            )
            self._cardinalities[key] = size
        return size

    # -- planning ---------------------------------------------------------------

    def begin_round(self) -> None:
        """Mark a round boundary: drop the cardinality cache so the next
        :meth:`plan` request re-reads extents and can detect drift.

        Called by the in-memory frontier loops (the closure and insert
        propagation) before each delta round; cheap — cardinality reads
        within the round stay memoised.  The first call also arms drift
        re-costing for this planner; until then cached plans are returned
        untouched.
        """
        self._cardinalities.clear()
        self._recost_armed = True

    def plan(
        self, rule: Rule, seed: int | None = None, hypothetical: bool = False,
    ) -> JoinPlan:
        """The join order for ``rule``, optionally seeded at body atom ``seed``.

        After :meth:`begin_round` has armed re-costing, a cached plan is
        returned as-is unless its cost snapshot has drifted past the
        :data:`DRIFT_FACTOR` band, in which case it is re-costed in place
        (shared caches see the refreshed plan too) and the rebuild is counted
        in ``stats.replans``.  An unarmed planner (no round boundary crossed
        yet) never re-costs, so sharing a plan cache across database
        instances of different sizes cannot make round-less consumers thrash
        each other's plans.
        """
        key = plan_key(rule, seed, hypothetical)
        cached = self._plans.get(key)
        if cached is not None and not (
            self._recost_armed and self._drifted(cached, hypothetical)
        ):
            return cached
        plan = self._build_plan(rule, seed, hypothetical)
        self._plans[key] = plan
        if cached is not None and self._stats is not None:
            self._stats.replans += 1
        return plan

    @property
    def stats(self):
        """The :class:`~repro.datalog.context.QueryStats` sink, or None."""
        return self._stats

    def _drifted(self, plan: JoinPlan, hypothetical: bool) -> bool:
        """True when some extent of ``plan``'s snapshot drifted past the band."""
        for (relation, delta), old in plan.cost_snapshot:
            new = self._cardinality(relation, delta, hypothetical)
            low, high = max(old, 1), max(new, 1)
            if low > high:
                low, high = high, low
            if high >= DRIFT_FACTOR * low:
                return True
        return False

    def _build_plan(self, rule: Rule, seed: int | None, hypothetical: bool) -> JoinPlan:
        body = rule.body
        bound: set[str] = set()
        order: list[int] = []
        #: Extents read while costing, keyed (relation, delta) — the snapshot
        #: round-boundary re-costing compares against.
        costed: Dict[tuple[str, bool], int] = {}
        if seed is not None:
            order.append(seed)
            bound.update(body[seed].variable_names())
        remaining = [index for index in range(len(body)) if index != seed]
        while remaining:
            best = None
            best_score: tuple | None = None
            for index in remaining:
                atom = body[index]
                connected = 0
                for term in atom.terms:
                    if isinstance(term, Constant) or (
                        isinstance(term, Variable) and term.name in bound
                    ):
                        connected += 1
                size = self._cardinality(atom.relation, atom.is_delta, hypothetical)
                costed[(atom.relation, atom.is_delta)] = size
                # Highest connectivity first, then smallest extent, then body
                # order; negations make a single min() comparison work.
                score = (-connected, size, index)
                if best_score is None or score < best_score:
                    best, best_score = index, score
            assert best is not None
            order.append(best)
            bound.update(body[best].variable_names())
            remaining.remove(best)
        kind, var_order, width = self._classify(rule, seed, hypothetical)
        return JoinPlan(
            order=tuple(order),
            seed=seed,
            cost_snapshot=tuple(sorted(costed.items())),
            kind=kind,
            var_order=var_order,
            width=width,
        )

    # -- plan-kind classification ----------------------------------------------

    def _classify(
        self, rule: Rule, seed: int | None, hypothetical: bool,
    ) -> tuple[str, Tuple[str, ...], float]:
        """Pick ``(kind, var_order, width)`` for one plan build.

        Acyclic bodies (GYO reduction empties the join hypergraph) always stay
        binary unless forced; cyclic ones go wcoj when the AGM estimate of
        the cyclic core beats the binary plan's first-join estimate.
        Hypothetical plans are always binary (wcoj tries cover single
        extents, not active ∪ delta).
        """
        body = rule.body
        if hypothetical or len(body) < 2:
            return PLAN_BINARY, (), 1.0
        core = cyclic_core(rule)
        if self._stats is not None:
            self._stats.width_estimates += 1
        forced = env_forced_plan()
        if forced == PLAN_BINARY:
            return PLAN_BINARY, (), 1.0
        width = (len(core) if core else len(body)) / 2.0
        if forced == PLAN_WCOJ:
            kind = PLAN_WCOJ
        elif not core:
            kind = PLAN_BINARY
        else:
            sizes = sorted(
                max(
                    self._cardinality(atom.relation, atom.is_delta, hypothetical), 1
                )
                for atom in body
            )
            binary_estimate = float(sizes[0] * sizes[1])
            kind = (
                PLAN_WCOJ
                if self._agm_estimate(rule, core, hypothetical) <= binary_estimate
                else PLAN_BINARY
            )
        if kind != PLAN_WCOJ:
            return PLAN_BINARY, (), 1.0
        if self._stats is not None:
            self._stats.wcoj_rules += 1
        return PLAN_WCOJ, self._variable_order(rule, seed), width

    def _agm_estimate(
        self, rule: Rule, core: Tuple[int, ...], hypothetical: bool,
    ) -> float:
        """AGM-style output estimate: extent product of a greedy edge cover.

        A greedy weighted set cover of the core's variables (edge weight =
        ``log size``, benefit = newly covered variables) approximates the
        optimal fractional edge cover whose extent product the AGM bound
        multiplies out; exact for the symmetric cliques and cycles we care
        about (triangle → N², matching the binary estimate, so ties go wcoj).
        """
        body = rule.body
        sizes = {
            index: max(
                self._cardinality(
                    body[index].relation, body[index].is_delta, hypothetical
                ),
                1,
            )
            for index in core
        }
        uncovered: set[str] = set()
        for index in core:
            uncovered |= body[index].variable_names()
        estimate = 1.0
        while uncovered:
            best = None
            best_score: tuple | None = None
            for index in core:
                covers = len(uncovered & body[index].variable_names())
                if not covers:
                    continue
                score = (math.log(sizes[index]) / covers, index)
                if best_score is None or score < best_score:
                    best, best_score = index, score
            if best is None:  # pragma: no cover - core vars always coverable
                break
            estimate *= sizes[best]
            uncovered -= body[best].variable_names()
        return estimate

    @staticmethod
    def _variable_order(rule: Rule, seed: int | None) -> Tuple[str, ...]:
        """Global elimination order: seed variables first (they arrive bound
        with the seed fact), then descending atom-degree, name as tie-break."""
        body = rule.body
        degree: Dict[str, int] = {}
        for atom in body:
            for name in atom.variable_names():
                degree[name] = degree.get(name, 0) + 1
        order: list[str] = []
        if seed is not None:
            for term in body[seed].terms:
                if isinstance(term, Variable) and term.name not in order:
                    order.append(term.name)
        for name in sorted(degree, key=lambda n: (-degree[n], n)):
            if name not in order:
                order.append(name)
        return tuple(order)
