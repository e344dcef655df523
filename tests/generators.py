"""Shared randomized program/instance generators for the differential suites.

The differential suites draw from this module so they exercise the same
family of join shapes, cascade depths and comparison mixes:

* ``tests/test_seminaive_differential.py`` — semi-naive engine vs the naive
  oracle on the in-memory backend;
* ``tests/test_backend_differential.py`` — in-memory vs SQLite backend under
  every engine;
* ``tests/test_property_differential.py`` — the property-based torture suite
  built on the *spec* layer below;
* ``tests/test_cnf.py``, ``tests/test_minones.py`` and
  ``tests/test_semantics_step.py`` — the solver and step-traverse back ends
  against their quadratic reference loops (:func:`random_cnf` feeds the
  solver ones).

Schemas are *typed* (every attribute is ``int``, matching the generated
values) so instances survive the SQLite round trip unchanged: SQLite column
affinity would silently coerce integers stored in untyped (TEXT) columns into
strings, making the backends diverge for reasons that have nothing to do with
the evaluation engines.

Spec layer (shrinking generator)
--------------------------------

:class:`InstanceSpec` / :class:`RuleSpec` describe a random instance as plain
data (tuples of relation names, int values and term markers).  The spec can

* :meth:`~InstanceSpec.build` itself into a ``(Database, DeltaProgram)`` pair,
* enumerate structurally smaller variants (:meth:`~InstanceSpec.shrink_candidates`
  drops one fact / rule / non-guard body atom / comparison at a time), and
* round-trip through ``repr`` — a failing spec printed by the torture suite
  can be pasted back into ``eval`` (or a test) verbatim to replay the repro.

:func:`random_torture_spec` draws negation-free delta programs biased toward
the historically bug-prone shapes: self-joins (two body atoms over one
relation), constants inside atoms, mutual recursion between rule heads,
empty relations, repeated variables and comparison predicates.
:func:`shrink_spec` greedily minimises a failing spec while a caller-supplied
predicate keeps failing.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.datalog.ast import Atom, Comparison, Constant, Rule, Variable
from repro.datalog.delta import DeltaProgram
from repro.solver.cnf import CNF
from repro.storage.database import Database
from repro.storage.schema import RelationSchema, Schema

from tests.conftest import PAPER_PROGRAM_TEXT, make_paper_database


def random_instance(
    seed: int,
    max_relations: int = 4,
    max_facts: int = 40,
) -> tuple[Database, DeltaProgram]:
    """A small random database plus a random (terminating) delta program.

    ``max_relations`` / ``max_facts`` bound the instance size; the defaults
    reproduce the family the semi-naive differential suite has always used,
    while the backend suite passes smaller bounds to keep 50+ instances per
    semantics affordable.
    """
    rng = random.Random(seed)
    relation_count = rng.randint(2, max_relations)
    arities = {f"R{index}": rng.randint(1, 3) for index in range(relation_count)}
    schema = Schema.from_relations(
        [
            RelationSchema.of(name, *(f"a{i}:int" for i in range(arity)))
            for name, arity in arities.items()
        ],
    )
    domain = rng.randint(3, 8)
    contents = {
        name: {
            tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(rng.randint(5, max_facts))
        }
        for name, arity in arities.items()
    }
    db = Database.from_dicts(schema, contents)

    names = sorted(arities)
    rules = []
    seen_rules = set()
    for rule_index in range(rng.randint(2, 5)):
        head_relation = rng.choice(names)
        head_arity = arities[head_relation]
        head_vars = tuple(Variable(f"x{i}") for i in range(head_arity))
        guard = Atom(head_relation, head_vars, is_delta=False)
        body = [guard]
        # Extra atoms share a variable with the guard when possible so the
        # joins are not all cross products.
        for _ in range(rng.randint(0, 2)):
            other = rng.choice(names)
            other_arity = arities[other]
            terms = []
            for position in range(other_arity):
                if rng.random() < 0.5:
                    terms.append(rng.choice(head_vars))
                elif rng.random() < 0.3:
                    terms.append(Constant(rng.randrange(domain)))
                else:
                    terms.append(Variable(f"y{rule_index}_{position}"))
            body.append(
                Atom(other, tuple(terms), is_delta=rng.random() < 0.5),
            )
        comparisons = ()
        if rng.random() < 0.5:
            comparisons = (
                Comparison(
                    rng.choice(head_vars),
                    rng.choice(("<", "<=", ">", ">=", "!=")),
                    Constant(rng.randrange(domain)),
                ),
            )
        rule = Rule(
            head=Atom(head_relation, head_vars, is_delta=True),
            body=tuple(body),
            comparisons=comparisons,
            # Leave some rules unnamed: real programs parsed from text have
            # several unnamed rules per head relation, and assignment
            # signatures must keep them apart (they once collided through
            # the shared auto display name).
            name=f"r{rule_index}" if rng.random() < 0.5 else None,
        )
        key = (rule.head, rule.body, rule.comparisons)
        if key not in seen_rules:
            seen_rules.add(key)
            rules.append(rule)
    return db, DeltaProgram.from_rules(rules)


def paper_instance() -> tuple[Database, DeltaProgram]:
    """The paper's Figure-1 database with its Figure-2 delta program."""
    return make_paper_database(), DeltaProgram.from_text(PAPER_PROGRAM_TEXT)


# ---------------------------------------------------------------------------
# PYTEST_SEED rebasing, shared by the differential suites
# ---------------------------------------------------------------------------

#: Base seed for the differential suites, overridable for CI replay.  The
#: property torture suite reads the same knob (with its own default); the
#: stride below matches its instance-seed derivation.
PYTEST_SEED = int(os.environ.get("PYTEST_SEED", "0"))

#: Stride between rebased runs (same scheme as the property suite: instance
#: ``i`` of a run uses ``PYTEST_SEED * SEED_STRIDE + i``).
SEED_STRIDE = 100003

#: Multiplier for the instance counts of the property suite and the
#: randomized reference suites (default 1; the nightly CI torture job runs 10).
PROPERTY_SCALE = int(os.environ.get("PROPERTY_SCALE", "1"))


def differential_seeds(count: int) -> tuple[int, ...]:
    """``count`` instance seeds rebased on ``PYTEST_SEED``.

    The default ``PYTEST_SEED=0`` yields ``0..count-1`` — the historical
    seeds — so unpinned runs stay reproducible across PRs.
    """
    return tuple(PYTEST_SEED * SEED_STRIDE + index for index in range(count))


def seed_note(seed: int, *extra) -> str:
    """Failure-message context: the exact seed (and knob) to replay a failure."""
    detail = f"seed={seed} (PYTEST_SEED={PYTEST_SEED})"
    return " ".join([detail, *map(str, extra)])


def random_cnf(seed: int) -> CNF:
    """A small random CNF for the solver reference suites.

    1-14 variables and 1-30 clauses of width 1-4 (repeated variables
    collapse); each literal is negative with probability 0.3, so picks of
    the greedy hitting set regularly falsify clauses.  Some draws are
    unsatisfiable.
    """
    rng = random.Random(seed)
    variables = rng.randint(1, 14)
    cnf = CNF()
    for _ in range(rng.randint(1, 30)):
        literals = set()
        for _ in range(rng.randint(1, 4)):
            variable = rng.randint(1, variables)
            literals.add(-variable if rng.random() < 0.3 else variable)
        cnf.add_clause(literals)
    return cnf


# ---------------------------------------------------------------------------
# Spec layer: plain-data instances with shrinking (see module docstring)
# ---------------------------------------------------------------------------

#: Term markers used in specs: ``("var", "x0")`` or ``("const", 3)``.
VAR = "var"
CONST = "const"


def _term(spec: tuple):
    kind, value = spec
    if kind == VAR:
        return Variable(value)
    assert kind == CONST
    return Constant(value)


@dataclass(frozen=True)
class RuleSpec:
    """One delta rule as plain data.

    ``head`` is ``(relation, terms)``; every body atom is
    ``(relation, is_delta, terms)``; every comparison is
    ``(lhs_term, op, rhs_term)`` — with terms in the ``("var", name)`` /
    ``("const", value)`` marker form.  The first body atom must be the guard
    (same relation and terms as the head, non-delta); shrinking never drops
    it, so every shrunk rule stays a well-formed Definition-3.1 delta rule.
    """

    head: tuple
    body: tuple
    comparisons: tuple = ()
    name: str | None = None

    def to_rule(self) -> Rule:
        relation, head_terms = self.head
        return Rule(
            head=Atom(relation, tuple(_term(t) for t in head_terms), is_delta=True),
            body=tuple(
                Atom(rel, tuple(_term(t) for t in terms), is_delta=is_delta)
                for rel, is_delta, terms in self.body
            ),
            comparisons=tuple(
                Comparison(_term(lhs), op, _term(rhs))
                for lhs, op, rhs in self.comparisons
            ),
            name=self.name,
        )


@dataclass(frozen=True)
class InstanceSpec:
    """A random database + delta program as shrinkable plain data."""

    arities: tuple  # ((relation, arity), ...)
    facts: tuple    # ((relation, values), ...)
    rules: tuple    # (RuleSpec, ...)

    def build(self) -> tuple[Database, DeltaProgram]:
        """Materialise the spec (raises for invalid shrink candidates)."""
        schema = Schema.from_relations(
            [
                RelationSchema.of(name, *(f"a{i}:int" for i in range(arity)))
                for name, arity in self.arities
            ],
        )
        contents: dict = {name: set() for name, _ in self.arities}
        for relation, values in self.facts:
            contents[relation].add(tuple(values))
        db = Database.from_dicts(schema, contents)
        program = DeltaProgram.from_rules(
            rule_spec.to_rule() for rule_spec in self.rules
        )
        return db, program

    def size(self) -> int:
        """A rough structural size, monotone under every shrink step."""
        return (
            len(self.facts)
            + sum(len(rule.body) + len(rule.comparisons) + 1 for rule in self.rules)
        )

    def shrink_candidates(self) -> Iterator["InstanceSpec"]:
        """Structurally smaller specs, one removal at a time.

        Ordered most-aggressive first (drop a rule, then a fact, then a
        non-guard atom, then a comparison) so the greedy shrinker converges
        in few replays.  Candidates may be invalid (e.g. two rules collapsing
        into duplicates) — :meth:`build` raises and the shrinker skips them.
        """
        for index in range(len(self.rules)):
            if len(self.rules) > 1:
                yield InstanceSpec(
                    self.arities,
                    self.facts,
                    self.rules[:index] + self.rules[index + 1 :],
                )
        for index in range(len(self.facts)):
            yield InstanceSpec(
                self.arities,
                self.facts[:index] + self.facts[index + 1 :],
                self.rules,
            )
        for rule_index, rule in enumerate(self.rules):
            # The guard atom (index 0) must survive.
            for atom_index in range(1, len(rule.body)):
                smaller = RuleSpec(
                    rule.head,
                    rule.body[:atom_index] + rule.body[atom_index + 1 :],
                    rule.comparisons,
                    rule.name,
                )
                yield InstanceSpec(
                    self.arities,
                    self.facts,
                    self.rules[:rule_index] + (smaller,) + self.rules[rule_index + 1 :],
                )
            for cmp_index in range(len(rule.comparisons)):
                smaller = RuleSpec(
                    rule.head,
                    rule.body,
                    rule.comparisons[:cmp_index] + rule.comparisons[cmp_index + 1 :],
                    rule.name,
                )
                yield InstanceSpec(
                    self.arities,
                    self.facts,
                    self.rules[:rule_index] + (smaller,) + self.rules[rule_index + 1 :],
                )


def random_torture_spec(
    rng: random.Random,
    max_relations: int = 4,
    max_facts_per_relation: int = 12,
    cyclic_rate: float = 0.25,
) -> InstanceSpec:
    """A random negation-free delta-program instance as a shrinkable spec.

    Deliberately biased toward the shapes that have historically broken
    engines: self-joins, in-atom constants, mutual recursion between rule
    heads, empty relations, repeated variables and comparisons.

    ``cyclic_rate`` is the per-rule probability of appending a three-atom
    cyclic triple over fresh variables (a triangle through arity >= 2
    relations), so the torture suites exercise the planner's cyclic-core
    classification and the generic-join path — bodies built from the other
    biases alone almost always GYO-reduce to acyclic.
    """
    relation_count = rng.randint(2, max_relations)
    arities = tuple((f"R{index}", rng.randint(1, 3)) for index in range(relation_count))
    arity_of = dict(arities)
    names = [name for name, _ in arities]
    domain = rng.randint(2, 6)

    empty: set[str] = set()
    if rng.random() < 0.35:
        empty.add(rng.choice(names))
    facts = []
    for name, arity in arities:
        if name in empty:
            continue
        for _ in range(rng.randint(3, max_facts_per_relation)):
            facts.append((name, tuple(rng.randrange(domain) for _ in range(arity))))
    # Set semantics: duplicates are redundant, drop them for cleaner shrinks.
    facts = tuple(dict.fromkeys(facts))

    rules: list[RuleSpec] = []
    rule_count = rng.randint(2, 5)
    for rule_index in range(rule_count):
        head_relation = rng.choice(names)
        head_arity = arity_of[head_relation]
        head_vars = tuple((VAR, f"x{i}") for i in range(head_arity))
        body = [(head_relation, False, head_vars)]

        def random_terms(relation: str, tag: str) -> tuple:
            terms = []
            for position in range(arity_of[relation]):
                roll = rng.random()
                if roll < 0.45:
                    terms.append(rng.choice(head_vars))
                elif roll < 0.60:
                    terms.append((CONST, rng.randrange(domain)))
                else:
                    terms.append((VAR, f"y{tag}_{position}"))
            return tuple(terms)

        extra = rng.randint(0, 2)
        for atom_index in range(extra):
            other = rng.choice(names)
            body.append(
                (other, rng.random() < 0.5, random_terms(other, f"{rule_index}_{atom_index}")),
            )
        # Self-join bias: a second atom over the head relation.
        if rng.random() < 0.25:
            body.append(
                (
                    head_relation,
                    rng.random() < 0.5,
                    random_terms(head_relation, f"{rule_index}_s"),
                ),
            )
        # Mutual-recursion bias: re-enter through the previous rule's head.
        if rules and rng.random() < 0.4:
            previous = rules[-1].head[0]
            body.append(
                (previous, True, random_terms(previous, f"{rule_index}_m")),
            )
        # Cyclic-core bias: a triangle over fresh variables through arity>=2
        # relations, so the join hypergraph does not GYO-reduce and the
        # planner routes the rule through the generic-join path.
        wide = [name for name in names if arity_of[name] >= 2]
        if wide and rng.random() < cyclic_rate:
            cycle_vars = tuple((VAR, f"c{rule_index}_{i}") for i in range(3))
            for leg in range(3):
                relation = rng.choice(wide)
                terms = [cycle_vars[leg], cycle_vars[(leg + 1) % 3]]
                terms.extend(
                    (VAR, f"c{rule_index}_{leg}_{position}")
                    for position in range(2, arity_of[relation])
                )
                body.append((relation, rng.random() < 0.3, tuple(terms)))

        comparisons = ()
        if rng.random() < 0.4:
            comparisons = (
                (
                    rng.choice(head_vars),
                    rng.choice(("<", "<=", ">", ">=", "!=", "=")),
                    (CONST, rng.randrange(domain)),
                ),
            )
        rules.append(
            RuleSpec(
                head=(head_relation, head_vars),
                body=tuple(body),
                comparisons=comparisons,
                name=f"r{rule_index}" if rng.random() < 0.5 else None,
            ),
        )

    # Drop exact-duplicate rules (DeltaProgram rejects them).
    unique: dict = {}
    for rule in rules:
        unique.setdefault((rule.head, rule.body, rule.comparisons), rule)
    return InstanceSpec(arities, facts, tuple(unique.values()))


def shrink_spec(
    spec: InstanceSpec,
    still_fails: Callable[[InstanceSpec], bool],
    max_replays: int = 400,
) -> InstanceSpec:
    """Greedily minimise ``spec`` while ``still_fails`` keeps returning True.

    ``still_fails`` must treat *invalid* candidates (whose :meth:`build`
    raises) as non-failing; the canonical wrapper simply catches the
    exception and returns False.  The loop restarts from the first shrinking
    candidate after every success, so the result is 1-minimal up to the
    replay budget: no single removal still fails.
    """
    replays = 0
    improved = True
    while improved and replays < max_replays:
        improved = False
        for candidate in spec.shrink_candidates():
            replays += 1
            if replays > max_replays:
                break
            failed = False
            try:
                failed = still_fails(candidate)
            except Exception:
                # A candidate that crashes the checker itself still
                # demonstrates the bug: keep it.
                failed = True
            if failed:
                spec = candidate
                improved = True
                break
    return spec
