"""CNF formulas over integer variables.

The Min-Ones solver works over plain integer variables; clauses are frozensets
of *signed literals* (``+v`` for the positive literal of variable ``v``, ``-v``
for its negation).  :class:`CNF` provides the bookkeeping the solver needs:
clause normalisation, tautology elimination, subsumption, and decomposition of
the formula into variable-connected components so each can be minimised
independently (costs are additive across components).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List

from repro.exceptions import SolverError

#: A signed literal: +v is the positive literal of variable v, -v its negation.
SignedLiteral = int


def literal_variable(literal: SignedLiteral) -> int:
    """The variable of a signed literal."""
    return abs(literal)


def literal_is_positive(literal: SignedLiteral) -> bool:
    """True for positive literals."""
    return literal > 0


@dataclass
class CNF:
    """A CNF formula: a list of clauses, each a frozenset of signed literals."""

    clauses: List[FrozenSet[SignedLiteral]] = field(default_factory=list)

    # -- construction ----------------------------------------------------------

    def add_clause(self, literals: Iterable[SignedLiteral]) -> None:
        """Add a clause; raises :class:`SolverError` for empty clauses or var 0."""
        clause = frozenset(int(literal) for literal in literals)
        if not clause:
            raise SolverError("cannot add an empty clause (formula is unsatisfiable)")
        if 0 in clause:
            raise SolverError("0 is not a valid literal")
        self.clauses.append(clause)

    @classmethod
    def from_clauses(cls, clauses: Iterable[Iterable[SignedLiteral]]) -> "CNF":
        """Build a CNF from an iterable of literal iterables."""
        cnf = cls()
        for clause in clauses:
            cnf.add_clause(clause)
        return cnf

    # -- inspection -------------------------------------------------------------

    def variables(self) -> frozenset[int]:
        """All variables mentioned by the formula."""
        return frozenset(
            literal_variable(literal) for clause in self.clauses for literal in clause
        )

    @property
    def clause_count(self) -> int:
        """Number of clauses."""
        return len(self.clauses)

    @property
    def variable_count(self) -> int:
        """Number of distinct variables."""
        return len(self.variables())

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """True when ``assignment`` (complete over the formula's variables) satisfies it.

        Unassigned variables default to False — the natural default for
        Min-Ones, where a variable only costs when set to True.
        """
        for clause in self.clauses:
            satisfied = False
            for literal in clause:
                value = assignment.get(literal_variable(literal), False)
                if literal_is_positive(literal) == value:
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def unsatisfied_clauses(self, assignment: Dict[int, bool]) -> List[FrozenSet[int]]:
        """The clauses not satisfied by ``assignment`` (unassigned = False)."""
        failing = []
        for clause in self.clauses:
            if not any(
                literal_is_positive(literal)
                == assignment.get(literal_variable(literal), False)
                for literal in clause
            ):
                failing.append(clause)
        return failing

    # -- simplification -----------------------------------------------------------

    def simplified(self) -> "CNF":
        """Return a logically equivalent formula with tautologies and subsumed clauses removed.

        Clauses are visited shortest first (a stable sort, so equal-length
        clauses keep their input order) and a clause is dropped when a kept
        clause is a subset of it.  Each kept clause is filed under its
        smallest literal, so a candidate is tested only against the kept
        clauses filed under one of its own literals: a kept subset of the
        candidate contains its own filing literal, so none is missed.
        """
        cleaned: List[FrozenSet[int]] = []
        for clause in self.clauses:
            if any(-literal in clause for literal in clause):
                continue  # tautology: contains both x and ¬x
            cleaned.append(clause)
        cleaned.sort(key=len)
        kept: List[FrozenSet[int]] = []
        filed: Dict[int, List[FrozenSet[int]]] = {}
        for clause in cleaned:
            if any(
                other <= clause
                for literal in clause
                for other in filed.get(literal, ())
            ):
                continue
            kept.append(clause)
            filed.setdefault(min(clause), []).append(clause)
        return CNF(kept)

    # -- decomposition -------------------------------------------------------------

    def components(self) -> List["CNF"]:
        """Split into variable-connected components.

        Two clauses belong to the same component when they share a variable
        (transitively).  Minimum-ones solutions of the components are
        independent, so the solver minimises each separately and unions them.
        """
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for clause in self.clauses:
            variables = [literal_variable(literal) for literal in clause]
            for variable in variables:
                parent.setdefault(variable, variable)
            for variable in variables[1:]:
                union(variables[0], variable)

        grouped: Dict[int, List[FrozenSet[int]]] = {}
        for clause in self.clauses:
            root = find(literal_variable(next(iter(clause))))
            grouped.setdefault(root, []).append(clause)
        return [CNF(clauses) for clauses in grouped.values()]

    def __len__(self) -> int:
        return len(self.clauses)

    def __str__(self) -> str:
        def render(clause: FrozenSet[int]) -> str:
            parts = []
            for literal in sorted(clause, key=abs):
                parts.append(f"x{literal}" if literal > 0 else f"¬x{-literal}")
            return "(" + " ∨ ".join(parts) + ")"

        return " ∧ ".join(render(clause) for clause in self.clauses) or "⊤"
