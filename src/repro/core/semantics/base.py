"""Shared types for the repair semantics: the :class:`Semantics` enum and results."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict

from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact
from repro.utils.timing import PhaseTimer

#: Phase names used for the Figure-8 runtime breakdown.
PHASE_EVAL = "eval"
PHASE_PROCESS_PROV = "process_prov"
PHASE_SOLVE = "solve"
PHASE_TRAVERSE = "traverse"


class Semantics(str, Enum):
    """The four semantics of delta programs defined in Section 3 of the paper."""

    END = "end"
    STAGE = "stage"
    STEP = "step"
    INDEPENDENT = "independent"

    @classmethod
    def parse(cls, value: "Semantics | str") -> "Semantics":
        """Accept either an enum member or its (case-insensitive) string name."""
        if isinstance(value, Semantics):
            return value
        normalized = value.strip().lower()
        aliases = {"ind": "independent", "indep": "independent"}
        normalized = aliases.get(normalized, normalized)
        for member in cls:
            if member.value == normalized or member.name.lower() == normalized:
                return member
        raise ValueError(f"unknown semantics: {value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass
class RepairResult:
    """The outcome of evaluating one semantics on a (database, program) pair.

    Attributes
    ----------
    semantics:
        Which semantics produced the result.
    deleted:
        The stabilizing set ``S`` — the non-delta tuples removed from the
        database (the paper's ``σ(P, D)``).
    repaired:
        The repaired database ``(D \\ S) ∪ Δ(S)``.  It may be passed as a
        zero-argument callable instead; the first read of ``repaired`` then
        calls it once and keeps its result.  Step and independent semantics
        pass one that builds the copy from a snapshot of the input taken
        when the repair returned, so a caller that never reads ``repaired``
        never pays for it, and later edits to the input do not leak into it.
    timer:
        Wall-clock phase breakdown (``eval`` / ``process_prov`` / ``solve`` /
        ``traverse`` for the provenance-based algorithms, ``eval`` otherwise).
    rounds:
        Number of evaluation rounds (stages / fixpoint iterations) when the
        semantics is round-based, else None.
    metadata:
        Algorithm-specific extras: solver statistics, provenance sizes,
        optimality flags, firing sequences...
    """

    semantics: Semantics
    deleted: frozenset[Fact]
    repaired: BaseDatabase | Callable[[], BaseDatabase]
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    rounds: int | None = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if callable(self.repaired):
            self._build_repaired = self.__dict__.pop("repaired")

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails: a deferred ``repaired``.
        build = self.__dict__.get("_build_repaired")
        if name != "repaired" or build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}",
            )
        self.repaired = build()
        del self._build_repaired
        return self.repaired

    @property
    def size(self) -> int:
        """Number of deleted tuples — the quantity Figures 6 and 9a report."""
        return len(self.deleted)

    @property
    def runtime(self) -> float:
        """Total wall-clock seconds across all recorded phases."""
        return self.timer.total

    def deleted_by_relation(self) -> Dict[str, frozenset[Fact]]:
        """The deleted tuples grouped by relation name."""
        grouped: Dict[str, set[Fact]] = {}
        for item in self.deleted:
            grouped.setdefault(item.relation, set()).add(item)
        return {relation: frozenset(items) for relation, items in grouped.items()}

    def contains(self, other: "RepairResult") -> bool:
        """Set containment of the other result's deletions in this one."""
        return other.deleted <= self.deleted

    def summary(self) -> str:
        """A one-line summary used by the experiment reports."""
        per_relation = ", ".join(
            f"{relation}:{len(items)}"
            for relation, items in sorted(self.deleted_by_relation().items())
        )
        return (
            f"{self.semantics.value:<11} deleted={self.size:<6} "
            f"time={self.runtime:.4f}s [{per_relation}]"
        )

    def __str__(self) -> str:
        return self.summary()
