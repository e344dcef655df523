"""The provenance graph and tuple benefits (Algorithm 2, Section 5.2).

The provenance graph of ``End(P, D)`` joins the derivation trees of every
derivable delta tuple: there is a node per base tuple and per derived delta
tuple, and an edge from a tuple ``t`` (base or delta) to ``Δ(t₂)`` whenever
``t`` participates in an assignment deriving ``Δ(t₂)``.

Two derived quantities drive the greedy algorithm:

* the **layer** of ``Δ(t)`` — the round of (stage-style) evaluation in which it
  is first derivable, i.e. the depth of its shallowest derivation;
* the **benefit** ``b_t`` of a base tuple ``t`` — the number of assignments
  ``t`` participates in (as a base atom) minus the number of assignments its
  delta counterpart ``Δ(t)`` participates in (as a delta atom).  Deleting a
  high-benefit tuple voids many pending derivations while enabling few new
  ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Sequence, Set, Tuple

from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import Assignment, derive_closure
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact

#: Node kinds in the provenance graph.
BASE = "base"
DELTA = "delta"


def base_node(item: Fact) -> Tuple[str, Fact]:
    """Graph node for a base tuple."""
    return (BASE, item)


def delta_node(item: Fact) -> Tuple[str, Fact]:
    """Graph node for the delta counterpart of a tuple."""
    return (DELTA, item)


@dataclass
class ProvenanceGraph:
    """The provenance graph of an end-semantics evaluation.

    Attributes
    ----------
    nodes:
        The graph's nodes: ``("base", fact)`` and ``("delta", fact)`` pairs.
    edges:
        ``(source, target)`` node pairs, one per distinct derivation edge.
    assignments:
        Every assignment observed during the end-semantics closure.
    derived:
        All delta tuples derived (the content of ``End(P, D)``).
    layers:
        ``fact -> layer`` for every derived delta tuple (1-based).
    benefits:
        ``fact -> benefit`` for every base tuple appearing in some assignment.
    """

    nodes: Set[Tuple[str, Fact]] = field(default_factory=set)
    edges: Set[Tuple[Tuple[str, Fact], Tuple[str, Fact]]] = field(default_factory=set)
    assignments: List[Assignment] = field(default_factory=list)
    derived: set[Fact] = field(default_factory=set)
    layers: Dict[Fact, int] = field(default_factory=dict)
    benefits: Dict[Fact, int] = field(default_factory=dict)

    # -- queries -------------------------------------------------------------

    @property
    def layer_count(self) -> int:
        """Number of layers (0 when nothing is derivable)."""
        return max(self.layers.values(), default=0)

    def tuples_in_layer(self, layer: int) -> frozenset[Fact]:
        """Delta tuples first derivable at ``layer``."""
        return frozenset(item for item, lvl in self.layers.items() if lvl == layer)

    def assignments_deriving(self, item: Fact) -> List[Assignment]:
        """All assignments whose head instantiates to ``item``."""
        return [a for a in self.assignments if a.derived == item]

    def assignments_using_base(self, item: Fact) -> List[Assignment]:
        """All assignments in which ``item`` participates through a base atom."""
        return [a for a in self.assignments if item in a.base_facts()]

    def assignments_using_delta(self, item: Fact) -> List[Assignment]:
        """All assignments in which ``Δ(item)`` participates through a delta atom."""
        return [a for a in self.assignments if item in a.delta_facts()]

    def benefit(self, item: Fact) -> int:
        """The benefit ``b_t`` of a base tuple (0 when it never participates)."""
        return self.benefits.get(item, 0)

    def node_count(self) -> int:
        """Number of graph nodes (base + delta)."""
        return len(self.nodes)

    def edge_count(self) -> int:
        """Number of derivation edges."""
        return len(self.edges)

    def describe(self) -> str:
        """A short multi-line description of the graph's shape."""
        lines = [
            f"nodes={self.node_count()}, edges={self.edge_count()}, "
            f"derived={len(self.derived)}, layers={self.layer_count}",
        ]
        for layer in range(1, self.layer_count + 1):
            members = ", ".join(
                sorted(item.label() for item in self.tuples_in_layer(layer)),
            )
            lines.append(f"  layer {layer}: {members}")
        return "\n".join(lines)

    # -- construction ---------------------------------------------------------

    def _register_assignment(self, assignment: Assignment) -> None:
        self.assignments.append(assignment)
        target = delta_node(assignment.derived)
        self.derived.add(assignment.derived)
        self.nodes.add(target)
        for atom, item in assignment.used:
            source = delta_node(item) if atom.is_delta else base_node(item)
            self.nodes.add(source)
            self.edges.add((source, target))

    def _compute_layers(self, recorded: AbstractSet[Fact]) -> None:
        """Layer = the round of stage-style evaluation when a tuple first derives.

        Computed as a fixpoint: a delta tuple's layer is ``1 +`` the maximum
        layer of the delta tuples used by its *shallowest* derivation (0 when a
        derivation uses no delta tuples).  ``recorded`` holds the deletions
        the input database already records: they are in Δ before the first
        round, so a derivation reading one counts it as layer 0.
        """
        self.layers = {}
        changed = True
        while changed:
            changed = False
            for assignment in self.assignments:
                dependencies = [
                    0 if dep in recorded else self.layers.get(dep)
                    for dep in assignment.delta_facts()
                ]
                if None in dependencies:
                    continue
                depth = 1 + max(dependencies, default=0)
                current = self.layers.get(assignment.derived)
                if current is None or depth < current:
                    self.layers[assignment.derived] = depth
                    changed = True

    def _compute_benefits(self) -> None:
        self.benefits = {}
        for assignment in self.assignments:
            for item in assignment.base_facts():
                self.benefits[item] = self.benefits.get(item, 0) + 1
            for item in assignment.delta_facts():
                self.benefits[item] = self.benefits.get(item, 0) - 1


def build_provenance_graph(
    db: BaseDatabase,
    program: DeltaProgram | Program | Sequence[Rule],
    engine: str = "auto",
) -> ProvenanceGraph:
    """Build the provenance graph of ``End(P, D)`` (Algorithm 2, line 1).

    The database is cloned; ``db`` itself is not modified.  ``engine`` selects
    the closure engine (see :func:`repro.datalog.evaluation.run_closure`).
    Deletions ``db`` already records count as layer 0.
    """
    recorded = frozenset(db.all_deltas())
    working = db.clone()
    provenance = ProvenanceGraph()
    derive_closure(
        working, program, on_assignment=provenance._register_assignment, engine=engine,
    )
    provenance._compute_layers(recorded)
    provenance._compute_benefits()
    return provenance
