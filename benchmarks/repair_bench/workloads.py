"""The four workloads: their inputs, one sample of work, and the output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returned.  Inputs come from the workload seed only:

* the dataset *shape* is generated once from :data:`SHAPE_SEED`, and the run
  seed relabels it — an order-preserving map of every integer value (so
  joins and ``<`` thresholds select the same tuples) plus a shuffled
  insertion order.  Freshly generated instances differ too much in size to
  compare runs: on ten seeds at MAS scale 1.0 the program-20 cascade deleted
  594–971 tuples and the greedy step traverse, quadratic in that size, moved
  by 32% (interquartile over median);
* on ``mas-maintenance`` the seed also draws the update stream and the point
  queries.

The library receives only the generated databases and programs.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import RepairEngine, is_stabilizing_set, verify_repair
from repro.core.semantics import end_semantics
from repro.service import RepairService
from repro.storage import Database, Fact, SQLiteDatabase
from repro.workloads import generate_mas, generate_tpch, mas_programs, tpch_programs
from repro.workloads.mas import MASConstants
from repro.workloads.tpch import TPCHConstants

from benchmarks.repair_bench.trace import Tracer

#: Generator seed of every dataset shape; the run seed relabels it.
SHAPE_SEED = 7

SEMANTICS = ("end", "stage", "step", "independent")

#: Deleted tuples per optimal independent result checked for minimality: a
#: minimum stabilizing set stops stabilizing when any one tuple is kept.
MINIMALITY_CHECKS = 8

#: QueryStats counters reported per sample, under ``datalog.<name>``.
QUERY_STATS = (
    "replans",
    "variant_compiles",
    "wcoj_rules",
    "effective_shards",
    "collapsed_rounds",
    "shard_selects",
)
#: Maintenance counters reported per sample, under ``incremental.<name>``.
MAINTENANCE_STATS = ("overdeleted", "rederived", "dred_fallbacks")
#: RepairResult.metadata entries summed per sample, by semantics.
METADATA_COUNTS = {
    "independent": {
        "clauses": "provenance.clauses",
        "provenance_variables": "provenance.variables",
        "solver_components": "solver.components",
        "solver_greedy_components": "solver.greedy_components",
        "solver_nodes": "solver.nodes",
        "optimal": "solver.optimal_programs",
    },
    "step": {
        "provenance_nodes": "provenance.graph_nodes",
        "provenance_edges": "provenance.graph_edges",
    },
}


def maybe_span(tracer: Optional[Tracer], name: str):
    """A span when tracing, otherwise a no-op context."""
    return tracer.span(name) if tracer is not None else nullcontext()


def relabel(db: Database, seed: int) -> Tuple[Database, Callable[[Any], Any]]:
    """A copy of ``db`` with every int mapped by a seeded increasing map.

    Returns the copy and the map, so selection constants can follow.  Facts
    are inserted in a seeded order, which fixes the in-memory extents'
    iteration order.
    """
    rng = random.Random(f"relabel:{seed}")
    stride, offset = rng.randint(2, 64), rng.randint(1, 10**6)

    def remap(value: Any) -> Any:
        return value * stride + offset if type(value) is int else value

    items = sorted(db.all_active(), key=Fact.sort_key)
    rng.shuffle(items)
    copy = Database(db.schema)
    for item in items:
        copy.insert(Fact(item.relation, tuple(map(remap, item.values)), item.tid))
    return copy, remap


def mas_dataset(scale: float, seed: int):
    dataset = generate_mas(scale, SHAPE_SEED)
    db, remap = relabel(dataset.db, seed)
    c = dataset.constants
    constants = MASConstants(
        target_author_id=remap(c.target_author_id),
        target_author_name=c.target_author_name,
        target_org_id=remap(c.target_org_id),
        target_pub_id=remap(c.target_pub_id),
        pid_threshold=remap(c.pid_threshold),
    )
    return replace(dataset, db=db, constants=constants)


def tpch_dataset(scale: float, seed: int):
    dataset = generate_tpch(scale, SHAPE_SEED)
    db, remap = relabel(dataset.db, seed)
    c = dataset.constants
    constants = TPCHConstants(
        supplier_key_threshold=remap(c.supplier_key_threshold),
        order_key_threshold=remap(c.order_key_threshold),
        target_nation_key=remap(c.target_nation_key),
        customer_key_threshold=remap(c.customer_key_threshold),
    )
    return replace(dataset, db=db, constants=constants)


# ---------------------------------------------------------------------------
# Per-run bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """What one sample did: its timed operations, size and layer counts."""

    ops: List[Tuple[str, float]] = field(default_factory=list)
    results: List[Tuple[str, Any]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    deleted: int = 0
    wall: float = 0.0
    #: The tracer's sample id when the sample was traced.
    trace_id: Optional[int] = None

    @property
    def seconds(self) -> float:
        return sum(seconds for _key, seconds in self.ops)


class Record:
    """Attempted and failed operations over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)

    def call(
        self,
        sample: Sample,
        key: str,
        span: str,
        tracer: Optional[Tracer],
        operation: Callable[[], Any],
    ) -> Any:
        """Time one operation; an exception counts as a failure, not a crash."""
        self.attempted += 1
        try:
            with maybe_span(tracer, span) as index:
                start = time.perf_counter()
                result = operation()
                seconds = time.perf_counter() - start
        except Exception as error:  # counted; the run must keep measuring
            self.fail(1, f"{key}: {type(error).__name__}: {error}")
            return None
        sample.ops.append((key, seconds))
        sample.results.append((key, result))
        if tracer is not None and span == "semantics.step":
            # The graph's layer and benefit pass is inline in step semantics;
            # its time comes from the phase timer the result carries.
            phase = result.timer.get("process_prov")
            tracer.add_phase(index, "provenance.graph", phase)
        return result


@contextmanager
def tracing(tracer: Optional[Tracer], db) -> Iterator[None]:
    """Rebind the library for one traced sample and count ``db``'s SQL."""
    if tracer is None:
        yield
        return
    hooked = isinstance(db, SQLiteDatabase)
    if hooked:
        db.add_statement_hook(tracer.count_statement)
    try:
        with tracer.installed():
            yield
    finally:
        if hooked:
            db.remove_statement_hook(tracer.count_statement)


# ---------------------------------------------------------------------------
# Semantics workloads
# ---------------------------------------------------------------------------


def _not_minimal(db, program, deleted: frozenset) -> Optional[str]:
    """Why ``deleted`` is not inclusion-minimal, checking its first
    :data:`MINIMALITY_CHECKS` tuples, or None."""
    for item in sorted(deleted, key=Fact.sort_key)[:MINIMALITY_CHECKS]:
        if is_stabilizing_set(db, program, deleted - {item}):
            return f"optimal result still stabilizes without {item}"
    return None


@dataclass
class SemanticsState:
    db: Any
    programs: Dict[str, Any]
    reference: Dict[str, frozenset] = field(default_factory=dict)


@dataclass(frozen=True)
class SemanticsWorkload:
    """Repairs of a fixed database under each program and semantics.

    A sample is one pass over the programs: a fresh :class:`RepairEngine`
    per program (built outside the timer) runs ``repair(s)`` for each
    semantics in order, so the semantics of one program share its context
    the way :meth:`RepairEngine.compare` does.
    """

    name: str
    why: str
    dataset: str
    sqlite: bool
    scale: float
    smoke_scale: float
    programs: Tuple[str, ...]
    semantics: Tuple[str, ...] = SEMANTICS
    #: Set-ups per run; setup_s is their median, so cheap set-ups repeat more.
    setups: int = 5
    min_samples: int = 3

    def setup(self, seed: int, workdir: Path, tracer=None) -> SemanticsState:
        with maybe_span(tracer, "workloads.generate"):
            if self.dataset == "mas":
                dataset = mas_dataset(self.scale, seed)
            else:
                dataset = tpch_dataset(self.scale, seed)
        db = dataset.db
        if self.sqlite:
            with maybe_span(tracer, "storage.import"):
                db = SQLiteDatabase.from_database(db)
        if self.dataset == "mas":
            programs = mas_programs(dataset, self.programs)
        else:
            programs = tpch_programs(dataset, self.programs)
        for program in programs.values():
            RepairEngine(db, program)
        return SemanticsState(db, programs)

    def close(self, state: SemanticsState) -> None:
        if self.sqlite:
            state.db.close()

    def sample(
        self, state: SemanticsState, record: Record, tracer: Optional[Tracer] = None
    ) -> Sample:
        sample = Sample()
        with tracing(tracer, state.db):
            start = time.perf_counter()
            with maybe_span(tracer, "harness.sample"):
                for program_id, program in state.programs.items():
                    engine = RepairEngine(state.db, program)
                    for semantics in self.semantics:
                        gc.collect()
                        record.call(
                            sample,
                            f"{program_id}/{semantics}",
                            f"semantics.{semantics}",
                            tracer,
                            lambda: engine.repair(semantics),
                        )
                    stats = engine.context.stats
                    for name in QUERY_STATS:
                        sample.counts[f"datalog.{name}"] += getattr(stats, name)
            sample.wall = time.perf_counter() - start
        for key, result in sample.results:
            sample.deleted += result.size
            metadata = result.metadata
            for entry, counter in METADATA_COUNTS.get(key.split("/")[1], {}).items():
                sample.counts[counter] += metadata[entry]
            if "engine" in metadata:
                sample.counts[f"engine.{metadata['engine']}"] += 1
        return sample

    def warm_up(self, state: SemanticsState, record: Record) -> None:
        """One discarded sample whose outputs are checked and kept as reference.

        Every result must be a stabilizing set (``verify_repair``); end and
        stage must equal the naive oracle; an independent result proven
        optimal may not be larger than any other semantics' result, which
        are all stabilizing sets, and keeping any of its first
        :data:`MINIMALITY_CHECKS` deleted tuples must break stability.
        """
        sample = self.sample(state, record)
        results = dict(sample.results)
        for key, result in sample.results:
            program_id, semantics = key.split("/")
            program = state.programs[program_id]
            problem = None
            if not verify_repair(state.db, program, result):
                problem = "not a stabilizing set"
            elif semantics in ("end", "stage"):
                naive = RepairEngine(state.db, program, engine="naive")
                if naive.repair(semantics).deleted != result.deleted:
                    problem = "differs from the naive engine"
            elif semantics == "independent" and result.metadata["optimal"]:
                sizes = [
                    results[f"{program_id}/{other}"].size
                    for other in self.semantics
                    if other != semantics and f"{program_id}/{other}" in results
                ]
                if sizes and result.size > min(sizes):
                    problem = f"optimal result of {result.size} exceeds {min(sizes)}"
                else:
                    problem = _not_minimal(state.db, program, result.deleted)
            if problem is None:
                state.reference[key] = result.deleted
            else:
                record.fail(1, f"warm-up {key}: {problem}")

    def check(self, state: SemanticsState, record: Record, sample: Sample) -> None:
        """Each deleted set must equal the checked warm-up result."""
        for key, result in sample.results:
            if state.reference.get(key) != result.deleted:
                record.fail(1, f"{key}: deleted set differs from the checked warm-up")


# ---------------------------------------------------------------------------
# Maintenance workload
# ---------------------------------------------------------------------------


@dataclass
class MaintenanceState:
    db: SQLiteDatabase
    service: RepairService
    program: Any
    #: The generated base instance, until the warm-up derives the oracle.
    loaded: Optional[Database]
    base: List[Fact]
    root: Fact
    rng: random.Random
    #: The naive engine's closure and end-semantics deleted set of the base
    #: instance.  Every pair re-inserts what it deleted, so the instance at a
    #: checkpoint is always the loaded one and these never change.
    closure: frozenset = frozenset()
    deleted: frozenset = frozenset()


@dataclass(frozen=True)
class MaintenanceWorkload:
    """A durable :class:`RepairService` absorbing a delete/re-insert stream.

    A sample is one block of ``pairs`` pairs: each pair deletes a batch of
    ``batch`` seeded base facts and re-inserts it, then runs ``queries``
    point queries alternating ``is_derivable`` and ``in_repair``.  The last
    pair of a block toggles the cascade-root ``Organization`` instead, which
    retracts the whole program-20 cascade and derives it again.

    No batch takes the store's counting fast path: every program-20 rule
    except the root reads a delta atom, so no derived fact has a second
    support from base facts alone, and every delete batch that touches the
    cascade runs exact DRed.
    """

    name: str
    why: str
    scale: float
    smoke_scale: float
    program: str = "20"
    pairs: int = 40
    smoke_pairs: int = 8
    batch: int = 20
    queries: int = 10
    setups: int = 3
    min_samples: int = 2

    def setup(self, seed: int, workdir: Path, tracer=None) -> MaintenanceState:
        with maybe_span(tracer, "workloads.generate"):
            dataset = mas_dataset(self.scale, seed)
        path = workdir / f"maintenance-{time.perf_counter_ns()}.db"
        with maybe_span(tracer, "storage.import"):
            db = SQLiteDatabase.from_database(dataset.db, path=str(path))
        program = mas_programs(dataset, (self.program,))[self.program]
        with maybe_span(tracer, "service.load"):
            service = RepairService(db, program)
        organizations = dataset.db.active_facts("Organization")
        root_oid = dataset.constants.target_org_id
        (root,) = [item for item in organizations if item.values[0] == root_oid]
        base = sorted(dataset.db.all_active(), key=Fact.sort_key)
        return MaintenanceState(
            db=db,
            service=service,
            program=program,
            loaded=dataset.db,
            base=[item for item in base if item != root],
            root=root,
            rng=random.Random(f"stream:{seed}"),
        )

    def close(self, state: MaintenanceState) -> None:
        state.db.close()
        for suffix in ("", "-wal", "-shm"):
            Path(state.db.path + suffix).unlink(missing_ok=True)

    def sample(
        self, state: MaintenanceState, record: Record, tracer: Optional[Tracer] = None
    ) -> Sample:
        sample = Sample()
        service, rng = state.service, state.rng
        counters = [(f"datalog.{name}", name) for name in QUERY_STATS]
        counters += [(f"incremental.{name}", name) for name in MAINTENANCE_STATS]
        before = {name: getattr(service.stats, name) for _, name in counters}

        def apply(kind: str, **batch):
            gc.collect()
            return record.call(
                sample,
                f"apply/{kind}",
                "service.apply",
                tracer,
                lambda: service.apply(**batch),
            )

        def query(kind: str, item: Fact):
            return record.call(
                sample,
                f"query/{kind}",
                "service.query",
                tracer,
                lambda: getattr(service, kind)(item),
            )

        wrong = 0
        with tracing(tracer, state.db):
            start = time.perf_counter()
            with maybe_span(tracer, "harness.sample"):
                for pair in range(self.pairs):
                    root = pair == self.pairs - 1
                    batch = [state.root] if root else rng.sample(state.base, self.batch)
                    kind = "root-" if root else ""
                    outcome = apply(f"{kind}delete", deletes=batch)
                    if outcome is not None:
                        sample.counts["incremental.retracted"] += len(outcome.retracted)
                    apply(f"{kind}insert", inserts=batch)
                    # Queries follow a completed pair, so the base instance is
                    # the loaded one and the oracle closure answers them.
                    for number in range(self.queries):
                        item = rng.choice(state.base)
                        kind = "in_repair" if number % 2 else "is_derivable"
                        answer = query(kind, item)
                        expected = (item in state.closure) == (kind == "is_derivable")
                        wrong += answer is not None and answer != expected
            sample.wall = time.perf_counter() - start
        if wrong:
            record.fail(wrong, f"{wrong} point queries disagree with the oracle")
        for counter, name in counters:
            sample.counts[counter] += getattr(service.stats, name) - before[name]
        return sample

    def warm_up(self, state: MaintenanceState, record: Record) -> None:
        """Derive the oracle from the loaded instance, then run one checked block."""
        result = end_semantics(state.loaded, state.program, engine="naive")
        state.closure = frozenset(result.repaired.all_deltas())
        state.deleted = result.deleted
        state.loaded = None
        self.check(state, record, self.sample(state, record))

    def check(self, state: MaintenanceState, record: Record, sample: Sample) -> None:
        """Checkpoint after every block: the maintained repair must equal the
        naive end semantics of the base instance; a mismatch fails every batch
        of the block."""
        try:
            maintained = state.service.repair_deleted()
        except Exception as error:  # counted; the run must keep measuring
            maintained = None
            reason = f"repair_deleted: {type(error).__name__}: {error}"
        else:
            reason = "maintained repair differs from the naive end semantics"
        if maintained != state.deleted:
            record.fail(2 * self.pairs, reason)
        sample.deleted = len(maintained or ())


def smoke(workload):
    """The reduced copy ``--smoke`` runs: tiny inputs, two set-ups, short blocks."""
    changes = {"scale": workload.smoke_scale, "setups": 2}
    if isinstance(workload, MaintenanceWorkload):
        changes["pairs"] = workload.smoke_pairs
    return replace(workload, **changes)


WORKLOADS = {
    workload.name: workload
    for workload in (
        SemanticsWorkload(
            name="mas-cascade",
            why="deep layered provenance: the step traverse and the Min-Ones solve "
            "do over 90% of the work, the closure under 5%",
            dataset="mas",
            sqlite=False,
            scale=1.0,
            smoke_scale=0.2,
            setups=15,
            programs=("10", "20"),
        ),
        SemanticsWorkload(
            name="tpch-sqlite",
            why="wide shallow provenance on SQLite: SQL provenance joins, storage "
            "clones and stabilized copies weigh more and the traverse less",
            dataset="tpch",
            sqlite=True,
            scale=1.0,
            smoke_scale=0.3,
            setups=15,
            programs=("T-1", "T-2", "T-3", "T-4", "T-5", "T-6"),
        ),
        SemanticsWorkload(
            name="mas-closure",
            why="large closures for end and stage only: provenance, solver and "
            "traverse do no work, so changes to them must show no change here",
            dataset="mas",
            sqlite=False,
            scale=8.0,
            smoke_scale=0.5,
            programs=("10", "15", "19", "20"),
            semantics=("end", "stage"),
        ),
        MaintenanceWorkload(
            name="mas-maintenance",
            why="the only writing workload: exact DRed deletes, insert propagation "
            "and a durable store flush per batch on file-backed SQLite",
            scale=8.0,
            smoke_scale=0.5,
        ),
    )
}
