"""Outside-in span tracing for the traced benchmark run.

The library has no tracing of its own yet, so a traced run records spans
from the benchmark's files only: :meth:`Tracer.install` rebinds the module
and class attributes that library callers look up (``run_closure`` inside
the semantics modules and :mod:`repro.service`, ``solve_min_ones``,
``Database.clone`` ...) to wrappers that open a span around the original.
:meth:`Tracer.uninstall` restores every original, so untraced samples (and
every other import of the library in the process) run unmodified code.

A span records its name, start, end, parent span and sample id, and stays in
memory until the process exits.  A span's *self time* is its duration minus
the durations of its direct children; children of one span run one after
another on its thread, so this is the part of the interval no child covers.
Only spans opened on the main thread are recorded: the sharded engine's
worker threads never call a rebound attribute, and :attr:`Tracer.foreign`
counts any that do, so a broken assumption shows in the output.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    sample: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_closure(tracer: "Tracer", result) -> None:
    tracer.counts["datalog.closure_calls"] += 1
    tracer.counts["datalog.rounds"] += result.rounds
    if result.engine == "sharded":
        tracer.counts["datalog.sharded_closures"] += 1


def _hook_clone(tracer: "Tracer", copy) -> None:
    # A SQLite clone is a new connection with no statement hooks, so the
    # statements a semantics runs on its working copy would go uncounted.
    copy.add_statement_hook(tracer.count_statement)
    tracer.counts["storage.clones"] += 1


def _count_clone(tracer: "Tracer", _copy) -> None:
    tracer.counts["storage.clones"] += 1


#: (``module:attribute`` or ``module:Class.attribute``, span name, result hook)
TARGETS = (
    ("repro.core.semantics.end:run_closure", "datalog.closure", _count_closure),
    ("repro.core.semantics.step:run_closure", "datalog.closure", _count_closure),
    ("repro.service:run_closure", "datalog.closure", _count_closure),
    (
        "repro.core.semantics.independent:build_boolean_provenance",
        "provenance.boolean",
        None,
    ),
    ("repro.core.semantics.independent:solve_min_ones", "solver.solve", None),
    ("repro.core.semantics.step:stabilized_copy", "storage.stabilized_copy", None),
    (
        "repro.core.semantics.independent:stabilized_copy",
        "storage.stabilized_copy",
        None,
    ),
    ("repro.service:dred_delete", "incremental.dred", None),
    ("repro.service:maintain_insertions", "incremental.insert", None),
    ("repro.storage.database:Database.clone", "storage.clone", _count_clone),
    ("repro.storage.sqlite_backend:SQLiteDatabase.clone", "storage.clone", _hook_clone),
    (
        "repro.datalog.incremental:PersistentAssignmentStore.flush",
        "incremental.flush",
        None,
    ),
)


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.sql: Counter = Counter()
        self.sample: Optional[int] = None
        self.foreign = 0
        self._stack: List[int] = []
        self._saved: list = []
        self._main = threading.main_thread()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the block; yields the span's index."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.sample)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add_phase(self, parent: int, name: str, seconds: float) -> None:
        """Attach a phase the library timed itself as a child of ``parent``.

        Only its duration is known, so it is placed at the parent's start;
        self times use durations only, which keeps them exact.
        """
        start = self.spans[parent].start
        self.spans.append(Span(name, start, start + seconds, parent, self.sample))

    def count_statement(self, sql: str) -> None:
        """SQLite statement hook: count statements per ``/* repro:<tag> */``."""
        begin = sql.find("/* repro:")
        if begin < 0:
            self.sql["untagged"] += 1
        else:
            self.sql[sql[begin + 9 : sql.find(" */", begin)]] += 1

    def _wrap(self, name: str, original: Callable, after) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.current_thread() is not self._main:
                self.foreign += 1
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return traced

    # -- rebinding -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every :data:`TARGETS` attribute to its traced wrapper."""
        if self._saved:
            return
        for path, name, after in TARGETS:
            module_name, _, qualified = path.partition(":")
            owner = importlib.import_module(module_name)
            *classes, attribute = qualified.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, after))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` rebound."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def self_times(spans: Sequence[Span], sample: Optional[int] = None) -> Dict[str, float]:
    """Self seconds per span name, over all spans or one sample's spans."""
    children = [0.0] * len(spans)
    for record in spans:
        if record.parent is not None:
            children[record.parent] += record.duration
    totals: Dict[str, float] = {}
    for index, record in enumerate(spans):
        if sample is None or record.sample == sample:
            totals[record.name] = (
                totals.get(record.name, 0.0) + record.duration - children[index]
            )
    return totals
