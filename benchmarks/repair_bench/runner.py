"""One workload run inside a fresh interpreter: set-up, warm-up, timed loop, metrics.

The run measures for at least ``seconds`` seconds and at least the
workload's minimum sample count.  End-to-end metrics come from untraced
runs only.  A traced run alternates traced and untraced samples: the traced
ones give the per-layer metrics, and the ratio of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

from benchmarks.repair_bench.stats import nearest_rank, summarize
from benchmarks.repair_bench.trace import Tracer, self_times
from benchmarks.repair_bench.workloads import Record, Sample, maybe_span

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "sample_s": "s",
    "op_geomean_ms": "ms",
    "slowest_op_ms": "ms",
    "deleted_tuples": "tuples",
    "peak_rss_mb": "MB",
}

#: Span name -> per-layer metric for its self-time share of a traced sample.
SAMPLE_SHARES = {
    span: f"{span}.self_share"
    for span in (
        "harness.sample",
        "semantics.end",
        "semantics.stage",
        "semantics.step",
        "semantics.independent",
        "datalog.closure",
        "provenance.boolean",
        "provenance.graph",
        "solver.solve",
        "storage.clone",
        "storage.stabilized_copy",
        "service.apply",
        "service.query",
        "incremental.dred",
        "incremental.insert",
        "incremental.flush",
    )
}

#: Span name -> per-layer metric for its self-time share of a traced set-up.
SETUP_SHARES = {
    "harness.setup": "setup.harness_share",
    "workloads.generate": "setup.generate_share",
    "storage.import": "setup.import_share",
    "service.load": "setup.load_share",
    "datalog.closure": "setup.closure_share",
    "incremental.flush": "setup.flush_share",
}

#: Per-sample counts (median over traced samples).
COUNTS = (
    "datalog.closure_calls",
    "datalog.rounds",
    "datalog.sharded_closures",
    "datalog.replans",
    "datalog.variant_compiles",
    "datalog.wcoj_rules",
    "datalog.effective_shards",
    "datalog.collapsed_rounds",
    "datalog.shard_selects",
    "storage.clones",
    "storage.sql_statements",
    "provenance.clauses",
    "provenance.variables",
    "provenance.graph_nodes",
    "provenance.graph_edges",
    "solver.components",
    "solver.nodes",
    "solver.optimal_programs",
    "incremental.overdeleted",
    "incremental.rederived",
    "incremental.retracted",
    "incremental.dred_fallbacks",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "share" for name in SAMPLE_SHARES.values()}
    units.update({name: "share" for name in SETUP_SHARES.values()})
    units.update({name: "count" for name in COUNTS})
    units.update(
        {
            "solver.exact_share": "share",
            "trace.sample_s": "s",
            "trace.overhead": "ratio",
            "trace.unattributed_share": "share",
            "trace.spans": "count",
            "trace.foreign_spans": "count",
        }
    )
    return units


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _summary(values: List[float]) -> Dict[str, float]:
    """:func:`summarize`, or zeros with n = 0 when every operation failed."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    return summarize(values)


def _reset_peak_rss() -> None:
    """Lower the process's resident-memory high-water mark to its current size
    (Linux), so the peak covers only what runs after this call."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
        clear_refs.write("5")


def _peak_rss_mb() -> float:
    """The resident-memory high-water mark since the last reset, in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def run_workload(
    workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> dict:
    """Run one workload and return its result object (see the README)."""
    tracer = Tracer() if trace else None
    record = Record()
    setup_seconds: List[float] = []
    state = None
    for index in range(workload.setups):
        if state is not None:
            workload.close(state)
            state = None
        gc.collect()
        if tracer is not None:
            tracer.sample = -1 - index
        start = time.perf_counter()
        with tracer.installed() if tracer is not None else nullcontext():
            with maybe_span(tracer, "harness.setup"):
                state = workload.setup(seed, workdir, tracer)
        setup_seconds.append(time.perf_counter() - start)
    try:
        workload.warm_up(state, record)
        # Move the loaded instance out of the collector's reach, so the
        # gc.collect() before each operation walks only what the previous
        # operation left behind (a full walk at scale 8 costs ~15 ms, more
        # than a maintenance batch).
        gc.collect()
        gc.freeze()
        # Set-up copies and the warm-up's oracle checks are not the library's
        # cost under load; the peak covers the measured samples only.
        rss_mb = {"before_measuring_peak": _peak_rss_mb()}
        _reset_peak_rss()
        rss_mb["measuring_start"] = _peak_rss_mb()
        try:
            samples = _measure(workload, state, record, tracer, seconds)
            peak_rss_mb = rss_mb["measuring_peak"] = _peak_rss_mb()
        finally:
            gc.unfreeze()
    finally:
        workload.close(state)
    untraced = [sample for sample in samples if sample.trace_id is None]
    if tracer is None:
        summaries = _end_to_end(untraced, setup_seconds, peak_rss_mb)
        units = END_TO_END
    else:
        traced = [sample for sample in samples if sample.trace_id is not None]
        summaries = _per_layer(tracer, traced, untraced, setup_seconds)
        units = per_layer_units()
    return {
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": summaries[name]["median"], "unit": unit}
            for name, unit in units.items()
        },
        "summaries": summaries,
        "details": {**_details(untraced, record, tracer, samples), "rss_mb": rss_mb},
    }


def _measure(workload, state, record: Record, tracer, seconds: float) -> List[Sample]:
    samples: List[Sample] = []
    start = time.perf_counter()
    minimum = workload.min_samples * (2 if tracer is not None else 1)
    while len(samples) < minimum or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(samples) % 2 == 0
        if traced:
            tracer.sample = len(samples)
            counts_before = Counter(tracer.counts)
            statements_before = sum(tracer.sql.values())
        sample = workload.sample(state, record, tracer if traced else None)
        if traced:
            sample.trace_id = tracer.sample
            sample.counts.update(tracer.counts - counts_before)
            statements = sum(tracer.sql.values()) - statements_before
            sample.counts["storage.sql_statements"] += statements
        workload.check(state, record, sample)
        # Results hold repaired database copies; keeping them would grow the
        # heap (and every later gc.collect) with each sample.
        sample.results.clear()
        samples.append(sample)
    return samples


def _geomean_of_kinds(ops: List[tuple]) -> float:
    """Geometric mean over operation kinds of each kind's median, in ms.

    Every kind weighs the same whatever its latency, and no single kind's
    noise decides the value, as it would for a percentile that falls between
    two kinds' latencies.
    """
    by_kind: Dict[str, List[float]] = {}
    for key, seconds in ops:
        by_kind.setdefault(key, []).append(1000 * seconds)
    return math.exp(
        statistics.fmean(math.log(statistics.median(v)) for v in by_kind.values())
    )


def _end_to_end(
    samples: List[Sample], setup_seconds: List[float], peak_rss_mb: float
) -> Dict[str, dict]:
    # Operation metrics cover the operations that compute or change a repair;
    # maintenance point queries take microseconds and only count in sample_s.
    # A sample whose every such operation failed has no latency to report.
    timed = [
        [(key, seconds) for key, seconds in sample.ops if not key.startswith("query/")]
        for sample in samples
    ]
    timed = [ops for ops in timed if ops]
    return {
        "setup_s": summarize(setup_seconds),
        "sample_s": _summary([sample.seconds for sample in samples if sample.ops]),
        "op_geomean_ms": _summary([_geomean_of_kinds(ops) for ops in timed]),
        "slowest_op_ms": _summary(
            [1000 * max(seconds for _key, seconds in ops) for ops in timed]
        ),
        "deleted_tuples": summarize([sample.deleted for sample in samples]),
        "peak_rss_mb": summarize([peak_rss_mb]),
    }


def _per_layer(
    tracer: Tracer,
    traced: List[Sample],
    untraced: List[Sample],
    setup_seconds: List[float],
) -> Dict[str, dict]:
    values: Dict[str, list] = {name: [] for name in per_layer_units()}
    for sample in traced:
        own = self_times(tracer.spans, sample.trace_id)
        for span, name in SAMPLE_SHARES.items():
            values[name].append(_share(own.get(span, 0.0), sample.wall))
        attributed = _share(sum(own.values()), sample.wall)
        values["trace.unattributed_share"].append(1 - attributed)
        values["trace.spans"].append(
            sum(1 for span in tracer.spans if span.sample == sample.trace_id)
        )
        for name in COUNTS:
            values[name].append(sample.counts[name])
        components = sample.counts["solver.components"]
        exact = components - sample.counts["solver.greedy_components"]
        values["solver.exact_share"].append(_share(exact, components))
        values["trace.sample_s"].append(sample.seconds)
    for index, wall in enumerate(setup_seconds):
        own = self_times(tracer.spans, -1 - index)
        for span, name in SETUP_SHARES.items():
            values[name].append(_share(own.get(span, 0.0), wall))
    values["trace.overhead"].append(
        _share(
            statistics.median(sample.seconds for sample in traced),
            statistics.median(sample.seconds for sample in untraced),
        )
        - 1
    )
    values["trace.foreign_spans"].append(tracer.foreign)
    return {name: summarize(series) for name, series in values.items()}


def _tail(seconds: List[float], percent: int):
    """Nearest-rank percentile in ms, or None when too few samples lie beyond."""
    try:
        return 1000 * nearest_rank(seconds, percent)
    except ValueError:
        return None


def _details(
    untraced: List[Sample], record: Record, tracer, samples: List[Sample]
) -> dict:
    ops: Dict[str, list] = {}
    for sample in untraced:
        for key, seconds in sample.ops:
            ops.setdefault(key, []).append(seconds)
    groups = {"operations": [], "queries": []}
    for key, values in ops.items():
        groups["queries" if key.startswith("query/") else "operations"].extend(values)
    details = {
        "samples": len(samples),
        "percentiles_ms": {
            f"{group}_p{percent}": _tail(values, percent)
            for group, values in groups.items()
            for percent in (50, 99)
        },
        "ops_ms": {
            key: {"median": 1000 * statistics.median(values), "n": len(values)}
            for key, values in ops.items()
        },
        "engines": {
            key[len("engine."):]: count
            for key, count in samples[0].counts.items()
            if key.startswith("engine.")
        },
        "errors": record.errors,
    }
    if tracer is not None:
        per_sample = [
            self_times(tracer.spans, sample.trace_id)
            for sample in samples
            if sample.trace_id is not None
        ]
        names = sorted({name for own in per_sample for name in own})
        details["self_seconds"] = {
            name: statistics.median(own.get(name, 0.0) for own in per_sample)
            for name in names
        }
        details["sql_statements"] = dict(tracer.sql)
    return details
