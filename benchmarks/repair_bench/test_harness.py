"""Tests of the benchmark harness itself: smoke runs, statistics, tracing, compare."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.repair_bench import stats
from benchmarks.repair_bench.compare import compare_reports
from benchmarks.repair_bench.trace import Span, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*arguments: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.repair_bench", "run", "--smoke", *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _expected(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_every_workload_emits_every_metric(tmp_path):
    report = tmp_path / "smoke.json"
    final = _run("--out", str(report))
    assert final["correct"] and final["failed"] == 0
    workloads = json.loads(report.read_text())["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name, result in workloads.items():
        assert result["failed"] == 0, (name, result["details"]["errors"])
        units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
        assert units == _expected("end_to_end"), name
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), name


def test_traced_run_emits_every_layer_metric_and_accounts_for_the_sample():
    final = _run("--workload", "mas-cascade", "--trace")
    assert final["failed"] == 0
    units = {metric: entry["unit"] for metric, entry in final["metrics"].items()}
    assert units == _expected("per_layer")
    assert abs(final["metrics"]["trace.unattributed_share"]["value"]) < 0.05
    assert final["metrics"]["trace.foreign_spans"]["value"] == 0
    assert final["metrics"]["solver.solve.self_share"]["value"] > 0


def test_nearest_rank_needs_ten_samples_beyond():
    values = list(range(100))
    assert stats.nearest_rank(values, 90) == 89
    with pytest.raises(ValueError):
        stats.nearest_rank(values, 95)
    with pytest.raises(ValueError):
        stats.nearest_rank(values[:15], 50)


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("a", 6.0, 7.0, 2, 1),
        Span("root", 20.0, 21.0, None, 2),
    ]
    own = self_times(spans, sample=1)
    assert own == pytest.approx({"root": 3.0, "a": 4.0, "b": 3.0})
    assert sum(own.values()) == pytest.approx(10.0)
    assert self_times(spans)["root"] == pytest.approx(4.0)


def _report(value: float, failed: int = 0) -> dict:
    metrics = {"sample_s": {"value": value, "unit": "s"}}
    result = {"attempted": 100, "failed": failed, "metrics": metrics}
    return {"workloads": {"w": result}}


def _verdict(base, new, failed=0):
    pairs = [(_report(b), _report(n, failed)) for b, n in zip(base, new)]
    metric = [{"name": "sample_s", "better": "lower", "bound": 0.1}]
    classes, worse_failures = compare_reports(pairs, metric)
    return classes[("w", "sample_s")], worse_failures


def test_compare_classifies_synthetic_runs():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    assert _verdict(parent, [v * 1.3 for v in parent])[0] == stats.REGRESSED
    assert _verdict(parent, [v * 0.8 for v in parent])[0] == stats.IMPROVED
    assert _verdict(parent, [v * 1.01 for v in parent])[0] == stats.UNCHANGED
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert _verdict(noisy, [v * 0.95 for v in noisy[::-1]])[0] == stats.UNRESOLVED
    assert _verdict([1.0], [1.5])[0] == stats.REGRESSED
    assert _verdict([1.0], [1.05])[0] == stats.UNCHANGED
    assert _verdict(parent, parent, failed=1)[1] == ["w"]


def test_a_solver_adding_a_deletion_is_counted_as_a_failure(monkeypatch, tmp_path):
    import repro.core.semantics.independent as independent
    from repro.solver import MinOnesResult

    from benchmarks.repair_bench.workloads import WORKLOADS, Record, smoke

    solve = independent.solve_min_ones

    def one_too_many(cnf, **options):
        result = solve(cnf, **options)
        spare = sorted(set(result.assignment) - result.true_variables)
        if not spare:
            return result
        return MinOnesResult(
            assignment={**result.assignment, spare[0]: True},
            true_variables=result.true_variables | {spare[0]},
            optimal=result.optimal,
            stats=result.stats,
        )

    monkeypatch.setattr(independent, "solve_min_ones", one_too_many)
    workload = smoke(WORKLOADS["tpch-sqlite"])
    state = workload.setup(7, tmp_path)
    record = Record()
    try:
        workload.warm_up(state, record)
    finally:
        workload.close(state)
    assert record.failed > 0
    assert any("independent" in error for error in record.errors)


def test_a_library_that_always_raises_still_reports_a_result(monkeypatch, tmp_path):
    from repro.core import RepairEngine

    from benchmarks.repair_bench.runner import run_workload
    from benchmarks.repair_bench.workloads import WORKLOADS, smoke

    def broken(self, *args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(RepairEngine, "repair", broken)
    workload = smoke(WORKLOADS["mas-cascade"])
    result = run_workload(workload, seed=7, seconds=0, trace=False, workdir=tmp_path)
    assert not result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert set(result["metrics"]) == set(_expected("end_to_end"))
