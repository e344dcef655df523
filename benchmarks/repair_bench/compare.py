"""``compare``: classify every (end-to-end metric, workload) of a change.

Files are ``run --out`` reports given as consecutive (parent, change)
pairs.  Directions and bounds come from ``BENCHMARK.json``.  The exit code
is non-zero when any metric regressed or a workload's failure rate rose.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from benchmarks.repair_bench.stats import REGRESSED, classify


def _failure_rate(results: List[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / max(1, attempted)


def compare_reports(
    pairs: Sequence[Tuple[dict, dict]], metrics: Sequence[dict]
) -> Tuple[Dict[Tuple[str, str], str], List[str]]:
    """Classifications per (workload, metric) and the workloads whose failure
    rate rose, from parsed (parent, change) report pairs."""
    classes: Dict[Tuple[str, str], str] = {}
    worse_failures: List[str] = []
    shared = [set(base["workloads"]) & set(new["workloads"]) for base, new in pairs]
    for workload in sorted(set.intersection(*shared)):
        base_results = [base["workloads"][workload] for base, _new in pairs]
        new_results = [new["workloads"][workload] for _base, new in pairs]
        if _failure_rate(new_results) > _failure_rate(base_results):
            worse_failures.append(workload)
        for metric in metrics:
            name = metric["name"]
            results = base_results + new_results
            if not all(name in result["metrics"] for result in results):
                continue
            classes[(workload, name)] = classify(
                [result["metrics"][name]["value"] for result in base_results],
                [result["metrics"][name]["value"] for result in new_results],
                metric["better"],
                metric["bound"],
            )
    return classes, worse_failures


def compare_files(files: Sequence[str], benchmark: Path) -> int:
    if len(files) % 2:
        print("compare: give the reports as BASE NEW pairs")
        return 2
    reports = [json.loads(Path(name).read_text()) for name in files]
    pairs = list(zip(reports[0::2], reports[1::2]))
    metrics = json.loads(benchmark.read_text())["end_to_end"]
    classes, worse_failures = compare_reports(pairs, metrics)
    rule = "pairs rule" if len(pairs) >= 10 else "bound only"
    print(f"{len(pairs)} parent/change pair(s), {rule}")
    for (workload, metric), verdict in sorted(classes.items()):
        print(f"  {workload:<16} {metric:<16} {verdict}")
    for workload in worse_failures:
        print(f"  {workload:<16} failure rate rose")
    regressed = worse_failures or any(v == REGRESSED for v in classes.values())
    return 1 if regressed else 0
