"""Command line: ``run`` the workloads, ``compare`` result files.

    PYTHONPATH=src python -m benchmarks.repair_bench run [--workload NAME ...]
        [--seed 7] [--seconds 20] [--trace [0|1]] [--smoke] [--out FILE]
    python -m benchmarks.repair_bench compare BASE.json NEW.json [BASE NEW ...]

``run`` starts one fresh interpreter per workload, one at a time, with every
``REPRO_*`` variable removed from its environment, so the default
configuration is measured and no workload's caches or peak memory leak into
the next.  It prints every metric with its unit and sample count, and as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"
DEFAULT_SECONDS = 20
SMOKE_SECONDS = 0.3
#: A run that ends later than this was stuck; the child is killed.
CHILD_TIMEOUT = 170


def _child_env(seed: int) -> dict:
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SOURCE), str(ROOT), env.get("PYTHONPATH")))
    )
    # String hashing drives set iteration order inside the library; pinning
    # it per seed makes a seed reproduce the same process, not only the same
    # inputs.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


def _print_result(name: str, result: dict) -> None:
    details = result["details"]
    print(
        f"[{name}] correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} samples={details['samples']} "
        f"engines={details['engines']}"
    )
    for metric, entry in result["metrics"].items():
        summary = result["summaries"][metric]
        print(
            f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<7} "
            f"n={summary['n']:<6} q1={summary['q1']:.6g} q3={summary['q3']:.6g}"
        )
    for error in details["errors"]:
        print(f"  error: {error}")


def _run_child(name: str, args: argparse.Namespace, seconds: float) -> dict | None:
    # The benchmark reads and writes only inside the checkout it runs from, so
    # the maintenance store's database file goes to a work directory there
    # (named in .gitignore), not to the system temp directory.
    workdir = tempfile.mkdtemp(prefix=".repair_bench-", dir=ROOT)
    command = [sys.executable, "-m", "benchmarks.repair_bench", "child", name]
    command += [str(args.seed), str(seconds), str(args.trace), str(int(args.smoke))]
    try:
        child = subprocess.run(
            command + [workdir],
            cwd=ROOT,
            env=_child_env(args.seed),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print(f"repair_bench: {name} ran past {CHILD_TIMEOUT} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        print(f"repair_bench: {name} exited with {child.returncode}", file=sys.stderr)
        return None
    return json.loads(child.stdout.strip().splitlines()[-1])


def command_run(args: argparse.Namespace) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"repair_bench: no library sources under {SOURCE}", file=sys.stderr)
        return 2
    # A terminated parent must not leave its child running: exiting through
    # an exception lets subprocess.run kill and reap the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SOURCE))
    from benchmarks.repair_bench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"repair_bench: unknown workloads {unknown}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    results = {}
    for name in names:
        result = _run_child(name, args, seconds)
        if result is None:
            return 1
        results[name] = result
        _print_result(name, result)
    if args.out:
        report = {
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "machine": _machine(),
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        (only,) = results.values()
        final = {key: only[key] for key in keys}
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


def command_child(args: argparse.Namespace) -> int:
    from benchmarks.repair_bench.runner import run_workload
    from benchmarks.repair_bench.workloads import WORKLOADS, smoke

    workload = WORKLOADS[args.name]
    result = run_workload(
        smoke(workload) if args.smoke else workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=Path(args.workdir),
    )
    print(json.dumps(result, sort_keys=True))
    return 0


def command_compare(args: argparse.Namespace) -> int:
    from benchmarks.repair_bench.compare import compare_files

    return compare_files(args.files, ROOT / "BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.repair_bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", help="workload (repeatable)")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"measuring time per workload (default {DEFAULT_SECONDS})",
    )
    run.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="traced run: report the per-layer metrics",
    )
    run.add_argument("--smoke", action="store_true", help="tiny inputs, short runs")
    run.add_argument("--out", help="write the full report as JSON")
    run.set_defaults(handler=command_run)

    compare = commands.add_parser("compare", help="classify a change against runs")
    compare.add_argument("files", nargs="+", help="BASE NEW pairs of `run --out` files")
    compare.set_defaults(handler=command_compare)

    child = commands.add_parser("child", help="one workload in this process (internal)")
    child.add_argument("name")
    child.add_argument("seed", type=int)
    child.add_argument("seconds", type=float)
    child.add_argument("trace", type=int)
    child.add_argument("smoke", type=int)
    child.add_argument("workdir")
    child.set_defaults(handler=command_child)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
