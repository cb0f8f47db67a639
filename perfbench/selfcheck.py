"""The benchmark's own checks.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

1. Each traced workload runs twice with one seed; the per-label counts
   in ``layers.EXACT_COUNTS`` must repeat exactly, and every per-layer
   metric of ``BENCHMARK.json`` must be printed with its unit.
2. One untraced run per workload must print every end-to-end metric,
   each a positive number, with ``correct`` true.
3. A directory holding only ``BENCHMARK.json`` and the benchmark's own
   files must make the command fail without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT  # noqa: E402
from layers import EXACT_COUNTS  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(cwd: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[int, str]:
    spec = benchmark()
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys are {sorted(result)}")
    return result


def check_metrics(result: dict, expected: list[dict], what: str, positive: bool) -> None:
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        raise AssertionError(f"{what}: metrics {sorted(set(metrics) ^ set(names))} differ")
    for metric in expected:
        got = metrics[metric["name"]]
        if got["unit"] != metric["unit"]:
            raise AssertionError(f"{what}: {metric['name']} unit {got['unit']!r}")
        if positive and not got["value"] > 0:
            raise AssertionError(f"{what}: {metric['name']} = {got['value']}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: correct={result['correct']} "
                             f"attempted={result['attempted']} failed={result['failed']}")


def check_exact_counts(workload: str, seed: int, seconds: int) -> None:
    spec = benchmark()
    counts = []
    for attempt in range(2):
        code, stdout = run(ROOT, workload, seed, seconds, 1)
        if code != 0:
            raise AssertionError(f"{workload} traced run exited {code}")
        result = result_of(stdout)
        check_metrics(result, spec["per_layer"], f"{workload} traced", positive=False)
        counts.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTS})
    if counts[0] != counts[1]:
        raise AssertionError(f"{workload}: counts differ between runs: {counts}")
    print(f"ok  {workload}: exact counts repeat {counts[0]}")


def check_end_to_end(workload: str, seed: int, seconds: int) -> None:
    code, stdout = run(ROOT, workload, seed, seconds, 0)
    if code != 0:
        raise AssertionError(f"{workload} run exited {code}")
    check_metrics(result_of(stdout), benchmark()["end_to_end"], workload, positive=True)
    print(f"ok  {workload}: every end-to-end metric printed")


def check_without_program(seconds: int) -> None:
    """Only the benchmark's files: the command must fail and print nothing."""
    spec = benchmark()
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run(bare, WORKLOAD_NAMES[0], 1, seconds, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or stdout.strip():
        raise AssertionError(f"without the program: exit {code}, stdout {stdout!r}")
    print(f"ok  without the program the command exits {code} and prints no result")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=benchmark()["run_seconds"])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    check_without_program(args.seconds)
    for workload in args.workload or WORKLOAD_NAMES:
        check_exact_counts(workload, args.seed, args.seconds)
        check_end_to_end(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
