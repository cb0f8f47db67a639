"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.  Everything
else the run measured (the tail percentile and its sample count, the
per-action web latencies, failed share, the capacity probes, generator
lag, host facts) goes to standard error as one ``# detail`` JSON line.
Exits with 2, printing no result, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, BLAS_THREADS, SourceMissing, prepare_process  # noqa: E402

WORKLOAD_NAMES = ("batch-audit", "web-session", "mc-stability", "mc-remote")


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        prepare_process()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_facts(),
        "failed_share": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "problems": outcome.problems[:20],
        "invalid": outcome.invalid,
        **outcome.details,
    }
    print("# detail " + json.dumps(details), file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.invalid and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
