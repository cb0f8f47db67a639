"""Shared set-up: the checkout's source tree, pinned BLAS threads, RSS."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one BLAS thread: the label work already runs on up to nproc (2) job
# threads, and idle BLAS spinners would only add noise
BLAS_THREADS = "1"


class SourceMissing(RuntimeError):
    """The checkout holds no program to measure."""


def prepare_process() -> None:
    """Pin BLAS threads and import the program from this checkout only.

    Must run before numpy is imported.  Raises :class:`SourceMissing`
    when ``src/repro`` is absent, so the benchmark cannot silently
    measure some other installed copy.
    """
    for name in BLAS_THREAD_VARS:
        os.environ[name] = BLAS_THREADS
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SourceMissing(f"repro imported from {repro.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for server and worker processes."""
    env = dict(os.environ)
    for name in BLAS_THREAD_VARS:
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
