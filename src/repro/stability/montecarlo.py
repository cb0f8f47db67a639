"""Shared Monte-Carlo plumbing for the stability estimators.

Every stability estimator runs the same shape of loop: ``trials``
independent draws, each of which re-ranks the table and compares the
result to a baseline.  Three properties make that loop safe to
parallelize — on threads *or* across processes:

- **Per-trial RNG streams.**  Trial ``i`` draws from
  ``default_rng([seed, i])`` instead of consuming a single sequential
  stream, so a trial's randomness does not depend on which trials ran
  before it (or on which worker ran it).  Results are therefore
  bit-identical whether the loop runs serially, on a thread pool, or
  in any interleaving — the property the engine's executor relies on.
- **Picklable trial work.**  The estimators package everything a trial
  needs into a plain payload (table arrays + design parameters) and
  run a *module-level* function over it, so a process backend can ship
  the work to workers by pickling one payload per chunk.
- **Order-preserving fan-out.**  :func:`run_payload_trials` maps the
  trial function over ``range(trials)`` inline or via a
  :class:`~repro.engine.backends.TrialBackend`, every one of which
  returns results in submission order — aggregation code never sees
  reordered outcomes.  (The ``vectorized`` backend exploits the same
  shape from the other direction: because the payload is plain data
  and the RNG streams are per-trial, the whole batch can be computed
  as one array program — see :mod:`repro.stability.kernels`.)

:func:`run_trials` is the closure-based predecessor (inline or over a
``concurrent.futures.Executor``); it remains for callers whose trial
function is not picklable, but cannot cross a process boundary.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import Executor
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np

from repro.errors import StabilityError

if TYPE_CHECKING:  # engine imports stability; keep the reverse static-only
    from repro.engine.backends import TrialBackend

__all__ = [
    "trial_rng",
    "run_trials",
    "run_payload_trials",
    "backend_for",
    "checked_epsilon",
    "checked_iterations",
]

T = TypeVar("T")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """An independent, deterministic generator for one Monte-Carlo trial."""
    return np.random.default_rng([seed, trial])


def checked_epsilon(epsilon: float) -> float:
    """``epsilon`` as a float; :class:`StabilityError` unless finite and >= 0.

    NaN passes a bare ``epsilon < 0`` test, and an infinite magnitude
    only fails deep inside the RNG or the ranking; both are the
    caller's mistake and are reported as such.
    """
    value = float(epsilon)
    if not math.isfinite(value) or value < 0.0:
        raise StabilityError(
            f"epsilon must be finite and non-negative, got {epsilon!r}"
        )
    return value


def checked_iterations(iterations: int) -> int:
    """Bisection steps; :class:`StabilityError` when negative."""
    if iterations < 0:
        raise StabilityError(f"iterations must be >= 0, got {iterations}")
    return iterations


def run_trials(
    fn: Callable[[int], T], trials: int, executor: Executor | None = None
) -> list[T]:
    """Run ``fn(0..trials-1)``, inline or on ``executor``, in order.

    ``Executor.map`` yields results in submission order, so the output
    list is identical for both paths; with per-trial RNG streams the
    *values* are identical too.
    """
    if executor is None:
        return [fn(trial) for trial in range(trials)]
    return list(executor.map(fn, range(trials)))


def backend_for(
    executor: Executor | None, backend: "TrialBackend | None"
) -> "TrialBackend | None":
    """Resolve an estimator's legacy ``executor=`` against ``backend=``.

    ``backend`` wins; a bare ``executor`` is wrapped so the caller-owned
    pool keeps working through the backend interface.  (Imported lazily:
    the engine package imports stability at module load.)
    """
    if backend is not None or executor is None:
        return backend
    from repro.engine.backends import ExecutorTrialBackend

    return ExecutorTrialBackend(executor)


def run_payload_trials(
    fn: Callable[[Any, int], T],
    payload: Any,
    trials: int,
    backend: "TrialBackend | None" = None,
) -> list[T]:
    """Run ``fn(payload, 0..trials-1)`` on ``backend``, in trial order.

    ``fn`` must be a module-level function and ``payload`` plain
    picklable data when ``backend`` crosses a process boundary; with
    ``backend=None`` the trials run inline on the calling thread.
    """
    if backend is None:
        return [fn(payload, trial) for trial in range(trials)]
    return backend.run(fn, payload, trials)
