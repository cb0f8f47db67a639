"""Vectorized Monte-Carlo trial kernels: a whole trial batch as array ops.

The scalar trial functions in :mod:`repro.stability.perturbation`,
:mod:`~repro.stability.uncertainty`, and
:mod:`~repro.stability.per_attribute` each re-rank the table once per
trial: materialize a scored :class:`~repro.ranking.ranker.Ranking`
(``Table.take`` over every column), convert ids to Python lists, and
compare via per-item dict lookups.  That per-trial interpretation
overhead is exactly what columnar engines avoid by batching — and these
kernels apply the same discipline to the stability widget's hot loop:

- the design matrix ``X (n_rows x n_attrs)`` is pulled from the table
  **once**;
- all ``T`` jitter/noise draws come from the unchanged per-trial RNG
  streams (``trial_rng(seed, trial)``), so results stay reproducible;
- the ``(n x T)`` score matrix is accumulated **per attribute in the
  scorer's declaration order** — the identical sequence of IEEE
  operations :meth:`LinearScoringFunction.score_table` performs, so
  every score is byte-identical to the scalar path's;
- each kernel materialises only what its answer needs.  Perturbation
  and data uncertainty report Kendall tau, which needs every trial's
  full order: all trials are stable-argsorted at once and the movement
  metrics are computed on integer permutation arrays — Kendall tau via
  merge-sort inversion counting (:func:`repro.ranking.compare
  .count_inversions_batch`), top-k overlap via position prefixes.  The
  per-attribute kernel only asks whether the top-k *set* changed, so it
  sorts nothing: one min and one max per trial decide membership
  (:func:`run_attribute_kernel`).  No ``Table`` is constructed and no
  dict is consulted inside the loop.

**Byte-identity contract.**  For every payload a kernel accepts, its
result list is byte-identical to running the matching scalar trial
function over ``range(trials)``.  Anything a kernel cannot reproduce
exactly — a scorer that is not a plain
:class:`~repro.ranking.scoring.LinearScoringFunction` (a subclass may
override ``score_table``), duplicate item ids, a payload whose baseline
disagrees with its table, a trial the scalar path refuses to rank — is
**declined**, and
:func:`dispatch_kernel` reports the reason so the caller (the
``vectorized`` :class:`~repro.engine.backends.VectorizedTrialBackend`)
can fall back to the scalar path and surface the reason in
``GET /engine/stats``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.ranking.compare import count_inversions_batch, kendall_tau_from_discordant
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.montecarlo import trial_rng
from repro.stability.per_attribute import AttributeTrialPayload, _attribute_trial
from repro.stability.perturbation import PerturbationTrialPayload, _perturbation_trial
from repro.stability.uncertainty import UncertaintyTrialPayload, _uncertainty_trial
from repro.tabular.table import Table

__all__ = [
    "dispatch_kernel",
    "kernel_for",
    "run_perturbation_kernel",
    "run_uncertainty_kernel",
    "run_attribute_kernel",
]


class _KernelFallback(Exception):
    """Raised inside a kernel when the scalar path must run instead."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise _KernelFallback(reason)


def _require_plain_linear_scorer(scorer: object) -> LinearScoringFunction:
    # an exact type check: a subclass may override score_table, and the
    # kernel's accumulation would silently diverge from it
    _require(
        type(scorer) is LinearScoringFunction,
        f"scorer {type(scorer).__name__} is not a plain LinearScoringFunction",
    )
    return scorer  # type: ignore[return-value]


def _design_matrix(
    table: Table, scorer: LinearScoringFunction
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-attribute value vectors (NaN -> 0) plus the any-missing mask.

    Mirrors the per-attribute preparation inside ``score_table``: the
    returned vectors are exactly the ``values`` arrays the scalar path
    multiplies by each weight.
    """
    columns: list[np.ndarray] = []
    any_missing = np.zeros(table.num_rows, dtype=bool)
    for attr in scorer.attributes():
        try:
            values = table.numeric_column(attr).values.copy()
        except Exception as exc:
            raise _KernelFallback(f"scoring attribute {attr!r} unusable: {exc}") from exc
        missing = np.isnan(values)
        any_missing |= missing
        values[missing] = 0.0
        columns.append(values)
    return columns, any_missing


def _accumulate_scores(
    columns: list[np.ndarray],
    weight_matrix: np.ndarray,
    any_missing: np.ndarray,
    missing_policy: str,
) -> np.ndarray:
    """The ``(n x T)`` score matrix, accumulated like ``score_table``.

    ``weight_matrix[a, t]`` is attribute ``a``'s weight in trial ``t``.
    Accumulation runs attribute-by-attribute in declaration order, so
    each element sees the same ``((0 + w1*x1) + w2*x2) + ...`` sequence
    as the scalar path — byte-identical floats.
    """
    n = columns[0].shape[0] if columns else 0
    scores = np.zeros((n, weight_matrix.shape[1]), dtype=np.float64)
    for index, values in enumerate(columns):
        scores += values[:, None] * weight_matrix[index][None, :]
    if missing_policy == "propagate":
        scores[any_missing, :] = np.nan
    return scores


def _stable_orders(scores: np.ndarray) -> np.ndarray:
    """Argsort every trial column exactly like ``Ranking.from_scores``."""
    keys = -scores
    keys[np.isnan(keys)] = np.inf  # NaN scores sort last
    return np.argsort(keys, axis=0, kind="stable")


def _baseline_order(table: Table, scorer: LinearScoringFunction) -> np.ndarray:
    """Row indices of the unperturbed ranking, best first."""
    base_scores = scorer.score_table(table)
    keys = -base_scores.copy()
    keys[np.isnan(keys)] = np.inf
    return np.argsort(keys, kind="stable")


def _positions_from_orders(orders: np.ndarray) -> np.ndarray:
    """Invert each trial's order: ``positions[row, t]`` = rank position."""
    positions = np.empty_like(orders)
    np.put_along_axis(
        positions,
        orders,
        np.broadcast_to(np.arange(orders.shape[0])[:, None], orders.shape),
        axis=0,
    )
    return positions


def _unique_ids(table: Table, id_column: str) -> list:
    _require(id_column in table, f"id column {id_column!r} not in table")
    ids = list(table.column(id_column).values)
    _require(len(set(ids)) == len(ids), "item ids are not unique")
    return ids


def _verified_baseline(
    payload, ids: list, base_order: np.ndarray, k: int
) -> None:
    """Decline payloads whose baseline disagrees with their own table."""
    n = len(ids)
    _require(
        tuple(ids[row] for row in base_order) == tuple(payload.baseline_ids),
        "payload baseline_ids do not match the table's own ranking",
    )
    _require(
        set(payload.baseline_ids[:k]) == set(payload.baseline_top),
        "payload baseline_top does not match baseline_ids",
    )
    _require(1 <= k, f"k must be >= 1, got {k}")
    _require(n >= 2, f"rank comparison needs at least 2 items, found {n}")


def _movement_outcomes(
    base_order: np.ndarray, orders: np.ndarray, k: int
) -> list[tuple[float, float, bool]]:
    """Per-trial (tau, overlap, changed) from permutation arrays.

    Exactly the metrics ``kendall_tau_ids`` / ``top_k_overlap_ids`` /
    the top-set comparison produce, computed without ids: discordant
    pairs are inversions of the re-ranked position sequence, overlap is
    a prefix membership count.
    """
    n = orders.shape[0]
    positions = _positions_from_orders(orders)
    # positions of the baseline's items, in baseline order: one
    # permutation per trial whose inversions are the discordant pairs
    reranked = positions[base_order, :]
    discordant = count_inversions_batch(reranked.T)
    kept = min(k, n)
    in_top = positions[base_order[:kept], :] < kept
    counts = in_top.sum(axis=0)
    outcomes: list[tuple[float, float, bool]] = []
    for t in range(orders.shape[1]):
        tau = kendall_tau_from_discordant(int(discordant[t]), n)
        overlap = int(counts[t]) / kept
        outcomes.append((tau, overlap, bool(counts[t] != kept)))
    return outcomes


# -- weight perturbation -------------------------------------------------------


def _jitter_weight_matrix(
    scorer: LinearScoringFunction, epsilon: float, seed: int, trials: int,
    start: int = 0,
) -> np.ndarray:
    """All T perturbed weight vectors, drawn exactly like ``_jittered_scorer``.

    Trial ``t`` consumes ``trial_rng(seed, start + t)`` with one uniform
    per weight in declaration order — the identical draw sequence of the
    scalar path, so the perturbed weights match it float for float.
    ``start`` offsets the trial indices so a cluster worker computing
    the span ``[start, start + trials)`` of a larger batch draws the
    same streams the full-batch kernel would.
    """
    weights = scorer.weights
    mean_abs = float(np.mean([abs(v) for v in weights.values()]))
    matrix = np.empty((len(weights), trials), dtype=np.float64)
    for t in range(trials):
        rng = trial_rng(seed, start + t)
        for index, (attr, w) in enumerate(weights.items()):
            scale = abs(w) if w != 0.0 else mean_abs
            matrix[index, t] = w + float(rng.uniform(-epsilon, epsilon) * scale)
    return matrix


def run_perturbation_kernel(
    payload: PerturbationTrialPayload, trials: int, start: int = 0
) -> list[tuple[float, float, bool]]:
    """Trials ``[start, start + trials)`` of
    :func:`~repro.stability.perturbation._perturbation_trial`."""
    scorer = _require_plain_linear_scorer(payload.scorer)
    table = payload.table
    ids = _unique_ids(table, payload.id_column)
    weight_matrix = _jitter_weight_matrix(
        scorer, payload.epsilon, payload.seed, trials, start
    )
    # an all-zero draw would make the scalar path raise WeightError;
    # decline so it still does
    _require(
        not np.any(np.all(weight_matrix == 0.0, axis=0)),
        "a trial drew an all-zero weight vector",
    )
    base_order = _baseline_order(table, scorer)
    _verified_baseline(payload, ids, base_order, payload.k)
    columns, any_missing = _design_matrix(table, scorer)
    scores = _accumulate_scores(
        columns, weight_matrix, any_missing, scorer.missing_policy
    )
    return _movement_outcomes(base_order, _stable_orders(scores), payload.k)


# -- data uncertainty ----------------------------------------------------------


def _noise_matrices(
    payload: UncertaintyTrialPayload, trials: int, start: int = 0
) -> dict[str, np.ndarray]:
    """Per-attribute ``(n x T)`` noise, drawn exactly like ``_noisy_table``.

    Trial ``t`` consumes ``trial_rng(seed, start + t)`` with one ``normal``
    batch per noisy attribute in ``attribute_stds`` order (skipping
    zero-std attributes), each sized to the attribute's non-missing
    count — the scalar draw sequence, reproduced.  Repeated attributes
    overwrite (the scalar path re-reads the *original* column), and
    attributes outside the scoring set still consume their draws.
    """
    table = payload.table
    scoring = set(payload.scorer.attributes())
    columns: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for attr, std in payload.attribute_stds:
        if std == 0.0 or attr in columns:
            continue
        try:
            columns[attr] = table.numeric_column(attr).values
        except Exception as exc:
            raise _KernelFallback(f"noisy attribute {attr!r} unusable: {exc}") from exc
        masks[attr] = ~np.isnan(columns[attr])
    noise: dict[str, np.ndarray] = {}
    n = table.num_rows
    for t in range(trials):
        rng = trial_rng(payload.seed, start + t)
        for attr, std in payload.attribute_stds:
            if std == 0.0:
                continue
            mask = masks[attr]
            draw = rng.normal(0.0, payload.epsilon * std, size=int(mask.sum()))
            if attr not in scoring:
                continue  # draw consumed, column never scored
            matrix = noise.setdefault(attr, np.zeros((n, trials), dtype=np.float64))
            matrix[:, t][mask] = draw  # assignment: repeats overwrite
    return noise


def run_uncertainty_kernel(
    payload: UncertaintyTrialPayload, trials: int, start: int = 0
) -> list[tuple[float, float, bool]]:
    """Trials ``[start, start + trials)`` of
    :func:`~repro.stability.uncertainty._uncertainty_trial`."""
    scorer = _require_plain_linear_scorer(payload.scorer)
    table = payload.table
    ids = _unique_ids(table, payload.id_column)
    base_order = _baseline_order(table, scorer)
    _verified_baseline(payload, ids, base_order, payload.k)
    noise = _noise_matrices(payload, trials, start)
    n = table.num_rows
    scores = np.zeros((n, trials), dtype=np.float64)
    any_missing = np.zeros(n, dtype=bool)
    for attr, weight in scorer.weights.items():
        try:
            column = table.numeric_column(attr).values
        except Exception as exc:
            raise _KernelFallback(f"scoring attribute {attr!r} unusable: {exc}") from exc
        missing = np.isnan(column)
        any_missing |= missing
        if attr in noise:
            values = column[:, None] + noise[attr]
            values[missing, :] = 0.0
            scores += weight * values
        else:
            values = column.copy()
            values[missing] = 0.0
            scores += weight * values[:, None]
    if scorer.missing_policy == "propagate":
        scores[any_missing, :] = np.nan
    return _movement_outcomes(base_order, _stable_orders(scores), payload.k)


# -- per-attribute stability ---------------------------------------------------


def _jittered_scores(
    columns: list[np.ndarray],
    position: int,
    weights: list[float],
    varied: np.ndarray,
) -> np.ndarray:
    """The ``(T x n)`` score matrix when only column ``position``'s
    weight varies by trial (``varied[t]``).

    Row ``t`` holds trial ``t``'s scores.  Every element still sees the
    ``((0 + w1*x1) + w2*x2) + ...`` sequence of ``score_table``: the
    terms before ``position`` do not vary by trial, so their partial sum
    is one n-vector computed once; each term after it is one constant
    n-vector added by broadcast.  Same operands, same order, same
    floats as accumulating every trial separately.
    """
    prefix = np.zeros(columns[0].shape[0], dtype=np.float64)
    for values, weight in zip(columns[:position], weights[:position]):
        prefix += values * weight
    # x*w + prefix is prefix + x*w: IEEE addition is commutative
    scores = varied[:, None] * columns[position][None, :]
    scores += prefix[None, :]
    for values, weight in zip(columns[position + 1:], weights[position + 1:]):
        scores += (values * weight)[None, :]
    return scores


def _require_nan_suffix(scores: np.ndarray, rows: np.ndarray) -> None:
    """Decline trials whose ranking the scalar path refuses to build.

    NaN and -inf scores share the last key, so the stable order puts a
    NaN row before a -inf row whenever its row index is smaller — and
    :class:`~repro.ranking.ranker.Ranking` rejects NaNs that are not a
    suffix.  ``rows[j]`` is the table row behind score column ``j``.
    """
    if np.isfinite(scores).all():
        return
    n = scores.shape[1]
    first_nan = np.where(np.isnan(scores), rows[None, :], n).min(axis=1)
    last_low = np.where(scores == -np.inf, rows[None, :], -1).max(axis=1)
    _require(
        not np.any(first_nan < last_low),
        "a trial ranks a NaN score above a -inf score",
    )


def _nan_lowest(scores: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(scores), -np.inf, scores)


def _top_unchanged(scores: np.ndarray, rows: np.ndarray, kept: int) -> np.ndarray:
    """Per trial: do score columns ``[:kept]`` make up the top ``kept``?

    The stable order ranks by score descending, NaN lowest, ties by
    ascending row.  Columns ``[:kept]`` are exactly the top ``kept``
    when their worst outranks the best of the rest under that order:
    one min over ``kept`` columns and one max over the others per
    trial, no sort.  ``rows`` (ascending within each of the two blocks)
    maps score columns to table rows for the tie-break.
    """
    trials, n = scores.shape
    if kept == n:
        return np.ones(trials, dtype=bool)
    worst = np.min(scores[:, :kept], axis=1)  # NaN when any member is NaN
    best = np.fmax.reduce(scores[:, kept:], axis=1)  # NaN when all others are
    worst[np.isnan(worst)] = -np.inf
    best[np.isnan(best)] = -np.inf
    unchanged = worst > best
    tied = np.flatnonzero(worst == best)
    if tied.size:
        # worst member: the last (highest-row) member at the worst score;
        # best other: the first (lowest-row) other at the best score
        members = _nan_lowest(scores[tied, :kept]) == worst[tied, None]
        last = kept - 1 - np.argmax(members[:, ::-1], axis=1)
        others = _nan_lowest(scores[tied, kept:]) == best[tied, None]
        first = kept + np.argmax(others, axis=1)
        unchanged[tied] = rows[last] < rows[first]
    return unchanged


def run_attribute_kernel(
    payload: AttributeTrialPayload, trials: int, start: int = 0
) -> list[bool]:
    """Trials ``[start, start + trials)`` of
    :func:`~repro.stability.per_attribute._attribute_trial`.

    A trial only asks whether the top-k *set* changed, so no trial is
    sorted.  The rows whose ids are in ``baseline_top`` (the members)
    are moved to the front once, and a trial's top set equals
    ``baseline_top`` exactly when the table holds all of it, it has
    ``kept = min(k, n)`` ids, and the worst member outranks the best
    other row.  Why that is exact:

    - *Scores.*  :func:`_jittered_scores` hoists out of the trial axis
      only terms that do not vary by trial and keeps every element's
      addition order, so each score is the scalar path's float.
    - *Membership.*  The scalar top set is the first ``kept`` rows of
      the stable order, a strict total order on (score descending,
      NaN lowest, row ascending).  ``kept`` members form that prefix
      iff each precedes every other row, iff the last member precedes
      the first other row — one min and one max per trial
      (:func:`_top_unchanged`).  Equal scores are settled by the same
      row comparison the stable sort uses, so ties are decided, not
      approximated.
    - *Refusals.*  :func:`_require_nan_suffix` declines the batches in
      which the scalar path raises instead of ranking.
    """
    scorer = _require_plain_linear_scorer(payload.scorer)
    table = payload.table
    weights = scorer.weights
    _require(
        payload.attribute in weights,
        f"jittered attribute {payload.attribute!r} not in the scorer",
    )
    n = table.num_rows
    _require(n >= 1, "table has no rows")
    _require(payload.k >= 1, f"k must be >= 1, got {payload.k}")
    deltas = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        rng = trial_rng(payload.seed, start + t)
        deltas[t] = float(
            rng.uniform(-payload.epsilon, payload.epsilon) * payload.scale
        )
    varied = weights[payload.attribute] + deltas
    # the scalar path's scorer rejects a non-finite or all-zero weight
    # vector; decline so it still does
    _require(np.isfinite(varied).all(), "a trial drew a non-finite weight")
    others_zero = all(
        w == 0.0 for attr, w in weights.items() if attr != payload.attribute
    )
    _require(
        not (others_zero and np.any(varied == 0.0)),
        "a trial drew an all-zero weight vector",
    )
    kept = min(payload.k, n)
    if payload.id_column is None:
        # positional ids: every ranking's top-k id set is {1..kept}
        top = frozenset(range(1, kept + 1))
        rows = np.arange(n)
    else:
        ids = _unique_ids(table, payload.id_column)
        member = np.fromiter(
            map(payload.baseline_top.__contains__, ids), dtype=bool, count=n
        )
        rows = np.concatenate([np.flatnonzero(member), np.flatnonzero(~member)])
    columns, any_missing = _design_matrix(table, scorer)
    position = list(weights).index(payload.attribute)
    scores = _jittered_scores(
        [values[rows] for values in columns],
        position,
        list(weights.values()),
        varied,
    )
    if scorer.missing_policy == "propagate":
        scores[:, any_missing[rows]] = np.nan
    _require_nan_suffix(scores, rows)
    if payload.id_column is None:
        return [top != payload.baseline_top] * trials
    if int(member.sum()) != kept or len(payload.baseline_top) != kept:
        return [True] * trials  # no ranking's top set can equal baseline_top
    return [not same for same in _top_unchanged(scores, rows, kept).tolist()]


# -- dispatch ------------------------------------------------------------------

#: scalar trial function -> (payload type, batch kernel)
_KERNELS: dict[Callable, tuple[type, Callable]] = {
    _perturbation_trial: (PerturbationTrialPayload, run_perturbation_kernel),
    _uncertainty_trial: (UncertaintyTrialPayload, run_uncertainty_kernel),
    _attribute_trial: (AttributeTrialPayload, run_attribute_kernel),
}


def kernel_for(fn: Callable) -> Callable | None:
    """The batch kernel registered for a scalar trial function, if any."""
    entry = _KERNELS.get(fn)
    return entry[1] if entry else None


def dispatch_kernel(
    fn: Callable, payload: Any, trials: int, start: int = 0
) -> tuple[list | None, str | None]:
    """Run the batch kernel for ``(fn, payload)``: ``(results, None)``.

    Returns ``(None, reason)`` when no kernel matches or the matching
    kernel declines the payload — the caller must then run the scalar
    path, which either produces the identical results or raises the
    error the kernel could not reproduce.  ``start`` offsets the trial
    indices, so a cluster worker can vectorize the span
    ``[start, start + trials)`` of a sharded batch.
    """
    entry = _KERNELS.get(fn)
    if entry is None:
        name = getattr(fn, "__name__", repr(fn))
        return None, f"no vectorized kernel for trial function {name!r}"
    payload_type, kernel = entry
    if not isinstance(payload, payload_type):
        return None, (
            f"payload {type(payload).__name__} does not match "
            f"{payload_type.__name__}"
        )
    try:
        return kernel(payload, trials, start), None
    except _KernelFallback as fallback:
        return None, str(fallback)
    except Exception as exc:  # the scalar rerun reproduces or explains it
        return None, f"kernel error ({type(exc).__name__}: {exc})"
