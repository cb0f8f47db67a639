"""Order statistics and the per-layer roll-up of recorded spans."""

from __future__ import annotations

import statistics
from collections import defaultdict


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ``n`` samples and
    ``b`` of them beyond, that is the ``(n - b)``-th smallest, at
    percentile ``100 (n - b) / n``.  ``b`` is 10, or a quarter of the
    samples (at least one) when there are fewer than 40: ten beyond
    would put the tail under the 75th percentile there, and under the
    median below 20 samples, as on the Monte-Carlo workloads.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return float(ordered[0]), 100.0, n
    beyond = min(10, max(1, n // 4))
    return float(ordered[n - 1 - beyond]), 100.0 * (n - beyond) / n, n


def outermost(records: list[dict]) -> list[dict]:
    """Spans not nested inside a span of the same name."""
    by_id = {record["id"]: record for record in records}
    kept = []
    for record in records:
        parent = by_id.get(record["parent"])
        while parent is not None and parent["name"] != record["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            kept.append(record)
    return kept


class LayerTotals:
    """Span totals per name over a set of units (labels or web actions).

    ``busy_ms(name)`` sums the durations of the outermost spans of that
    name, ``calls(name)`` counts every span, ``attr(name, key)`` sums an
    attribute; each is divided by the number of units.
    """

    def __init__(self, records: list[dict], units: int):
        self.units = units
        self._busy: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._attrs: dict[tuple[str, str], float] = defaultdict(float)
        for record in outermost(records):
            self._busy[record["name"]] += record["end"] - record["start"]
        for record in records:
            self._calls[record["name"]] += 1
            for key, value in record["attrs"].items():
                if isinstance(value, bool) or isinstance(value, (int, float)):
                    self._attrs[(record["name"], key)] += float(value)
                else:
                    self._attrs[(record["name"], f"{key}={value}")] += 1.0

    def busy_ms(self, name: str) -> float:
        return 1000.0 * self._busy.get(name, 0.0) / self.units

    def calls(self, name: str) -> float:
        return self._calls.get(name, 0) / self.units

    def total_calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def attr(self, name: str, key: str) -> float:
        return self._attrs.get((name, key), 0.0) / self.units

    def attr_total(self, name: str, key: str) -> float:
        return self._attrs.get((name, key), 0.0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
