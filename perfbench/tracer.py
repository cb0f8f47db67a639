"""In-memory span tracing around calls into the program's public functions.

The benchmark's traced run installs a :class:`Tracer` before it drives a
workload.  Every wrapped call records one span: name, start, end, the
span that caused it (same thread), the unit of work it belongs to (a
label or a web action) and a few attributes such as byte counts.
Spans stay in memory and are written out once, when the run ends.

Names are patched where the caller looks them up.  ``builder.py`` does
``from repro.fairness.base import evaluate_fairness``, so the wrapper
replaces ``repro.label.builder.evaluate_fairness``; methods are
replaced on their class, which every caller reaches through.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "PATCHES", "SERVER_PATCHES", "WORKER_PATCHES"]


def _result_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _put_bytes(args, kwargs, result) -> dict:
    return {"bytes": int(result)}


def _cache_hit(args, kwargs, result) -> dict:
    return {"hit": bool(result[1])}


def _tier(args, kwargs, result) -> dict:
    return {"tier": result[1]}


def _kernel(args, kwargs, result) -> dict:
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    return {"trials": int(trials), "kernel": result[0] is not None}


def _trace_header(args):
    # the benchmark client names each web action in X-Trace-Id
    return args[0].headers.get("X-Trace-Id")


# (module, attribute path, span name, attribute extractor[, unit of a
# root span]) for the label pipeline; installed in every process that
# builds labels
PATCHES = (
    ("repro.engine.service", "LabelService.build_label", "engine.service.build_label", None),
    ("repro.engine.cache", "LabelCache.get_or_build", "engine.cache.get_or_build", _cache_hit),
    ("repro.store.tiering", "TieredLabelCache.get_or_build", "store.tiers.get_or_build", _tier),
    ("repro.store.store", "LabelStore.get", "store.get", None),
    ("repro.store.store", "LabelStore.put", "store.put", _put_bytes),
    ("repro.label.builder", "RankingFactsBuilder.build", "label.build", None),
    ("repro.preprocess.pipeline", "TablePreprocessor.fit_transform", "preprocess.fit_transform", None),
    ("repro.label.builder", "rank_table", "ranking.rank_table", None),
    ("repro.label.builder", "ingredients_analysis", "ingredients", None),
    ("repro.stats.correlation", "rankdata_average", "stats.rankdata_average", None),
    ("repro.label.builder", "evaluate_fairness", "fairness.evaluate", None),
    ("repro.fairness.fair_star.verifier", "adjust_alpha", "fairness.adjust_alpha", None),
    ("repro.fairness.fair_star.adjustment", "compute_fail_probability", "fairness.fail_probability", None),
    ("repro.label.builder", "diversity_report", "diversity.report", None),
    ("repro.stability.slope", "SlopeStability.assess", "stability.slope_gaps", None),
    ("repro.label.builder", "score_gap_analysis", "stability.slope_gaps", None),
    ("repro.stability.perturbation", "WeightPerturbationStability.assess_at", "stability.perturbation", None),
    ("repro.stability.uncertainty", "DataUncertaintyStability.assess_at", "stability.uncertainty", None),
    ("repro.label.builder", "per_attribute_stability", "stability.per_attribute", None),
    ("repro.stability.kernels", "dispatch_kernel", "stability.kernels.dispatch", _kernel),
    ("repro.cluster.wire", "encode_request", "cluster.wire.encode_request", _result_bytes),
    ("repro.cluster.wire", "decode_response", "cluster.wire.decode_response", None),
    ("repro.cluster.wire", "decode_response_spans", "cluster.wire.decode_response", None),
)

# the HTTP front end, installed in the server process on top of PATCHES
SERVER_PATCHES = (
    ("repro.app.server", "_RankingFactsHandler.do_GET", "app.http.request", None, _trace_header),
    ("repro.app.server", "_RankingFactsHandler.do_POST", "app.http.request", None, _trace_header),
    ("repro.app.session", "DemoSession.generate_label", "app.session.generate_label", None),
    ("repro.app.server", "render_json", "label.render_json", _result_bytes),
)

# a trial worker daemon, on top of PATCHES
WORKER_PATCHES = (
    ("repro.cluster.worker", "TrialWorker.run_chunk", "cluster.worker", None),
)


class Tracer:
    """Records spans of wrapped calls; one per process.

    A span is the tuple ``(id, parent, name, start, end, unit, attrs)``
    with times from :func:`time.perf_counter`, which on Linux reads the
    system-wide monotonic clock, so spans of different processes on one
    host share a time line.  ``unit`` is inherited from the parent span,
    or taken from :meth:`set_unit` (the calling thread's current unit)
    for a root span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def set_unit(self, unit) -> None:
        """Attribute the calling thread's next root spans to ``unit``."""
        self._local.unit = unit

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, annotate=None, unit_of=None):
        """``fn`` wrapped so every call records a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, unit = stack[-1]
            else:
                parent = 0
                unit = unit_of(args) if unit_of is not None else None
                if unit is None:
                    unit = getattr(tracer._local, "unit", None)
            span_id = next(tracer._ids)
            stack.append((span_id, unit))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = annotate(args, kwargs, result) if annotate is not None else None
            with tracer._lock:
                tracer.spans.append((span_id, parent, name, start, end, unit, attrs))
            return result

        return traced

    def patch(self, module_name: str, path: str, name: str, annotate=None, unit_of=None) -> None:
        """Replace ``module.path`` by its wrapped self."""
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, annotate, unit_of))

    def install(self, patches) -> "Tracer":
        for module_name, path, name, annotate, *unit_of in patches:
            self.patch(module_name, path, name, annotate, *unit_of)
        return self

    def uninstall(self) -> None:
        """Put every patched name back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every span as a dict, with its self time.

        Self time is the span's duration minus the time its child spans
        cover; children of one span run on the parent's thread, one
        after another, so their durations do not overlap.
        """
        with self._lock:
            spans = list(self.spans)
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, start, end, _, _ in spans:
            if parent:
                child_time[parent] += end - start
        return [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "unit": unit,
                "self_s": (end - start) - child_time.get(span_id, 0.0),
                "attrs": attrs or {},
            }
            for span_id, parent, name, start, end, unit, attrs in spans
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records(), handle)


def load_records(path, source: str) -> list[dict]:
    """Spans another process wrote, with ids made unique to ``source``."""
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    for record in records:
        record["id"] = f"{source}:{record['id']}"
        if record["parent"]:
            record["parent"] = f"{source}:{record['parent']}"
    return records


def self_time_table(records: list[dict]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        totals[record["name"]] += record["self_s"]
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
