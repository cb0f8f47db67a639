"""Per-layer metrics from the spans of a traced run.

Every metric is given per unit of work, a label (batch-audit,
mc-stability, mc-remote) or a web action (web-session), over the fixed
units the traced run played.  ``*.busy_ms`` is the time inside the
outermost calls of that layer, ``*.calls`` a call count; ratios state
their base in ``PER_LAYER``.  A layer the workload does not reach reads
0.
"""

from __future__ import annotations

import json
import statistics
import sys

from common import ROOT
from stats import LayerTotals, ratio
from tracer import self_time_table

# name -> unit; the order is the order printed
PER_LAYER = {
    "app.http.requests": "count",
    "app.http.self_ms": "ms",  # client time less session, service and render calls
    "app.session.generate_label.busy_ms": "ms",
    "label.render_json.busy_ms": "ms",
    "label.render_json.bytes": "bytes",
    "engine.service.build_label.busy_ms": "ms",
    "engine.service.builds": "count",
    "engine.cache.l1_hit_ratio": "ratio",  # L1 hits over L1 lookups
    "engine.executor.queue_wait_ms": "ms",  # job start less batch submit
    "engine.backend.kernel_share": "ratio",  # kernel runs over kernel runs + scalar fallbacks
    "store.l2_hit_ratio": "ratio",  # L2 hits over L1 misses
    "store.get.busy_ms": "ms",
    "store.put.calls": "count",
    "store.put.busy_ms": "ms",
    "store.bytes_written_per_put": "bytes",
    "label.build.busy_ms": "ms",
    "preprocess.fit_transform.busy_ms": "ms",
    "ranking.rank_table.busy_ms": "ms",
    "ingredients.busy_ms": "ms",
    "stats.rankdata_average.calls": "count",
    "stats.rankdata_average.busy_ms": "ms",
    "fairness.evaluate.busy_ms": "ms",
    "fairness.adjust_alpha.calls": "count",
    "fairness.adjust_alpha.busy_ms": "ms",
    "fairness.fail_probability.calls": "count",
    "diversity.report.busy_ms": "ms",
    "stability.slope_gaps.busy_ms": "ms",
    "stability.perturbation.busy_ms": "ms",
    "stability.uncertainty.busy_ms": "ms",
    "stability.per_attribute.busy_ms": "ms",
    "stability.kernels.dispatch.calls": "count",
    "stability.kernels.dispatch.busy_ms": "ms",
    "stability.kernels.trials": "count",
    "cluster.chunks": "count",
    "cluster.chunk_rtt_ms": "ms",  # mean over chunk attempts
    "cluster.remote_share": "ratio",  # remote trial runs over all trial runs
    "cluster.failovers": "count",
    "cluster.reconnects": "count",
    "cluster.wire.encode_request.busy_ms": "ms",
    "cluster.wire.decode_response.busy_ms": "ms",
    "cluster.wire.request_bytes": "bytes",
    "cluster.worker.busy_ms": "ms",
    "bench.trace_overhead_share": "ratio",  # traced over untraced time per unit, less 1
}

# counts the self-check requires to repeat exactly for one seed
EXACT_COUNTS = (
    "fairness.fail_probability.calls",
    "stability.kernels.dispatch.calls",
    "cluster.chunks",
    "store.put.calls",
    "engine.service.builds",
)


class ClusterProbe:
    """Coordinator counters read around each label (one caller at a time)."""

    def __init__(self, backend, registry):
        self._backend = backend
        self._registry = registry
        self.totals = {"chunks": 0, "runs": 0, "remote_runs": 0, "failovers": 0,
                       "reconnects": 0, "rtt_sum": 0.0, "rtt_count": 0}

    def _read(self) -> dict:
        stats = self._backend.stats()
        rtt_sum = rtt_count = 0
        family = self._registry.snapshot().get("repro_cluster_chunk_seconds")
        for series in (family or {}).get("series", ()):
            rtt_sum += series["sum"]
            rtt_count += series["count"]
        return {"chunks": stats["chunks_remote"], "runs": stats["runs"],
                "remote_runs": stats["remote_runs"],
                "failovers": stats["chunks_failed_over"],
                "reconnects": stats["connection_reconnects"],
                "rtt_sum": rtt_sum, "rtt_count": rtt_count}

    def around(self, build):
        before = self._read()
        result = build()
        after = self._read()
        for key in self.totals:
            self.totals[key] += after[key] - before[key]
        return result


def _attribute_by_window(records: list[dict], windows) -> None:
    """Give spans recorded off the caller's thread the label they ran in."""
    for record in records:
        if record["unit"] is not None:
            continue
        for index, begun, ended in windows:
            if begun <= record["start"] <= ended:
                record["unit"] = index
                break


def _web_unit(unit):
    try:
        return int(unit, 16)
    except (TypeError, ValueError):
        return None


def per_layer(records, units: int, unit_ms, windows=None, submitted=None,
              cluster: ClusterProbe | None = None, web_records=None) -> dict:
    """Every ``PER_LAYER`` metric, as ``{name: (value, unit)}``."""
    if windows is not None:
        _attribute_by_window(records, windows)
    if web_records is not None:
        for record in records:
            record["unit"] = _web_unit(record["unit"])
    kept = [r for r in records if isinstance(r["unit"], int) and 0 <= r["unit"] < units]
    t = LayerTotals(kept, units)
    values = {name: t.busy_ms(name[: -len(".busy_ms")])
              for name in PER_LAYER if name.endswith(".busy_ms")}
    values["app.http.requests"] = t.calls("app.http.request")
    for name in ("stats.rankdata_average", "fairness.adjust_alpha",
                 "fairness.fail_probability", "stability.kernels.dispatch",
                 "store.put"):
        values[f"{name}.calls"] = t.calls(name)
    values["engine.service.builds"] = t.calls("label.build")
    values["label.render_json.bytes"] = t.attr("label.render_json", "bytes")
    values["engine.cache.l1_hit_ratio"] = ratio(
        t.attr_total("engine.cache.get_or_build", "hit"),
        t.total_calls("engine.cache.get_or_build"),
    )
    l2_hits = t.attr_total("store.tiers.get_or_build", "tier=l2")
    values["store.l2_hit_ratio"] = ratio(
        l2_hits, l2_hits + t.attr_total("store.tiers.get_or_build", "tier=build")
    )
    values["store.bytes_written_per_put"] = ratio(
        t.attr_total("store.put", "bytes"), t.total_calls("store.put")
    )
    values["engine.backend.kernel_share"] = ratio(
        t.attr_total("stability.kernels.dispatch", "kernel"),
        t.total_calls("stability.kernels.dispatch"),
    )
    values["stability.kernels.trials"] = t.attr("stability.kernels.dispatch", "trials")
    values["cluster.wire.request_bytes"] = t.attr("cluster.wire.encode_request", "bytes")
    waits = [
        r["start"] - submitted[r["unit"]]
        for r in kept if r["name"] == "engine.executor.job"
    ] if submitted else []
    values["engine.executor.queue_wait_ms"] = 1000.0 * ratio(sum(waits), units)
    if web_records is not None:
        client_ms = sum(
            1000.0 * sum(r["result"]["requests"])
            for r in web_records
            if not r["shed"] and r["action"]["index"] < units
        )
        inner_ms = (values["app.session.generate_label.busy_ms"]
                    + values["label.render_json.busy_ms"])
        values["app.http.self_ms"] = client_ms / units - inner_ms
    else:
        values["app.http.self_ms"] = 0.0
    totals = cluster.totals if cluster is not None else {}
    for key in ("chunks", "failovers", "reconnects"):
        values[f"cluster.{key}"] = totals.get(key, 0) / units
    values["cluster.chunk_rtt_ms"] = 1000.0 * ratio(totals.get("rtt_sum", 0.0),
                                                    totals.get("rtt_count", 0))
    values["cluster.remote_share"] = ratio(totals.get("remote_runs", 0), totals.get("runs", 0))
    base, traced = unit_ms
    values["bench.trace_overhead_share"] = (
        statistics.fmean(traced) / statistics.fmean(base) - 1.0 if base and traced else 0.0
    )
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def write_trace(workload: str, seed: int, records: list[dict]) -> None:
    """Keep the spans under ``.perfbench_out/`` and print self times."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    table = self_time_table(records)
    print(f"# {workload}: {len(records)} spans in {path.relative_to(ROOT)}; "
          "self time per span name (s):", file=sys.stderr)
    for name, seconds in list(table.items())[:16]:
        print(f"#   {name:40s} {seconds:10.4f}", file=sys.stderr)
