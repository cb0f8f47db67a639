"""The four benchmark workloads.

Each workload takes ``(seed, seconds, trace, workdir)`` and returns an
:class:`Outcome`.  Inputs come only from the seed.  With ``trace`` off
the workload measures the end-to-end metrics for ``seconds``; with
``trace`` on it runs a fixed number of units (labels or web actions)
twice on a fresh set-up, untraced then traced, and rolls the traced
spans up into the per-layer metrics (see ``layers.py``).

- ``batch-audit``: a weight sweep over COMPAS through
  ``LabelService.run_batch`` (the ``ranking-facts batch`` path), no
  Monte-Carlo; the paper layers (FA*IR, ingredients, ranking) do the
  work, HTTP, Monte-Carlo and the store none.
- ``web-session``: the HTTP server in its own process with a label
  store, driven open-loop over two kept-alive connections; the serving
  layers do the work, the builder little.
- ``mc-stability``: Monte-Carlo (30 trials) COMPAS labels, closed loop,
  one caller, vectorized backend; the stability kernels do the work.
- ``mc-remote``: the same label stream through ``RemoteTrialBackend``
  over two worker processes; the only workload that crosses ``cluster``.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, child_env, peak_rss_mb
from stats import median, tail

from repro.app.session import DemoSession
from repro.datasets.compas import compas
from repro.datasets.csdepts import cs_departments
from repro.engine.jobs import JobStatus, LabelDesign, LabelJob
from repro.engine.service import LabelService
from repro.label.render_json import render_json

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# peak RSS is read after this many labels, not at the end of the run: the
# service keeps finished batches and cached labels, so a run that labels
# more in its time would otherwise read as using more memory
RSS_AFTER_BATCH_LABELS = 36
RSS_AFTER_MC_LABELS = 6

# -- results ---------------------------------------------------------------------------


class Outcome:
    """What one run measured, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.invalid: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict[str, object] = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def latency(self, values_ms: list[float]) -> None:
        value, percentile, samples = tail(values_ms)
        self.metric("latency_p50_ms", median(values_ms), "ms")
        self.metric("latency_tail_ms", value, "ms")
        self.details["latency_tail"] = {"percentile": percentile, "samples": samples}


def timed_setups(setup, teardown):
    """Run ``setup`` several times; keep the last state, return the median."""
    seconds = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        started = time.perf_counter()
        state = setup()
        seconds.append(time.perf_counter() - started)
    return state, median(seconds)


def run_imports(modules: tuple[str, ...]) -> None:
    """A fresh interpreter imports the workload's modules (timed by the caller).

    The benchmark process imported them once already; a set-up that
    users pay on every start must include the import.
    """
    subprocess.run(
        [sys.executable, "-c", "; ".join(f"import {m}" for m in modules)],
        env=child_env(), cwd=ROOT, check=True,
    )


# -- inputs ------------------------------------------------------------------------------

COMPAS_ATTRIBUTES = ("priors_count", "decile_score", "age")
DEPT_ATTRIBUTES = ("PubCount", "Faculty", "GRE")
BATCH_KS = (25, 50, 100)
MC_TRIALS = 30
MC_K = 50


def _weights(rng: random.Random, attributes) -> dict[str, float]:
    raw = [rng.uniform(0.05, 1.0) for _ in attributes]
    total = sum(raw)
    return {a: round(r / total, 4) for a, r in zip(attributes, raw)}


def _distinct_weights(rng: random.Random, attributes, seen: set):
    while True:
        weights = _weights(rng, attributes)
        key = tuple(weights.values())
        if key not in seen:
            seen.add(key)
            return weights


def batch_designs(seed: int, per_k: int):
    """Distinct weight vectors; k cycles 25, 50, 100 like a sweep does.

    ``per_k`` designs in a row share k, so a batch of that size runs
    jobs of equal cost side by side and a job's latency does not hinge
    on which other job the pool pairs it with.
    """
    rng = random.Random(f"batch-audit:{seed}")
    seen: set = set()
    index = 0
    while True:
        yield LabelDesign.create(
            weights=_distinct_weights(rng, COMPAS_ATTRIBUTES, seen),
            sensitive=["sex"],
            diversity=["race", "sex"],
            k=BATCH_KS[(index // per_k) % len(BATCH_KS)],
        )
        index += 1


def mc_designs(seed: int):
    """Monte-Carlo designs, each with a fresh seed so every label builds."""
    rng = random.Random(f"mc:{seed}")
    seen: set = set()
    while True:
        yield LabelDesign.create(
            weights=_distinct_weights(rng, COMPAS_ATTRIBUTES, seen),
            sensitive=["sex"],
            diversity=["race", "sex"],
            id_column="defendant_id",
            k=MC_K,
            monte_carlo_trials=MC_TRIALS,
            seed=rng.randrange(1, 2**31),
        )


def reference_json(design: LabelDesign, table, dataset_name: str, backend=None) -> str:
    """The label built without the service, cache or server."""
    builder = design.builder_for(table, dataset_name=dataset_name)
    if backend is not None:
        builder.with_trial_backend(backend)
    return render_json(builder.build().label)


# -- batch-audit -----------------------------------------------------------------------

BATCH_JOBS = 6  # jobs per submitted batch, all with one k
BATCH_CYCLE = BATCH_JOBS * len(BATCH_KS)  # a run ends on a whole k cycle
BATCH_CHECK_EVERY = 7  # every k gets checked
BATCH_TRACE_LABELS = BATCH_CYCLE


def _batch_setup():
    run_imports(("repro.engine.service", "repro.datasets.compas"))
    return {"service": LabelService(), "table": compas()}


def _run_batches(state, seed: int, out: Outcome, seconds=None, limit=None, check_every=1):
    """Submit batches until ``seconds`` pass or ``limit`` labels ran.

    A timed run stops only after a whole k cycle, so each k has the same
    share of the labels.  Latency is each job's own time from its start
    (``JobResult.seconds``); the labels of every ``check_every``-th job
    are kept for the check.
    """
    service, table = state["service"], state["table"]
    designs = batch_designs(seed, BATCH_JOBS)
    run = {"latencies": [], "labels": [], "submitted": {}}
    done = 0
    started = time.perf_counter()
    while True:
        size = BATCH_JOBS if limit is None else min(BATCH_JOBS, limit - done)
        jobs = [
            LabelJob(design=next(designs), table=table, dataset_name="COMPAS",
                     job_id=f"label-{done + i}")
            for i in range(size)
        ]
        submitted = time.perf_counter()
        results = service.run_batch(jobs)
        for job, result in zip(jobs, results):
            index = done
            done += 1
            out.attempted += 1
            run["submitted"][index] = submitted
            if done == RSS_AFTER_BATCH_LABELS:
                run["rss_mb"] = peak_rss_mb()
            if result.status is not JobStatus.DONE:
                out.fail(f"batch-audit {job.job_id}: {result.error}")
                continue
            run["latencies"].append(1000.0 * result.seconds)
            if index % check_every == 0:
                run["labels"].append((job.design, render_json(result.facts.label)))
        if limit is not None and done >= limit:
            break
        if (seconds is not None and done % BATCH_CYCLE == 0
                and time.perf_counter() - started >= seconds):
            break
    run["elapsed"] = time.perf_counter() - started
    return run


def _batch_check(out: Outcome, labels, table) -> None:
    for design, served in labels:
        if served != reference_json(design, table, "COMPAS"):
            out.fail(f"batch-audit: label for {design.weights_dict()} (k={design.k}) "
                     "differs from an independent builder_for() build")
    out.details["checked_labels"] = len(labels)


def batch_audit(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    if trace:
        return _trace_in_process(
            out, seed, "batch-audit", BATCH_TRACE_LABELS, _batch_setup,
            lambda state, limit, tracer=None: _run_batches(state, seed, out, limit=limit),
            lambda run, table: _batch_check(out, run["labels"], table),
        )
    state, setup_s = timed_setups(
        _batch_setup, lambda state: state["service"].shutdown()
    )
    try:
        run = _run_batches(state, seed, out, seconds=seconds, check_every=BATCH_CHECK_EVERY)
        rss = run.get("rss_mb") or peak_rss_mb()
    finally:
        state["service"].shutdown()
    _batch_check(out, run["labels"], state["table"])
    out.metric("setup_s", setup_s, "s")
    out.latency(run["latencies"])
    out.metric("throughput_per_s", len(run["latencies"]) / run["elapsed"], "1/s")
    out.metric("peak_rss_mb", rss, "MB")
    return out


# -- Monte-Carlo: in-process and remote -------------------------------------------------

MC_CHECKS = 2  # labels compared with an independent build, per run
MC_TRACE_LABELS = 3
REMOTE_TRACE_LABELS = 2


def _mc_loop(state, seed: int, out: Outcome, seconds=None, limit=None, tracer=None, probe=None):
    """Closed loop, one caller: the next label starts when one returns."""
    service, table = state["service"], state["table"]
    designs = mc_designs(seed)
    run = {"latencies": [], "labels": [], "windows": []}
    started = time.perf_counter()
    index = 0
    while True:
        design = next(designs)
        if tracer is not None:
            tracer.set_unit(index)
        out.attempted += 1
        begun = time.perf_counter()
        try:
            if probe is not None:
                outcome = probe(lambda: service.build_label(table, design, "COMPAS"))
            else:
                outcome = service.build_label(table, design, "COMPAS")
        except Exception as exc:  # a failed label is counted, not fatal
            out.fail(f"label {index}: {type(exc).__name__}: {exc}")
        else:
            ended = time.perf_counter()
            run["latencies"].append(1000.0 * (ended - begun))
            run["windows"].append((index, begun, ended))
            run["labels"].append((design, render_json(outcome.facts.label)))
        index += 1
        if index == RSS_AFTER_MC_LABELS:
            run["rss_mb"] = peak_rss_mb()
        if limit is not None and index >= limit:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
    run["elapsed"] = time.perf_counter() - started
    return run


def _mc_check(out: Outcome, labels, table, what: str, count: int = MC_CHECKS) -> None:
    """A sample of labels against the vectorized build for the same seed."""
    from repro.engine.backends import VectorizedTrialBackend

    step = max(1, len(labels) // count)
    sample = labels[::step][:count]
    for design, served in sample:
        expected = reference_json(design, table, "COMPAS", VectorizedTrialBackend())
        if served != expected:
            out.fail(f"{what}: label for seed {design.seed} differs from the vectorized build")
    out.details["checked_labels"] = len(sample)


def _mc_setup():
    run_imports(("repro.engine.service", "repro.datasets.compas"))
    return {"service": LabelService(trial_backend="vectorized"), "table": compas()}


def mc_stability(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    if trace:
        return _trace_in_process(
            out, seed, "mc-stability", MC_TRACE_LABELS, _mc_setup,
            lambda state, limit, tracer=None: _mc_loop(state, seed, out, limit=limit, tracer=tracer),
            lambda run, table: _mc_check(out, run["labels"], table, "mc-stability", 1),
        )
    state, setup_s = timed_setups(
        _mc_setup, lambda state: state["service"].shutdown()
    )
    try:
        run = _mc_loop(state, seed, out, seconds=seconds)
        rss = run.get("rss_mb") or peak_rss_mb()
    finally:
        state["service"].shutdown()
    _mc_check(out, run["labels"], state["table"], "mc-stability")
    out.metric("setup_s", setup_s, "s")
    out.latency(run["latencies"])
    out.metric("throughput_per_s", len(run["latencies"]) / run["elapsed"], "1/s")
    out.metric("peak_rss_mb", rss, "MB")
    return out


class Children:
    """Server or worker processes started through ``launch.py``."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def start(self, role: str, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), role, *args],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        self.procs.append(proc)
        return proc

    def ready(self, proc: subprocess.Popen) -> int:
        line = proc.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"{proc.args[2]} did not start (said {line!r})")
        return int(line.split()[1])

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self.procs.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.procs):
            self.stop(proc)


def _remote_setup(children: Children, trace_dir: Path | None = None):
    from repro.cluster.coordinator import RemoteTrialBackend
    from repro.telemetry import MetricsRegistry

    workers = []
    for index in range(2):
        args = ()
        if trace_dir is not None:
            args = ("--trace-out", str(trace_dir / f"worker-{index}.json"))
        workers.append(children.start("worker", *args))
    ports = [children.ready(proc) for proc in workers]
    registry = MetricsRegistry()
    backend = RemoteTrialBackend(
        workers=[f"127.0.0.1:{port}" for port in ports], registry=registry
    )
    service = LabelService(trial_backend=backend)
    return {"service": service, "table": compas(), "workers": workers,
            "backend": backend, "registry": registry}


def _remote_teardown(children: Children, state) -> list[float]:
    """Stop service and workers; returns the workers' peak RSS in MB."""
    rss = [peak_rss_mb(proc.pid) for proc in state["workers"] if proc.poll() is None]
    state["service"].shutdown()
    for proc in state["workers"]:
        children.stop(proc)
    return rss


def _remote_health(out: Outcome, backend) -> None:
    stats = backend.stats()
    if stats["local_runs"] or stats["chunks_failed_over"]:
        out.fail(f"mc-remote: {stats['local_runs']} trial runs fell back to local, "
                 f"{stats['chunks_failed_over']} chunks failed over")


def mc_remote(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    children = Children()
    try:
        if trace:
            return _trace_remote(out, seed, children, workdir)
        state, setup_s = timed_setups(
            lambda: _remote_setup(children),
            lambda state: _remote_teardown(children, state),
        )
        try:
            run = _mc_loop(state, seed, out, seconds=seconds)
            _remote_health(out, state["backend"])
        finally:
            rss = _remote_teardown(children, state)
        _mc_check(out, run["labels"], state["table"], "mc-remote")
        out.metric("setup_s", setup_s, "s")
        out.latency(run["latencies"])
        out.metric("throughput_per_s", len(run["latencies"]) / run["elapsed"], "1/s")
        out.metric("peak_rss_mb", max(rss), "MB")
        return out
    finally:
        children.stop_all()


# -- web-session ---------------------------------------------------------------------------

WEB_DATASET = "cs-departments"
WEB_POOL = 96  # designs built before the run: more than the default L1 (64)
WEB_READ_SESSIONS = 4
WEB_CONNECTIONS = 2
# The mix and the reference rate are assumptions: nothing in the paper
# or the repository measures how people use the tool.  With fewer than
# half reads, latency_p50_ms falls among the POST+GET actions.
WEB_MIX = (("read", 0.4), ("revisit", 0.4), ("new_design", 0.2))
WEB_REFERENCE_RATE = 4.0  # actions/s at which latency is reported
WEB_REFERENCE_SHARE = 0.5  # of the run spent at the reference rate
# capacity search: the first probe, then doubling until a rate fails,
# then geometric bisection between the highest passing and the lowest
# failing rate; when the first or second probe fails, five probes end
# on a bracket under 1.1x wide, inside the throughput bound
WEB_FIRST_PROBE = 16.0
WEB_PROBES = 5
WEB_LIMIT_MS = 400.0  # tail limit for capacity: the Doherty threshold
WEB_SHED_MS = 1000.0  # the 1 s limit of a user's flow of thought
# queueing growth from a phase's first third to its last that counts as
# a growing backlog; over a 2 s probe, a rate 10% above capacity adds
# about 130 ms
WEB_BACKLOG_MS = 100.0
WEB_TRACE_SECONDS = 10.0  # of actions at the reference rate, per traced pass
GENERATOR_LATE_MS = 20.0  # a run whose generator lag tail passes this is invalid


def web_design_body(weights: dict[str, float]) -> dict:
    return {
        "weights": weights,
        "sensitive": ["DeptSizeBin"],
        "diversity": ["DeptSizeBin", "Region"],
        "id_column": "DeptName",
        "k": 10,
    }


def web_label_design(weights: dict[str, float]) -> LabelDesign:
    """The design the server's session commits for ``web_design_body``."""
    session = DemoSession(LabelService(cache_size=1))
    session.load_builtin(WEB_DATASET)
    body = web_design_body(weights)
    session.design_scoring(
        weights=body["weights"], sensitive_attribute=body["sensitive"],
        id_column=body["id_column"], diversity_attributes=body["diversity"],
        k=body["k"],
    )
    design = session.current_design()
    session.service.shutdown()
    return design


class WebInputs:
    """The seeded design pool, fresh designs and action schedules."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"web-session:{seed}")
        self.seen: set = set()
        self.pool = [
            _distinct_weights(self.rng, DEPT_ATTRIBUTES, self.seen) for _ in range(WEB_POOL)
        ]
        self.read_designs = self.pool[:WEB_READ_SESSIONS]
        self.next_index = 0

    def schedule(self, rate: float, seconds: float, start: float) -> list[dict]:
        """Poisson arrivals at ``rate`` over ``seconds`` from ``start``.

        The count is fixed at ``rate * seconds`` and the arrival times
        are uniform over the window, which is a Poisson process given
        its count; so is the mix, with only the order drawn.  The share
        of reads and the phase length cannot drift between seeds.
        """
        count = max(1, round(rate * seconds))
        kinds = []
        for kind, share in WEB_MIX[1:]:
            kinds += [kind] * round(share * count)
        kinds += ["read"] * (count - len(kinds))
        self.rng.shuffle(kinds)
        dues = sorted(start + self.rng.uniform(0.0, seconds) for _ in kinds)
        actions = []
        for kind, due in zip(kinds, dues):
            action = {"index": self.next_index, "kind": kind, "due": due}
            self.next_index += 1
            if kind == "read":
                action["session"] = self.rng.randrange(WEB_READ_SESSIONS)
            elif kind == "revisit":
                action["weights"] = self.rng.choice(self.pool)
            else:
                action["weights"] = _distinct_weights(self.rng, DEPT_ATTRIBUTES, self.seen)
            actions.append(action)
        return actions


class WebClient:
    """One kept-alive connection to the server.

    A traced client names each request's action in ``X-Trace-Id``, so
    the server's spans can be grouped by action; an untraced one sends
    what a browser sends.
    """

    def __init__(self, port: int, traced: bool = False):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.traced = traced

    def request(self, method: str, path: str, unit: str, body=None) -> tuple[int, bytes, float]:
        headers = {"X-Trace-Id": unit} if self.traced else {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def close(self) -> None:
        self.connection.close()


def _unit(index: int) -> str:
    return f"{index:032x}"


def _web_setup(children: Children, inputs: WebInputs, store: Path, trace_out: Path | None = None):
    """Pre-populate the store, start the server, open the sessions."""
    for leftover in store.parent.glob(store.name + "*"):
        leftover.unlink()
    service = LabelService(store_path=str(store))
    session = DemoSession(service)
    session.load_builtin(WEB_DATASET)
    for weights in inputs.pool:
        body = web_design_body(weights)
        session.design_scoring(
            weights=body["weights"], sensitive_attribute=body["sensitive"],
            id_column=body["id_column"], diversity_attributes=body["diversity"],
            k=body["k"],
        )
        session.generate_label()
    service.shutdown()
    args = ["--store", str(store)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    proc = children.start("server", *args)
    port = children.ready(proc)
    clients = [WebClient(port, traced=trace_out is not None) for _ in range(WEB_CONNECTIONS)]
    tokens = []
    for index in range(WEB_READ_SESSIONS + WEB_CONNECTIONS):
        weights = inputs.pool[index % WEB_READ_SESSIONS]
        status, data, _ = clients[0].request(
            "POST", "/session", _unit(10**9 + index),
            {"dataset": WEB_DATASET, "design": web_design_body(weights)},
        )
        if status != 201:
            raise RuntimeError(f"POST /session answered {status}: {data[:200]!r}")
        token = json.loads(data)["token"]
        if index < WEB_READ_SESSIONS:  # label it now so reads only render
            status, data, _ = clients[0].request(
                "GET", f"/session/{token}/label", _unit(10**9 + index)
            )
            if status != 200:
                raise RuntimeError(f"GET label answered {status}")
        tokens.append(token)
    return {"proc": proc, "clients": clients,
            "read_tokens": tokens[:WEB_READ_SESSIONS],
            "work_tokens": tokens[WEB_READ_SESSIONS:]}


def _web_teardown(children: Children, state) -> float:
    """Stop the server; returns its peak RSS in MB."""
    for client in state["clients"]:
        client.close()
    rss = peak_rss_mb(state["proc"].pid) if state["proc"].poll() is None else 0.0
    children.stop(state["proc"])
    return rss


def _web_action(client: WebClient, state, action: dict) -> dict:
    unit = _unit(action["index"])
    requests = []
    if action["kind"] == "read":
        token = state["read_tokens"][action["session"]]
    else:
        token = state["work_tokens"][action["worker"]]
        status, data, took = client.request(
            "POST", f"/session/{token}/design", unit, web_design_body(action["weights"])
        )
        requests.append(took)
        if status != 200:
            return {"status": status, "requests": requests, "body": data[:200]}
    status, data, took = client.request("GET", f"/session/{token}/label", unit)
    requests.append(took)
    return {"status": status, "requests": requests, "body": data}


def _web_phase(state, actions: list[dict]) -> list[dict]:
    """Play ``actions`` open-loop over the kept-alive connections.

    Each connection takes the next action, sleeps until it is due and
    sends it; the latency counts from the due time, so a stall delays
    every action queued behind it.  ``generator_late_ms`` is how late a
    connection that was idle woke up for an action (the generator's own
    lag).  An action already ``WEB_SHED_MS`` late when a connection
    frees up is shed, not sent: a backlog that long fails the limit
    anyway, and shedding keeps an overloaded phase from running on.
    """
    lock = threading.Lock()
    position = [0]
    records: list[dict] = []

    def connection(worker: int) -> None:
        client = state["clients"][worker]
        while True:
            with lock:
                if position[0] >= len(actions):
                    return
                action = actions[position[0]]
                position[0] += 1
            now = time.perf_counter()
            if now - action["due"] > WEB_SHED_MS / 1000.0:
                with lock:
                    records.append({"action": action, "shed": True})
                continue
            idle = now < action["due"]
            if idle:
                time.sleep(action["due"] - now)
            sent = time.perf_counter()
            try:
                result = _web_action(client, state, dict(action, worker=worker))
            except (OSError, http.client.HTTPException) as exc:
                # counted as failed; the next request opens a new connection
                client.close()
                result = {"status": 0, "requests": [], "body": repr(exc).encode()}
            finished = time.perf_counter()
            with lock:
                records.append({
                    "action": action, "shed": False, "result": result,
                    "sent": sent, "finished": finished,
                    "latency_ms": 1000.0 * (finished - action["due"]),
                    "generator_late_ms": 1000.0 * (sent - action["due"]) if idle else 0.0,
                    "queued_ms": 1000.0 * max(0.0, sent - action["due"]),
                })

    threads = [
        threading.Thread(target=connection, args=(worker,), name=f"web-client-{worker}")
        for worker in range(WEB_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _web_results(out: Outcome, records: list[dict], labels: dict, what: str) -> list[dict]:
    """Count attempts and failures; keep label bytes for the check."""
    served = []
    for record in records:
        if record["shed"]:
            continue
        out.attempted += 1
        result = record["result"]
        if result["status"] != 200:
            out.fail(f"{what} action {record['action']['index']} "
                     f"({record['action']['kind']}): HTTP {result['status']}")
            continue
        served.append(record)
        labels.setdefault(_action_weights(record["action"]), set()).add(result["body"])
    return served


def _action_weights(action: dict) -> tuple:
    weights = action.get("weights")
    if weights is None:
        return ("read", action["session"])
    return tuple(weights.items())


def _web_check(out: Outcome, inputs: WebInputs, labels: dict) -> None:
    """Every distinct label served, against an independent build."""
    table = cs_departments()
    checked = 0
    for key, bodies in labels.items():
        if key[0] == "read":
            weights = inputs.read_designs[key[1]]
        else:
            weights = dict(key)
        expected = reference_json(web_label_design(weights), table, WEB_DATASET).encode("utf-8")
        for body in bodies:
            checked += 1
            if body != expected:
                out.fail(f"web-session: label for weights {weights} differs "
                         "from an independent builder_for() build")
    out.details["checked_labels"] = checked


def _phase_summary(records: list[dict], rate: float, start: float) -> dict:
    """Tail, backlog growth and goodput of one fixed-rate phase."""
    done = [r for r in records if not r["shed"]]
    shed = len(records) - len(done)
    latencies = [r["latency_ms"] for r in done]
    value, percentile, samples = tail(latencies) if latencies else (float("inf"), 0.0, 0)
    third = max(1, len(done) // 3)
    ordered = sorted(done, key=lambda r: r["action"]["due"])
    backlog_ms = (
        median([r["queued_ms"] for r in ordered[-third:]])
        - median([r["queued_ms"] for r in ordered[:third]])
    ) if done else float("inf")
    return {
        "rate": rate,
        "actions": len(records),
        "shed": shed,
        "tail_ms": value,
        "tail_percentile": percentile,
        "samples": samples,
        "backlog_growth_ms": backlog_ms,
        # actions answered within the limit, per second from the phase's
        # start to its last answer
        "goodput_per_s": sum(v <= WEB_LIMIT_MS for v in latencies)
        / (max(r["finished"] for r in done) - start) if done else 0.0,
        "meets_limit": shed == 0 and value <= WEB_LIMIT_MS and backlog_ms <= WEB_BACKLOG_MS,
    }


def web_session(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    children = Children()
    inputs = WebInputs(seed)
    store = workdir / "labels.sqlite"
    try:
        if trace:
            return _trace_web(out, seed, children, store, workdir)
        state, setup_s = timed_setups(
            lambda: _web_setup(children, inputs, store),
            lambda state: _web_teardown(children, state),
        )
        labels: dict = {}
        reference_seconds = seconds * WEB_REFERENCE_SHARE
        probe_seconds = (seconds - reference_seconds) / WEB_PROBES
        phases, played = [], []

        def play(rate: float, length: float) -> list[dict]:
            start = time.perf_counter()
            records = _web_phase(state, inputs.schedule(rate, length, start))
            phases.append(_phase_summary(records, rate, start))
            served = _web_results(out, records, labels, "web-session")
            played.extend(served)
            return served

        try:
            reference = play(WEB_REFERENCE_RATE, reference_seconds)
            passed, failed = WEB_REFERENCE_RATE, None
            rate = WEB_FIRST_PROBE
            for _ in range(WEB_PROBES):
                play(rate, probe_seconds)
                if phases[-1]["meets_limit"]:
                    passed = max(passed, rate)
                else:
                    failed = rate if failed is None else min(failed, rate)
                rate = 2.0 * passed if failed is None else math.sqrt(passed * failed)
            rss = _web_teardown(children, state)
        except BaseException:
            _web_teardown(children, state)
            raise
        _web_check(out, inputs, labels)
        late = [r["generator_late_ms"] for r in played]
        late_tail = tail(late)[0]
        out.details["generator_late_ms"] = {"p50": median(late), "tail": late_tail,
                                            "max": max(late)}
        if late_tail > GENERATOR_LATE_MS:
            out.invalid.append(
                f"the load generator ran {late_tail:.1f} ms late; the run is invalid"
            )
        out.details["phases"] = phases
        passing = [p for p in phases if p["meets_limit"]]
        out.metric("setup_s", setup_s, "s")
        out.latency([r["latency_ms"] for r in reference])
        for kind, _ in WEB_MIX:
            values = [r["latency_ms"] for r in reference if r["action"]["kind"] == kind]
            out.details[f"{kind}_p50_ms"] = median(values) if values else None
        # capacity: the goodput of the highest rate that met the limit
        # (the reference phase included)
        capacity = max(passing, key=lambda p: p["rate"])["goodput_per_s"] if passing else 0.0
        out.details["capacity_per_s"] = capacity
        out.metric("throughput_per_s", capacity, "1/s")
        out.metric("peak_rss_mb", rss, "MB")
        return out
    finally:
        children.stop_all()


# -- traced runs ------------------------------------------------------------------------------

def _trace_in_process(out: Outcome, seed: int, name: str, units: int, setup, run, check) -> Outcome:
    """The same ``units`` labels untraced, then traced, each on a fresh set-up."""
    import layers
    import tracer as tracing

    state = setup()
    try:
        base = run(state, units)
    finally:
        state["service"].shutdown()
    state = setup()
    spans = tracing.Tracer().install(tracing.PATCHES)
    # the executor's job entry: its unit is the job's index, its start
    # less the batch's submit time is the job's queue wait
    spans.patch("repro.engine.service", "LabelService.run_job", "engine.executor.job",
                None, lambda args: int(args[1].job_id.rsplit("-", 1)[1]))
    try:
        traced = run(state, units, spans)
    finally:
        spans.uninstall()
        state["service"].shutdown()
    check(traced, state["table"])
    records = spans.records()
    layers.write_trace(name, seed, records)
    out.metrics = layers.per_layer(
        records, units,
        unit_ms=(base["latencies"], traced["latencies"]),
        windows=traced.get("windows"),
        submitted=traced.get("submitted"),
    )
    return out


def _trace_remote(out: Outcome, seed: int, children: Children, workdir: Path) -> Outcome:
    import layers
    import tracer as tracing

    state = _remote_setup(children)
    try:
        base = _mc_loop(state, seed, out, limit=REMOTE_TRACE_LABELS)
    finally:
        _remote_teardown(children, state)
    state = _remote_setup(children, trace_dir=workdir)
    spans = tracing.Tracer().install(tracing.PATCHES)
    cluster = layers.ClusterProbe(state["backend"], state["registry"])
    try:
        traced = _mc_loop(state, seed, out, limit=REMOTE_TRACE_LABELS, tracer=spans,
                          probe=cluster.around)
        _remote_health(out, state["backend"])
    finally:
        spans.uninstall()
        _remote_teardown(children, state)
    _mc_check(out, traced["labels"], state["table"], "mc-remote", 1)
    records = spans.records()
    for index in range(2):
        records += tracing.load_records(workdir / f"worker-{index}.json", f"worker-{index}")
    layers.write_trace("mc-remote", seed, records)
    out.metrics = layers.per_layer(
        records, REMOTE_TRACE_LABELS,
        unit_ms=(base["latencies"], traced["latencies"]),
        windows=traced["windows"], cluster=cluster,
    )
    return out


def _trace_web(out: Outcome, seed: int, children: Children, store: Path, workdir: Path) -> Outcome:
    import layers
    import tracer as tracing

    def phase(trace_out=None):
        inputs = WebInputs(seed)  # both passes play the same actions
        state = _web_setup(children, inputs, store, trace_out)
        try:
            start = time.perf_counter()
            actions = inputs.schedule(WEB_REFERENCE_RATE, WEB_TRACE_SECONDS, start)
            return inputs, _web_phase(state, actions)
        finally:
            _web_teardown(children, state)

    _, base = phase()
    trace_out = workdir / "server.json"
    inputs, traced = phase(trace_out)
    labels: dict = {}
    _web_results(out, base, labels, "web-session (untraced)")
    _web_results(out, traced, labels, "web-session (traced)")
    _web_check(out, inputs, labels)
    records = tracing.load_records(trace_out, "server")
    layers.write_trace("web-session", seed, records)
    out.metrics = layers.per_layer(
        records, round(WEB_REFERENCE_RATE * WEB_TRACE_SECONDS),
        unit_ms=(
            [r["latency_ms"] for r in base if not r["shed"]],
            [r["latency_ms"] for r in traced if not r["shed"]],
        ),
        web_records=traced,
    )
    return out


WORKLOADS = {
    "batch-audit": batch_audit,
    "web-session": web_session,
    "mc-stability": mc_stability,
    "mc-remote": mc_remote,
}
