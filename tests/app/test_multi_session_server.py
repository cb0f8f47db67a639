"""Tests for the server's multi-session registry and batch endpoints."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.app.server import SessionRegistry, make_server
from repro.errors import EngineError

DESIGN = {
    "weights": {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    "sensitive": ["DeptSizeBin"],
    "id_column": "DeptName",
}


def get(handle, path):
    with urllib.request.urlopen(handle.url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(handle, path, body):
    request = urllib.request.Request(
        handle.url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def wait_for_batch(handle, batch_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = get(handle, f"/jobs/{batch_id}")
        if status["done"]:
            return status
        time.sleep(0.05)
    raise AssertionError(f"batch {batch_id} did not finish within {timeout}s")


@pytest.fixture(scope="module")
def served():
    with make_server() as handle:
        yield handle


class TestSessionRegistry:
    def test_create_get_close(self):
        registry = SessionRegistry()
        token, session = registry.create()
        assert registry.get(token) is session
        assert registry.tokens() == {token: "empty"}
        assert registry.close(token) is True
        assert registry.close(token) is False

    def test_sessions_share_the_service(self):
        registry = SessionRegistry()
        _, one = registry.create()
        _, two = registry.create()
        assert one.service is two.service is registry.service


class TestSessionEndpoints:
    def test_open_bare_session_then_configure(self, served):
        status, reply = post(served, "/session", {})
        assert status == 201 and reply["stage"] == "empty"
        token = reply["token"]
        status, reply = post(
            served, f"/session/{token}/dataset", {"name": "cs-departments"}
        )
        assert status == 200 and reply["stage"] == "data-loaded"
        status, reply = post(served, f"/session/{token}/design", DESIGN)
        assert status == 200 and reply["stage"] == "scorer-designed"
        status, label = get(served, f"/session/{token}/label")
        assert status == 200 and label["dataset"] == "cs-departments"

    def test_open_preloaded_session(self, served):
        status, reply = post(
            served, "/session", {"dataset": "cs-departments", "design": DESIGN}
        )
        assert status == 201 and reply["stage"] == "scorer-designed"
        token = reply["token"]
        _, overview = get(served, f"/session/{token}/attributes")
        assert any(entry["name"] == "GRE" for entry in overview["attributes"])
        _, preview = get(served, f"/session/{token}/preview")
        assert preview["preview"][0]["rank"] == 1

    def test_invalid_preload_does_not_leak_a_session(self, served):
        _, before = get(served, "/sessions")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, "/session", {"dataset": "no-such-dataset"})
        assert excinfo.value.code == 400
        _, after = get(served, "/sessions")
        assert len(after["sessions"]) == len(before["sessions"])

    def test_unknown_token_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, "/session/deadbeef/label")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, "/session/deadbeef/design", DESIGN)
        assert excinfo.value.code == 404

    def test_two_sessions_are_isolated(self, served):
        _, one = post(
            served, "/session", {"dataset": "cs-departments", "design": DESIGN}
        )
        _, two = post(served, "/session", {
            "dataset": "cs-departments",
            "design": DESIGN | {"weights": {"GRE": 1.0}, "k": 5},
        })
        _, label_one = get(served, f"/session/{one['token']}/label")
        _, label_two = get(served, f"/session/{two['token']}/label")
        assert set(label_one["recipe"]["weights"]) == set(DESIGN["weights"])
        assert set(label_two["recipe"]["weights"]) == {"GRE"}
        assert label_one["k"] == 10 and label_two["k"] == 5

    def test_identical_designs_hit_the_shared_cache(self, served):
        body = {"dataset": "cs-departments", "design": DESIGN | {"seed": 99}}
        _, one = post(served, "/session", body)
        _, two = post(served, "/session", body)
        get(served, f"/session/{one['token']}/label")
        _, stats_before = get(served, "/engine/stats")
        get(served, f"/session/{two['token']}/label")
        _, stats_after = get(served, "/engine/stats")
        assert (
            stats_after["service"]["builds"] == stats_before["service"]["builds"]
        )
        _, status = get(served, f"/session/{two['token']}/status")
        assert status["cached"] is True

    def test_session_status_view(self, served):
        _, reply = post(served, "/session", {"dataset": "cs-departments"})
        _, status = get(served, f"/session/{reply['token']}/status")
        assert status == {"stage": "data-loaded", "cached": False}

    def test_monte_carlo_design_over_http(self, served):
        _, reply = post(served, "/session", {
            "dataset": "cs-departments",
            "design": DESIGN | {
                "monte_carlo_trials": 3, "monte_carlo_epsilons": [0.1],
            },
        })
        _, label = get(served, f"/session/{reply['token']}/label")
        perturbation = label["stability"]["weight_perturbation"]
        assert perturbation and perturbation[0]["trials"] == 3

    def test_redesign_without_monte_carlo_disables_it(self, served):
        _, reply = post(served, "/session", {
            "dataset": "cs-departments",
            "design": DESIGN | {
                "monte_carlo_trials": 3, "monte_carlo_epsilons": [0.1],
            },
        })
        token = reply["token"]
        _, label = get(served, f"/session/{token}/label")
        assert label["stability"]["weight_perturbation"]
        post(served, f"/session/{token}/design", DESIGN)  # no MC fields
        _, label = get(served, f"/session/{token}/label")
        assert label["stability"]["weight_perturbation"] == []

    def test_malformed_monte_carlo_epsilons_is_400(self, served):
        _, reply = post(served, "/session", {"dataset": "cs-departments"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, f"/session/{reply['token']}/design", DESIGN | {
                "monte_carlo_trials": 3, "monte_carlo_epsilons": 0.1,
            })
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.1], ids=str)
    def test_non_finite_or_negative_epsilon_is_400(self, served, epsilon):
        sessions = len(served.registry.tokens())
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, "/session", {
                "dataset": "cs-departments",
                "design": DESIGN | {
                    "monte_carlo_trials": 3, "monte_carlo_epsilons": [epsilon],
                },
            })
        assert excinfo.value.code == 400
        assert "finite and non-negative" in json.loads(excinfo.value.read())["error"]
        assert len(served.registry.tokens()) == sessions

    def test_close_session(self, served):
        _, reply = post(served, "/session", {"dataset": "cs-departments"})
        token = reply["token"]
        status, closed = post(served, f"/session/{token}/close", {})
        assert status == 200 and closed["closed"] == token
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, f"/session/{token}/status")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, f"/session/{token}/close", {})
        assert excinfo.value.code == 404


class TestBatchEndpoints:
    def test_submit_and_poll(self, served):
        status, reply = post(served, "/jobs", {"jobs": [
            {"dataset": "cs-departments", "design": DESIGN},
            {"dataset": "german-credit", "design": {
                "weights": {"credit_score": 1.0}, "sensitive": ["sex"],
                "id_column": "applicant_id",
            }},
        ]})
        assert status == 202 and reply["total"] == 2
        final = wait_for_batch(served, reply["batch_id"])
        assert final["completed"] == 2
        assert [row["status"] for row in final["jobs"]] == ["done", "done"]

    def test_include_labels(self, served):
        _, reply = post(served, "/jobs", {"jobs": [
            {"dataset": "cs-departments", "design": DESIGN, "id": "mine"},
        ]})
        wait_for_batch(served, reply["batch_id"])
        _, status = get(served, f"/jobs/{reply['batch_id']}?include=labels")
        # the spec's own "id" names the job (it used to be shadowed by job-0)
        assert status["labels"]["mine"]["dataset"] == "cs-departments"

    def test_failed_job_visible_in_status(self, served):
        _, reply = post(served, "/jobs", {"jobs": [
            {"dataset": "no-such-dataset", "design": DESIGN},
        ]})
        final = wait_for_batch(served, reply["batch_id"])
        assert final["jobs"][0]["status"] == "failed"
        assert "no-such-dataset" in final["jobs"][0]["error"]

    def test_unknown_batch_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, "/jobs/batch-9999")
        assert excinfo.value.code == 404

    def test_empty_batch_400(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, "/jobs", {"jobs": []})
        assert excinfo.value.code == 400


class TestEngineStats:
    def test_stats_endpoint_shape(self, served):
        status, stats = get(served, "/engine/stats")
        assert status == 200
        assert set(stats) == {
            "service", "cache", "executor", "telemetry", "slo",
            "profiles", "resources",
        }
        assert set(stats["telemetry"]) >= {"metrics", "recent_traces", "trace_buffer"}

    def test_health_reports_session_count(self, served):
        _, health = get(served, "/health")
        assert health["status"] == "ok"
        assert health["sessions"] >= 0


class TestHeadlessServer:
    def test_default_routes_without_bound_session_are_400(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, "/label")
        assert excinfo.value.code == 400
        assert "no default session" in json.loads(excinfo.value.read())["error"]

    def test_post_to_root_is_404_not_500(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, "/", {})
        assert excinfo.value.code == 404

    def test_bad_job_design_value_is_400(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, "/jobs", {"jobs": [
                {"dataset": "compas", "design": {
                    "weights": {"x": 1.0}, "sensitive": ["g"], "k": "ten",
                }},
            ]})
        assert excinfo.value.code == 400
        assert "bad design value" in json.loads(excinfo.value.read())["error"]


class TestRegistryBounds:
    """The session cap: oldest-idle eviction, pinned defaults survive."""

    def test_cap_evicts_oldest_idle(self):
        registry = SessionRegistry(max_sessions=3)
        tokens = [registry.create()[0] for _ in range(3)]
        registry.get(tokens[0])  # touch: no longer the eviction victim
        overflow, _ = registry.create()
        assert registry.evicted == 1
        with pytest.raises(Exception, match="unknown session token"):
            registry.get(tokens[1])  # the untouched oldest went
        for token in (tokens[0], tokens[2], overflow):
            registry.get(token)  # everyone else survives

    def test_adopted_default_session_is_never_evicted(self):
        from repro.app.session import DemoSession

        registry = SessionRegistry(max_sessions=2)
        default = DemoSession(service=registry.service)
        pinned = registry.adopt(default)
        for _ in range(5):
            registry.create()
        assert registry.get(pinned) is default
        assert len(registry.tokens()) == 2  # cap held despite the pin

    def test_close_unpins(self):
        from repro.app.session import DemoSession

        registry = SessionRegistry(max_sessions=1)
        token = registry.adopt(DemoSession(service=registry.service))
        assert registry.close(token) is True
        fresh, _ = registry.create()
        registry.create()
        assert registry.evicted == 1
        assert fresh not in registry.tokens()

    def test_invalid_cap_rejected(self):
        with pytest.raises(Exception, match="max_sessions"):
            SessionRegistry(max_sessions=0)

    def test_session_churn_over_http_stays_bounded(self):
        with make_server(max_sessions=4) as handle:
            for _ in range(10):
                post(handle, "/session", {})
            _, listing = get(handle, "/sessions")
            assert len(listing["sessions"]) == 4


class TestLocalPathPolicy:
    """POST /jobs must not read server-side files unless explicitly allowed."""

    def test_csv_jobs_rejected_by_default(self, served, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("name,x\na,1\nb,2\n", encoding="utf-8")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(served, "/jobs", {"jobs": [{
                "csv": str(target),
                "design": {"weights": {"x": 1.0}, "sensitive": ["name"]},
            }]})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "--allow-local-paths" in body["error"]

    def test_rejection_queues_nothing(self, served):
        _, stats_before = get(served, "/engine/stats")
        with pytest.raises(urllib.error.HTTPError):
            post(served, "/jobs", {"jobs": [
                {"dataset": "cs-departments", "design": DESIGN},
                {"csv": "/etc/passwd", "design": DESIGN},
            ]})
        _, stats_after = get(served, "/engine/stats")
        assert (
            stats_after["executor"]["jobs_submitted"]
            == stats_before["executor"]["jobs_submitted"]
        )

    def test_flag_restores_csv_jobs(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text(
            "name,group,x\na,g1,1\nb,g2,2\nc,g1,3\nd,g2,4\n", encoding="utf-8"
        )
        with make_server(allow_local_paths=tmp_path) as handle:
            status, reply = post(handle, "/jobs", {"jobs": [{
                "csv": str(target),
                "design": {
                    "weights": {"x": 1.0}, "sensitive": ["group"],
                    "id_column": "name", "k": 2,
                },
            }]})
            assert status == 202
            final = wait_for_batch(handle, reply["batch_id"])
            assert [row["status"] for row in final["jobs"]] == ["done"]

    def test_paths_outside_the_sandbox_rejected(self, tmp_path):
        sandbox = tmp_path / "allowed"
        sandbox.mkdir()
        (sandbox / "ok.csv").write_text(
            "name,x\na,1\nb,2\n", encoding="utf-8"
        )
        secret = tmp_path / "secret.csv"
        secret.write_text("name,x\na,1\n", encoding="utf-8")
        with make_server(allow_local_paths=sandbox) as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(handle, "/jobs", {"jobs": [{
                    "csv": str(secret),
                    "design": {"weights": {"x": 1.0}, "sensitive": ["name"]},
                }]})
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "outside the allowed directory" in body["error"]

    def test_dotdot_escape_rejected(self, tmp_path):
        sandbox = tmp_path / "allowed"
        sandbox.mkdir()
        secret = tmp_path / "secret.csv"
        secret.write_text("name,x\na,1\n", encoding="utf-8")
        with make_server(allow_local_paths=sandbox) as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(handle, "/jobs", {"jobs": [{
                    "csv": str(sandbox / ".." / "secret.csv"),
                    "design": {"weights": {"x": 1.0}, "sensitive": ["name"]},
                }]})
            assert excinfo.value.code == 400

    def test_symlink_escaping_the_sandbox_rejected(self, tmp_path):
        sandbox = tmp_path / "allowed"
        sandbox.mkdir()
        secret = tmp_path / "secret.csv"
        secret.write_text("name,x\na,1\n", encoding="utf-8")
        link = sandbox / "innocent.csv"
        link.symlink_to(secret)
        with make_server(allow_local_paths=sandbox) as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(handle, "/jobs", {"jobs": [{
                    "csv": str(link),
                    "design": {"weights": {"x": 1.0}, "sensitive": ["name"]},
                }]})
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "outside the allowed directory" in body["error"]

    def test_boolean_true_no_longer_accepted(self):
        with pytest.raises(EngineError, match="directory"):
            make_server(allow_local_paths=True)

    def test_missing_sandbox_directory_rejected(self, tmp_path):
        with pytest.raises(EngineError, match="not a directory"):
            make_server(allow_local_paths=tmp_path / "does-not-exist")

    def test_fresh_token_survives_even_when_everything_else_is_pinned(self):
        """create() must never evict the session it just handed out."""
        from repro.app.session import DemoSession

        registry = SessionRegistry(max_sessions=1)
        registry.adopt(DemoSession(service=registry.service))  # pinned at cap
        token, session = registry.create()
        assert registry.get(token) is session  # token must be live


class TestSessionTTL:
    """Idle-time expiry beside the count cap; the pinned default survives."""

    @staticmethod
    def ticking(ttl, max_sessions=256):
        clock = {"now": 0.0}
        registry = SessionRegistry(
            max_sessions=max_sessions, session_ttl=ttl,
            clock=lambda: clock["now"],
        )
        return clock, registry

    def test_idle_sessions_expire(self):
        clock, registry = self.ticking(ttl=60.0)
        stale, _ = registry.create()
        clock["now"] = 30.0
        fresh, _ = registry.create()
        clock["now"] = 70.0  # stale idle 70s, fresh idle 40s
        assert set(registry.tokens()) == {fresh}
        assert registry.expired == 1
        with pytest.raises(Exception, match="unknown session token"):
            registry.get(stale)

    def test_a_lookup_resets_the_idle_clock(self):
        clock, registry = self.ticking(ttl=60.0)
        token, _ = registry.create()
        clock["now"] = 50.0
        registry.get(token)  # touched: idle clock restarts
        clock["now"] = 100.0  # 50s since the touch, 100s since creation
        assert registry.get(token) is not None
        assert registry.expired == 0

    def test_adopted_default_session_never_expires(self):
        from repro.app.session import DemoSession

        clock, registry = self.ticking(ttl=10.0)
        default = DemoSession(service=registry.service)
        pinned = registry.adopt(default)
        doomed, _ = registry.create()
        clock["now"] = 1000.0
        assert set(registry.tokens()) == {pinned}
        assert registry.get(pinned) is default
        assert registry.expired == 1  # only the unpinned session went

    def test_expiry_and_cap_count_separately(self):
        clock, registry = self.ticking(ttl=10.0, max_sessions=2)
        registry.create()
        registry.create()
        registry.create()  # cap eviction
        assert registry.evicted == 1
        clock["now"] = 20.0
        registry.tokens()  # lazy sweep
        assert registry.expired == 2
        assert registry.tokens() == {}

    def test_no_ttl_means_sessions_never_expire(self):
        clock, registry = self.ticking(ttl=None)
        token, _ = registry.create()
        clock["now"] = 1e9
        assert token in registry.tokens()

    def test_invalid_ttl_rejected(self):
        with pytest.raises(Exception, match="session_ttl"):
            SessionRegistry(session_ttl=0)

    def test_make_server_passes_the_ttl_through(self):
        with make_server(session_ttl=123.0) as handle:
            assert handle.registry.session_ttl == 123.0
