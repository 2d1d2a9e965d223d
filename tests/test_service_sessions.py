"""The keyed-session store behind /v1/govern and /v1/powercap.

Covers the LRU bound and its metrics, per-session locking, and that a
step answering 400 leaves no trace: no stored session, no learned
sample, no joined node, no eviction.
"""

import threading
import urllib.request

import pytest

from repro.observability.metrics import get_registry as get_metrics_registry
from repro.service import sessions
from repro.service.errors import BadRequestError
from repro.service.http import ServiceConfig, TuningServer
from repro.service.sessions import KeyedSessions
from tests.test_service_http import request_json

GOOD = {"phase": "compress", "freq_ghz": 2.0, "power_w": 21.0,
        "runtime_s": 1.0}


@pytest.fixture(autouse=True)
def fresh_metrics():
    get_metrics_registry().reset()
    yield
    get_metrics_registry().reset()


@pytest.fixture
def server():
    srv = TuningServer(ServiceConfig(port=0, workers=2, queue_size=16))
    with srv:
        yield srv


def post(server, endpoint, body):
    return request_json(f"{server.url}/v1/{endpoint}", method="POST",
                        body=body)


def metric(name, kind):
    for m in get_metrics_registry().metrics():
        if m.name == name and dict(m.labels) == {"kind": kind}:
            return m.value
    return 0.0


class TestBound:
    def test_lru_entry_is_evicted_and_restarts_fresh(self, server,
                                                     monkeypatch):
        monkeypatch.setattr(sessions, "MAX_SESSIONS", 3)
        first = server.govern({"session": "s0", "samples": [GOOD]})
        assert first["samples_seen"] == 1
        for i in (1, 2, 3):
            server.govern({"session": f"s{i}"})
        assert len(server.sessions) == 3
        assert metric("repro_service_session_evictions_total", "govern") == 1
        again = server.govern({"session": "s0"})
        assert again["samples_seen"] == 0

    def test_a_step_refreshes_recency(self, server, monkeypatch):
        monkeypatch.setattr(sessions, "MAX_SESSIONS", 2)
        server.govern({"session": "old", "samples": [GOOD]})
        server.govern({"session": "mid"})
        server.govern({"session": "old"})  # now most recently used
        server.govern({"session": "new"})  # evicts "mid"
        assert server.govern({"session": "old"})["samples_seen"] == 1

    def test_kinds_share_one_bound(self, server, monkeypatch):
        monkeypatch.setattr(sessions, "MAX_SESSIONS", 2)
        server.govern({"session": "g"})
        server.powercap({"session": "p", "budget_w": 120.0,
                         "nodes": [{"id": "a"}]})
        server.govern({"session": "h"})
        assert len(server.sessions) == 2
        assert metric("repro_service_session_evictions_total", "govern") == 1
        assert metric("repro_service_sessions", "powercap") == 1

    def test_gauge_and_evictions_reach_metrics_endpoint(self, server,
                                                        monkeypatch):
        monkeypatch.setattr(sessions, "MAX_SESSIONS", 1)
        assert post(server, "govern", {"session": "a"})[0] == 200
        assert post(server, "govern", {"session": "b"})[0] == 200
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10.0) as resp:
            text = resp.read().decode()
        assert 'repro_service_sessions{kind="govern"} 1' in text
        assert 'repro_service_session_evictions_total{kind="govern"} 1' in text

    def test_failed_step_evicts_nothing(self, server, monkeypatch):
        monkeypatch.setattr(sessions, "MAX_SESSIONS", 1)
        server.govern({"session": "kept", "samples": [GOOD]})
        status, _ = post(server, "powercap", {"session": "p", "budget_w": 90.0})
        assert status == 400
        assert server.govern({"session": "kept"})["samples_seen"] == 1
        assert metric("repro_service_session_evictions_total", "govern") == 0


class TestAtomicSteps:
    def test_rejected_powercap_steps_store_nothing(self, server):
        for i in range(2000):
            with pytest.raises(BadRequestError, match="no nodes"):
                server.powercap({"session": f"s{i}", "budget_w": 100.0 + i})
        assert len(server.sessions) == 0
        status, _ = post(server, "powercap", {"session": "s0",
                                              "budget_w": 100.0})
        assert status == 400
        assert len(server.sessions) == 0

    @pytest.mark.parametrize("warm", [False, True])
    def test_rejected_govern_step_learns_nothing(self, server, warm):
        if warm:
            server.govern({"session": "g", "samples": [GOOD]})
        status, doc = post(server, "govern", {"session": "g", "samples": [
            GOOD, dict(GOOD, power_w=float("nan"))]})
        assert status == 400
        assert "invalid telemetry sample 1" in doc["message"]
        assert len(server.sessions) == int(warm)
        assert server.govern({"session": "g"})["samples_seen"] == int(warm)

    @pytest.mark.parametrize("bad", [
        {"nodes": [{"id": "a"}, {"id": "q", "arch": "quantum"}]},
        {"nodes": [{"id": "a"}, {"id": "w", "work": -1.0}]},
        {"nodes": [{"id": "a"}], "leave": ["ghost"]},
        {"nodes": [{"id": "a"}], "leave": ["b", "b"]},
        {"nodes": [{"id": "a"}], "demands": {"a": 30.0, "ghost": 30.0}},
        {"nodes": [{"id": "a"}], "demands": {"a": float("inf")}},
        {"nodes": [{"id": "a"}], "phase": "sleep"},
    ])
    def test_rejected_powercap_step_joins_nothing(self, server, bad):
        base = {"session": "p", "budget_w": 120.0}
        _, before = post(server, "powercap", dict(base, nodes=[{"id": "b"}]))
        status, _ = post(server, "powercap", dict(base, **bad))
        assert status == 400
        _, after = post(server, "powercap", base)
        assert set(after["caps"]) == {"b"}
        assert after["epoch"] == before["epoch"]
        assert after["trace_sha256"] == before["trace_sha256"]

    def test_rejected_first_step_stores_no_session(self, server):
        status, _ = post(server, "powercap", {
            "session": "fresh", "budget_w": 120.0,
            "nodes": [{"id": "a"}, {"id": "q", "arch": "quantum"}]})
        assert status == 400
        assert len(server.sessions) == 0


class TestPayloadChecks:
    @pytest.mark.parametrize("endpoint,extra", [
        ("govern", {}),
        ("powercap", {"budget_w": 120.0, "nodes": [{"id": "a"}]}),
    ])
    @pytest.mark.parametrize("session,needle", [
        ("has space", "invalid session"),
        ("-leading-dash", "invalid session"),
        ("x" * 129, "invalid session"),
        ("trailing\n", "invalid session"),
    ])
    def test_bad_session_id_is_400(self, server, endpoint, extra, session,
                                   needle):
        status, doc = post(server, endpoint, dict(extra, session=session))
        assert (status, doc["error"]) == (400, "bad_request")
        assert needle in doc["message"]
        assert len(server.sessions) == 0

    def test_longest_session_id_is_accepted(self, server):
        status, doc = post(server, "govern", {"session": "x" * 128})
        assert status == 200
        assert doc["session"] == "x" * 128

    @pytest.mark.parametrize("endpoint,body", [
        ("govern", {"sesion": "typo"}),
        ("powercap", {"budget_w": 120.0, "nodes": [{"id": "a"}],
                      "budget": 99.0}),
    ])
    def test_unknown_field_is_400(self, server, endpoint, body):
        status, doc = post(server, endpoint, body)
        assert (status, doc["error"]) == (400, "bad_request")
        assert "unknown fields" in doc["message"]
        assert len(server.sessions) == 0

    def test_unknown_govern_arch_stays_400(self, server):
        status, doc = post(server, "govern", {"arch": "quantum9000"})
        assert (status, doc["error"]) == (400, "bad_request")
        assert "unknown CPU" in doc["message"]


class TestKeyedSessions:
    def test_blocked_session_does_not_block_another(self):
        store = KeyedSessions()
        for key in ("A", "B"):
            store.step("k", key, list, lambda s: None)
        release, entered = threading.Event(), threading.Event()

        def hold(session):
            entered.set()
            release.wait(10.0)

        holder = threading.Thread(target=store.step,
                                  args=("k", "A", list, hold))
        holder.start()
        try:
            assert entered.wait(5.0)
            done = threading.Event()
            worker = threading.Thread(target=lambda: (
                store.step("k", "B", list, lambda s: s.append(1)),
                done.set()))
            worker.start()
            assert done.wait(5.0), "a step on B queued behind A"
            worker.join(5.0)
        finally:
            release.set()
            holder.join(5.0)
        assert not holder.is_alive()

    def test_steps_on_one_session_are_serialised(self):
        store = KeyedSessions()
        store.step("k", "A", list, lambda s: None)
        release, entered = threading.Event(), threading.Event()

        def hold(session):
            entered.set()
            release.wait(10.0)
            session.append("first")

        holder = threading.Thread(target=store.step,
                                  args=("k", "A", list, hold))
        holder.start()
        assert entered.wait(5.0)
        second = threading.Thread(target=store.step, args=(
            "k", "A", list, lambda s: s.append("second")))
        second.start()
        second.join(0.2)
        assert second.is_alive()
        release.set()
        holder.join(5.0)
        second.join(5.0)
        assert store.step("k", "A", list, list) == ["first", "second"]

    def test_racing_first_steps_both_land_on_the_stored_session(self):
        store = KeyedSessions()
        release, entered = threading.Event(), threading.Event()

        def slow(session):
            entered.set()
            release.wait(10.0)
            session.append("slow")

        slow_step = threading.Thread(target=store.step,
                                     args=("k", "X", list, slow))
        slow_step.start()
        assert entered.wait(5.0)
        store.step("k", "X", list, lambda s: s.append("fast"))
        release.set()
        slow_step.join(5.0)
        assert len(store) == 1
        assert store.step("k", "X", list, list) == ["fast", "slow"]

    def test_raising_step_stores_nothing(self):
        store = KeyedSessions()

        def boom(session):
            session.append(1)
            raise ValueError("nope")

        with pytest.raises(ValueError):
            store.step("k", "A", list, boom)
        assert len(store) == 0
