"""Live HTTP tests for ``xnf serve``: overload, drain, signals.

In-process :class:`~repro.serve.server.NormalizationServer` instances
cover the wire contract (shedding, readiness, error envelopes); the
subprocess tests drive the real ``xnf serve`` CLI under load and
SIGTERM, asserting the acceptance criteria: 429 within bounded time
under overload, a clean drain that loses no accepted request, exit 0.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.export import MetricsExporter
from repro.serve import BudgetDefaults, NormalizationServer, run_load

SIMPLE_DTD = ("<!ELEMENT db (row*)>\n<!ELEMENT row EMPTY>\n"
              "<!ATTLIST row a CDATA #REQUIRED b CDATA #REQUIRED>")
SIMPLE_FDS = "db.row.@a -> db.row.@b"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _post(url: str, payload: dict, timeout: float = 30.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def _get(url: str, timeout: float = 10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture
def server():
    srv = NormalizationServer(0).start()
    yield srv
    srv.stop()


class TestWireContract:
    def test_all_endpoints_round_trip(self, server):
        base = server.url()
        status, body, _ = _post(base + "/v1/implication",
                                {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS,
                                 "fd": SIMPLE_FDS})
        assert (status, body["verdict"]) == (200, "yes")
        status, body, _ = _post(base + "/v1/xnf-check",
                                {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS})
        assert (status, body["in_xnf"]) == (200, False)
        status, body, _ = _post(base + "/v1/normalize",
                                {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS})
        assert status == 200 and body["steps"]

    def test_control_plane(self, server):
        base = server.url()
        status, body = _get(base + "/healthz")
        assert status == 200
        assert json.loads(body)["draining"] is False
        status, body = _get(base + "/readyz")
        assert status == 200
        status, body = _get(base + "/metrics")
        assert status == 200

    def test_unknown_path_and_wrong_method(self, server):
        base = server.url()
        status, body = _get(base + "/v1/implication")
        assert status == 405
        status, body, _ = _post(base + "/v1/nope", {})
        assert status == 404
        assert body["error"]["kind"] == "usage"

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            server.url("/v1/normalize"), data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_oversized_body_is_400(self):
        srv = NormalizationServer(0, max_body_bytes=64).start()
        try:
            payload = {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS}
            status, body, _ = _post(srv.url("/v1/normalize"), payload)
            assert status == 400
            assert "exceeds" in body["error"]["message"]
        finally:
            srv.stop()


class TestWirePath:
    """A response leaves as one write on a no-Nagle socket, so a
    keep-alive client never waits out its own delayed-ACK timer."""

    IMPLICATION = json.dumps({"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS,
                              "fd": SIMPLE_FDS}).encode("utf-8")

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(
            self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        latencies = []
        try:
            for _ in range(30):
                started = time.perf_counter()
                conn.request("POST", "/v1/implication",
                             body=self.IMPLICATION,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200
                assert not response.will_close
        finally:
            conn.close()
        # Two writes per response read >= 40 ms here (Linux's
        # delayed-ACK timer); the request itself takes ~1 ms.
        assert statistics.median(latencies) < 0.020, latencies

    def test_one_sendall_per_response_on_a_no_delay_socket(
            self, server, monkeypatch):
        exporter = MetricsExporter(0).start()
        ports = {server.port, exporter.port}
        writes = []
        real_sendall = socket.socket.sendall

        def sendall(sock, data, *args):
            if sock.getsockname()[1] in ports:
                writes.append(sock.getsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY))
            return real_sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", sendall)
        try:
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=30)
            try:
                for method, path, body in (
                        ("POST", "/v1/implication", self.IMPLICATION),
                        ("GET", "/metrics", None),
                        ("GET", "/healthz", None),
                        ("GET", "/readyz", None),
                        ("GET", "/nope", None)):
                    conn.request(method, path, body=body)
                    conn.getresponse().read()
            finally:
                conn.close()
            for path in ("/metrics", "/healthz", "/nope"):
                status, _ = _get(exporter.url(path))
                assert status in (200, 404)
        finally:
            exporter.stop()
        assert len(writes) == 8, writes
        assert all(writes), "accepted socket without TCP_NODELAY"

    def test_responses_that_skip_the_body_close_the_connection(self):
        """The unread body of a refused request must never be parsed
        as the next request on a keep-alive connection."""
        srv = NormalizationServer(0, max_body_bytes=64).start()
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        try:
            for path, status in (("/v1/nope", 404),
                                 ("/v1/implication", 400)):
                conn.request("POST", path, body=self.IMPLICATION)
                response = conn.getresponse()
                response.read()
                assert response.status == status
                assert response.will_close
                conn.close()
        finally:
            conn.close()
            srv.stop()


class TestOverload:
    def test_sheds_429_with_retry_after_within_bounded_time(self):
        srv = NormalizationServer(0, max_inflight=1, max_queue=0).start()
        try:
            assert srv.gate.admit().value == "admitted"  # occupy
            started = time.monotonic()
            status, body, headers = _post(
                srv.url("/v1/xnf-check"),
                {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS})
            elapsed = time.monotonic() - started
            assert status == 429
            assert body["error"]["kind"] == "shed"
            assert headers["Retry-After"] == "1"
            # Shedding is immediate — not queued behind the slot.
            assert elapsed < 2.0
            srv.gate.release()
            status, _, _ = _post(srv.url("/v1/xnf-check"),
                                 {"dtd": SIMPLE_DTD,
                                  "fds": SIMPLE_FDS})
            assert status == 200
        finally:
            srv.stop()

    def test_queue_timeout_is_503(self):
        srv = NormalizationServer(0, max_inflight=1, max_queue=4,
                                  queue_timeout_s=0.1).start()
        try:
            assert srv.gate.admit().value == "admitted"
            status, body, _ = _post(
                srv.url("/v1/xnf-check"),
                {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS})
            assert status == 503
            assert body["error"]["kind"] == "queue-timeout"
            srv.gate.release()
        finally:
            srv.stop()

    def test_one_pathological_request_leaves_neighbors_healthy(self):
        """A request burning its whole budget degrades alone: the
        spec-level isolation the thread-scoped guard provides."""
        srv = NormalizationServer(
            0, max_inflight=4,
            defaults=BudgetDefaults(timeout=30.0)).start()
        try:
            from repro.datasets.university import (
                UNIVERSITY_DTD, UNIVERSITY_FDS)
            hard = {"dtd": UNIVERSITY_DTD, "fds": UNIVERSITY_FDS,
                    "fd": "courses.course.title.S -> "
                          "courses.course.@cno",
                    "budget": {"max_steps": 1}}
            easy = {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS,
                    "fd": SIMPLE_FDS}
            results = {}

            def fire(name, payload):
                results[name] = _post(
                    srv.url("/v1/implication"), payload)

            threads = [
                threading.Thread(target=fire, args=("hard", hard)),
                threading.Thread(target=fire, args=("easy", easy)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            status, body, _ = results["hard"]
            assert (status, body["verdict"]) == (200, "unknown")
            status, body, _ = results["easy"]
            assert (status, body["verdict"]) == (200, "yes")
        finally:
            srv.stop()


class TestDrain:
    def test_readiness_flips_and_inflight_completes(self):
        srv = NormalizationServer(0, max_inflight=2).start()
        base = srv.url()
        assert srv.gate.admit().value == "admitted"  # fake in-flight
        outcome = []
        drainer = threading.Thread(
            target=lambda: outcome.append(srv.drain(10.0)))
        drainer.start()
        for _ in range(200):
            if srv.gate.draining:
                break
            time.sleep(0.01)
        # Mid-drain: not ready, still alive, still refusing politely.
        status, _ = _get(base + "/readyz")
        assert status == 503
        status, body = _get(base + "/healthz")
        assert status == 200
        assert json.loads(body)["draining"] is True
        status, body, _ = _post(base + "/v1/xnf-check",
                                {"dtd": SIMPLE_DTD,
                                 "fds": SIMPLE_FDS})
        assert status == 503
        assert body["error"]["kind"] == "draining"
        srv.gate.release()
        drainer.join(timeout=10)
        assert outcome == [True]
        # The listener is gone after a completed drain.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(base + "/healthz", timeout=2)

    def test_drain_with_no_traffic_is_immediate_and_repeatable(self):
        srv = NormalizationServer(0).start()
        assert srv.drain(5.0) is True
        assert srv.drain(5.0) is True  # idempotent after completion


def _spawn_serve(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        env=env, stderr=subprocess.PIPE, text=True)
    line = proc.stderr.readline()
    match = re.search(r"http://[\d.]+:\d+", line)
    if match is None:
        proc.kill()
        raise AssertionError(f"no announce line, got: {line!r}")
    return proc, match.group(0)


class TestServeProcess:
    def test_sigterm_under_load_drains_cleanly_exit_0(self):
        proc, url = _spawn_serve()
        try:
            report_box = {}

            def load():
                # Far more requests than fit before the signal: once
                # the drain starts the rest are refused (503) or find
                # the listener gone (lost), both in well under a second.
                report_box["report"] = run_load(
                    url, requests=3000, concurrency=4, seed=11)

            loader = threading.Thread(target=load)
            loader.start()
            # Scrape the control plane mid-run.
            status, body = _get(url + "/readyz")
            assert status == 200
            status, body = _get(url + "/metrics")
            assert status == 200
            assert b"serve_" in body or b"obs_export" in body
            time.sleep(0.2)  # let traffic be genuinely in flight
            proc.send_signal(signal.SIGTERM)
            loader.join(timeout=60)
            returncode = proc.wait(timeout=30)
            stderr = proc.stderr.read()
            report = report_box["report"]
            assert returncode == 0, stderr
            assert "drained cleanly" in stderr
            # No accepted request may be lost: every task got either a
            # real answer (200) or a polite refusal (503 draining /
            # connection refused after the listener closed, which the
            # load generator counts as lost only if the server died
            # mid-request — a clean drain closes between requests).
            assert report.count(status_class=2) >= 1
            assert report.statuses.keys() <= {200, 503}
            # A 503 "draining" can only come after the signal: the
            # load was still running when it landed.
            assert report.statuses.get(503, 0) >= 1, report.summary()
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_mid_drain_sigterm_is_idempotent(self):
        proc, url = _spawn_serve("--drain-deadline", "5")
        try:
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)  # mid-drain repeat
            returncode = proc.wait(timeout=30)
            assert returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_sigint_also_drains(self):
        proc, url = _spawn_serve()
        try:
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


class TestCacheWarmth:
    def test_repeat_requests_hit_the_spec_cache(self):
        was_enabled = obs.is_enabled()
        obs.enable()
        obs.reset()
        srv = NormalizationServer(0).start()
        try:
            payload = {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS}
            for _ in range(3):
                status, _, _ = _post(srv.url("/v1/xnf-check"), payload)
                assert status == 200
            counters = obs.snapshot()["counters"]
            assert counters["serve.cache.miss"] == 1
            assert counters["serve.cache.hit"] == 2
        finally:
            srv.stop()
            obs.reset()
            if not was_enabled:
                obs.disable()
