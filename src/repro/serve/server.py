"""The HTTP transport of ``xnf serve``.

One :class:`ThreadingHTTPServer` (the :class:`repro.obs.export.
MetricsExporter` pattern — stdlib-only, daemon serving thread, one
handler thread per connection) carries both planes on a single port:

* the **service plane** — ``POST /v1/implication`` / ``/v1/xnf-check``
  / ``/v1/normalize`` with JSON bodies, each request passing the
  :class:`~repro.serve.admission.AdmissionGate` before its body is even
  read (shedding must stay cheap under overload) and then running
  through the pure handlers in :mod:`repro.serve.handlers` under a
  thread-scoped guard budget;
* the **control plane** — ``GET /metrics`` (Prometheus text of the
  live registry, including every ``serve.*`` series), ``GET /healthz``
  (liveness: 200 for the whole process lifetime, draining included)
  and ``GET /readyz`` (readiness: 503 the instant a drain starts, so
  load balancers stop routing before the listener goes away).

Shutdown is :meth:`NormalizationServer.drain`: flip the gate (new
work refused with 503, queued waiters bounced), wait for in-flight
requests up to the drain deadline, then close the listener.  It is
idempotent — a second SIGTERM mid-drain joins the same wait.

Transport-level refusals reuse the handlers' error schema, so a client
can always parse ``body["error"]["kind"]``:

* 429 ``shed`` (+ ``Retry-After``) — admission queue full;
* 503 ``queue-timeout`` (+ ``Retry-After``) — queued past the timeout;
* 503 ``draining`` — shutdown in progress;
* 400 ``usage`` — unreadable/oversized/non-JSON body;
* 404/405 ``usage`` — unknown path / wrong method.

The accounting seam is :func:`account` — one call per finished
request, fully gated on ``obs.enabled`` so the disabled service pays
only the flag check (``benchmarks/bench_serve.py`` holds this seam
under 1% of a no-op request).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs import metrics as _obs
from repro.obs.export import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.export import prometheus_text, write_json, write_response
from repro.serve import handlers
from repro.serve.admission import AdmissionGate, Decision
from repro.serve.cache import SpecCache
from repro.serve.handlers import ENDPOINTS, BudgetDefaults

#: Default cap on request bodies; a DTD larger than this is a client
#: error, not a workload.
MAX_BODY_BYTES = 1 << 20


def account(endpoint: str, status: int, elapsed_s: float) -> None:
    """Record one finished request (the benchmarked seam).

    Emits ``serve.requests`` / ``serve.status.<code>`` counters and a
    per-endpoint latency histogram
    (``serve.request.<op>_seconds`` on ``/metrics``).  Must stay a
    single flag check while obs is disabled.
    """
    if not _obs.enabled:
        return
    _obs.inc("serve.requests")
    _obs.inc(f"serve.status.{status}")
    op = endpoint.rsplit("/", 1)[-1] or "root"
    _obs.observe_seconds(f"serve.request.{op}", elapsed_s)


def _refusal(status: int, kind: str, type_name: str,
             message: str) -> dict:
    return {"error": {"type": type_name, "message": message,
                      "status": status, "exit_code": 4
                      if kind in ("shed", "queue-timeout", "draining")
                      else 2, "kind": kind}}


class NormalizationServer:
    """The long-running ``(D, Σ)`` service behind ``xnf serve``.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  A bind failure (port in use, bad host) raises
    ``OSError`` from :meth:`start` — the CLI maps it to the structural
    exit code 2.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1", *,
                 max_inflight: int = 8, max_queue: int = 64,
                 queue_timeout_s: float = 5.0,
                 drain_deadline_s: float = 10.0,
                 cache_capacity: int = 128,
                 defaults: BudgetDefaults | None = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 retry_after_s: int = 1) -> None:
        self.host = host
        self.requested_port = port
        self.drain_deadline_s = drain_deadline_s
        self.max_body_bytes = max_body_bytes
        self.retry_after_s = retry_after_s
        self.gate = AdmissionGate(max_inflight=max_inflight,
                                  max_queue=max_queue,
                                  queue_timeout_s=queue_timeout_s)
        self.cache = SpecCache(capacity=cache_capacity)
        self.defaults = defaults if defaults is not None \
            else BudgetDefaults()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = 0.0
        self._drain_lock = threading.Lock()
        self._drain_result: bool | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "NormalizationServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def do_GET(self) -> None:   # noqa: N802 (http.server API)
                outer._handle_get(self)

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                outer._handle_post(self)

            def log_message(self, *args: Any) -> None:
                return None  # request traffic must not spam stderr

        self._server = ThreadingHTTPServer(
            (self.host, self.requested_port), Handler)
        self._server.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def drain(self, deadline_s: float | None = None) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        Returns ``True`` when every in-flight request completed within
        the deadline.  Idempotent — concurrent/repeated calls share
        one drain and one result.
        """
        if deadline_s is None:
            deadline_s = self.drain_deadline_s
        with self._drain_lock:
            if self._drain_result is None:
                if _obs.enabled:
                    _obs.inc("serve.drain.started")
                # Readiness flips inside drain(); the listener stays up
                # answering 503 until the in-flight work is done.
                clean = self.gate.drain(deadline_s)
                if _obs.enabled:
                    _obs.inc("serve.drain.clean" if clean
                             else "serve.drain.deadline_expired")
                self._close()
                self._drain_result = clean
            return self._drain_result

    def stop(self) -> None:
        """Abortive shutdown for tests: close without draining."""
        self._close()

    def _close(self) -> None:
        server, thread = self._server, self._thread
        if server is None:
            return
        self._server = None
        self._thread = None
        server.shutdown()
        server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "NormalizationServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.server_address[1]

    def url(self, path: str = "") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- control plane -------------------------------------------------

    def _handle_get(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/metrics":
            if _obs.enabled:
                _obs.inc("obs.export.scrapes")
            body = prometheus_text(_obs.snapshot()).encode("utf-8")
            write_response(request, 200, _PROM_CONTENT_TYPE, body)
        elif path == "/healthz":
            payload = {"status": "ok",
                       "draining": self.gate.draining,
                       "uptime_s": round(
                           time.monotonic() - self._started_at, 3)}
            write_json(request, 200, payload)
        elif path == "/readyz":
            if self.gate.draining:
                write_json(request, 503, _refusal(
                    503, "draining", "Draining", "server is draining"))
            else:
                write_json(request, 200, {"status": "ready"})
        elif path in ENDPOINTS:
            write_json(request, 405, _refusal(
                405, "usage", "MethodNotAllowed",
                f"{path} accepts POST only"))
        else:
            write_json(request, 404, _refusal(
                404, "usage", "NotFound",
                "try /v1/implication, /v1/xnf-check, /v1/normalize, "
                "/metrics, /healthz, /readyz"))

    # -- service plane -------------------------------------------------

    def _handle_post(self, request: BaseHTTPRequestHandler) -> None:
        endpoint = request.path.split("?", 1)[0]
        started = time.perf_counter()
        # A response sent before the body is read closes the
        # connection, or the body would be parsed as the next request.
        if endpoint not in ENDPOINTS:
            write_json(request, 404, _refusal(
                404, "usage", "NotFound",
                f"no such endpoint: {endpoint}"), close=True)
            account(endpoint, 404, time.perf_counter() - started)
            return
        # Admission runs before the body is read: shedding an
        # overloaded request must not cost a body parse.  The injected
        # ``serve.admission`` fault surfaces through the same error
        # contract as handler failures.
        try:
            decision = self.gate.admit()
        except BaseException as exc:  # noqa: BLE001 - contract boundary
            status, body = handlers.error_response(
                exc, context=f"admission:{endpoint}")
            write_json(request, status, body, close=True)
            account(endpoint, status, time.perf_counter() - started)
            return
        if decision is not Decision.ADMITTED:
            status, body, headers = self._refuse(decision)
            write_json(request, status, body, headers=headers,
                       close=True)
            account(endpoint, status, time.perf_counter() - started)
            return
        try:
            payload, parse_error = self._read_json(request)
            if parse_error is not None:
                status, body = parse_error
            else:
                status, body = handlers.handle(
                    endpoint, payload, cache=self.cache,
                    defaults=self.defaults)
            # The permit must outlive the response write: a drain
            # completes only once every admitted request has put its
            # answer on the wire — releasing earlier lets the process
            # exit mid-write and tear the reply.
            write_json(request, status, body,
                       close=parse_error is not None)
        finally:
            self.gate.release()
        account(endpoint, status, time.perf_counter() - started)

    def _refuse(self, decision: Decision,
                ) -> tuple[int, dict, dict[str, str]]:
        retry = {"Retry-After": str(self.retry_after_s)}
        if decision is Decision.SHED:
            return 429, _refusal(
                429, "shed", "Overloaded",
                f"admission queue full "
                f"({self.gate.max_queue} waiting)"), retry
        if decision is Decision.TIMEOUT:
            return 503, _refusal(
                503, "queue-timeout", "QueueTimeout",
                f"queued longer than "
                f"{self.gate.queue_timeout_s}s"), retry
        return 503, _refusal(503, "draining", "Draining",
                             "server is draining"), {}

    def _read_json(self, request: BaseHTTPRequestHandler,
                   ) -> tuple[Any, tuple[int, dict] | None]:
        """The parsed body, or ``(None, (status, error_body))``."""
        try:
            length = int(request.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return None, (400, _refusal(
                400, "usage", "BadRequest",
                "missing or invalid Content-Length"))
        if length > self.max_body_bytes:
            return None, (400, _refusal(
                400, "usage", "BadRequest",
                f"body exceeds {self.max_body_bytes} bytes"))
        raw = request.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, (400, _refusal(
                400, "usage", "BadRequest",
                f"request body is not valid JSON: {exc}"))
