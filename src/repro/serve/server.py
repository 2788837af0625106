"""The HTTP transport of ``xnf serve``.

:class:`NormalizationServer` is the :class:`repro.obs.export.
MetricsExporter` — the one listener: its bind, daemon serving thread,
one handler thread per keep-alive connection, one-``sendall`` responses
on ``TCP_NODELAY`` sockets, ``GET /metrics`` and ``GET /healthz`` —
plus the service plane, all on a single port:

* ``POST /v1/implication`` / ``/v1/xnf-check`` / ``/v1/normalize``
  with JSON bodies, each request passing the
  :class:`~repro.serve.admission.AdmissionGate` before its body is even
  read (shedding must stay cheap under overload) and then running
  through the pure handlers in :mod:`repro.serve.handlers` under its
  own limits, installed on its handler thread;
* ``GET /readyz`` (readiness: 503 the instant a drain starts, so load
  balancers stop routing before the listener goes away) and the
  ``draining`` field of ``GET /healthz`` (liveness: 200 for the whole
  process lifetime, draining included).

Shutdown is :meth:`NormalizationServer.drain`: flip the gate (new
work refused with 503, queued waiters bounced), wait for in-flight
requests up to the drain deadline, then close the listener.  It is
idempotent — a second SIGTERM mid-drain joins the same wait.

Transport-level refusals reuse the handlers' error schema, so a client
can always parse ``body["error"]["kind"]``:

* 429 ``shed`` (+ ``Retry-After``) — admission queue full;
* 503 ``queue-timeout`` (+ ``Retry-After``) — queued past the timeout;
* 503 ``draining`` — shutdown in progress;
* 400 ``usage`` — unreadable/oversized/non-JSON body, or a body that
  has not fully arrived within the admission queue timeout (the
  connection closes, which frees its permit);
* 404/405 ``usage`` — unknown path / wrong method.

The accounting seam is :func:`account` — one call per finished
request, fully gated on ``obs.enabled`` so the disabled service pays
only the flag check (the ``serve`` gate of ``python -m
repro.bench.seams`` holds it, with the admission round trip, under 1%
of the cheapest keep-alive request).
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.guard import Limits
from repro.obs import metrics as _obs
from repro.obs.export import MetricsExporter, write_json
from repro.serve import handlers
from repro.serve.admission import AdmissionGate, Decision
from repro.serve.cache import SpecCache
from repro.serve.handlers import ENDPOINTS, BudgetDefaults

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler

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


class NormalizationServer(MetricsExporter):
    """The long-running ``(D, Σ)`` service behind ``xnf serve``.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  A bind failure (port in use, bad host) raises
    ``OSError`` from :meth:`start` — the CLI maps it to the structural
    exit code 2.  :meth:`stop` closes without draining (tests);
    :meth:`drain` is the graceful shutdown.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1", *,
                 max_inflight: int = 8, max_queue: int = 64,
                 queue_timeout_s: float = 5.0,
                 drain_deadline_s: float = 10.0,
                 cache_capacity: int = 128,
                 defaults: Limits | None = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 retry_after_s: int = 1) -> None:
        super().__init__(port, host)
        self.drain_deadline_s = drain_deadline_s
        self.max_body_bytes = max_body_bytes
        self.retry_after_s = retry_after_s
        self.gate = AdmissionGate(max_inflight=max_inflight,
                                  max_queue=max_queue,
                                  queue_timeout_s=queue_timeout_s)
        self.cache = SpecCache(capacity=cache_capacity)
        self.defaults = defaults if defaults is not None \
            else BudgetDefaults()
        self._drain_lock = threading.Lock()
        self._drain_result: bool | None = None

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
                self.stop()
                self._drain_result = clean
            return self._drain_result

    # -- control plane -------------------------------------------------

    def _handle_get(self, request: BaseHTTPRequestHandler,
                    path: str) -> None:
        if path == "/readyz":
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
            super()._handle_get(request, path)

    def _health(self) -> dict:
        return {**super()._health(), "draining": self.gate.draining}

    def _not_found(self, request: BaseHTTPRequestHandler) -> None:
        write_json(request, 404, _refusal(
            404, "usage", "NotFound",
            "try /v1/implication, /v1/xnf-check, /v1/normalize, "
            "/metrics, /healthz, /readyz"))

    # -- service plane -------------------------------------------------

    def _handle_post(self, request: BaseHTTPRequestHandler,
                     endpoint: str) -> None:
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
        # The permit is held while the body arrives, so the whole body
        # gets one deadline (an idle keep-alive wait is not cut).
        sock = request.connection
        idle_timeout = sock.gettimeout()
        deadline = time.monotonic() + self.gate.queue_timeout_s
        raw = bytearray()
        try:
            while len(raw) < length:
                sock.settimeout(max(deadline - time.monotonic(), 1e-3))
                chunk = request.rfile.read1(length - len(raw))
                if not chunk:                       # EOF: a short body
                    break
                raw += chunk
        except TimeoutError:
            return None, (400, _refusal(
                400, "usage", "BadRequest",
                f"request body not received within "
                f"{self.gate.queue_timeout_s}s ({len(raw)} of its "
                f"{length} declared byte(s) arrived)"))
        finally:
            sock.settimeout(idle_timeout)
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, (400, _refusal(
                400, "usage", "BadRequest",
                f"request body is not valid JSON: {exc}"))
