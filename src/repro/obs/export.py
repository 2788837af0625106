"""Prometheus text-format export and the background ``/metrics`` server.

Two layers, both stdlib-only:

* :func:`prometheus_text` — a **deterministic** renderer from an
  :func:`repro.obs.metrics.snapshot` to Prometheus exposition format
  (version 0.0.4).  Counters become ``<name>_total`` counter families,
  gauges stay gauges, histograms and timers become *summary* families
  (``{quantile="0.5|0.95|0.99"}`` series plus ``_sum``/``_count``) with
  ``_min``/``_max`` gauge companions.  Unit handling never guesses:
  the snapshot's per-summary ``unit`` field decides whether a family
  gets the ``_seconds`` suffix (timers) or none (plain histograms).
  Families are emitted key-sorted and values formatted by type, so the
  same snapshot always renders to the same bytes, regardless of
  ``PYTHONHASHSEED`` or dict insertion order.

* :class:`MetricsExporter` — a daemon-thread
  :class:`http.server.ThreadingHTTPServer` serving ``GET /metrics``
  (the rendered live snapshot) and ``GET /healthz`` (a JSON liveness
  probe), bound to localhost by default.  This is the scrape surface
  behind ``xnf --metrics-port N`` — the first brick of ``xnf serve``:
  while a long batch runs, the exporter publishes the ``runtime.*``
  counters and heartbeat gauges in flight instead of only at exit.

Every scrape increments the ``obs.export.scrapes`` counter (visible in
the next scrape — the exporter observes itself).
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.obs import metrics as _metrics

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: The exposition-format content type served on ``/metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The quantiles a summary family exports (matching the snapshot's
#: ``p50``/``p95``/``p99`` keys).
QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, suffix: str = "") -> str:
    """Map a dotted obs name to a valid Prometheus metric name.

    ``implication.cache.hit`` -> ``implication_cache_hit``; characters
    outside ``[a-zA-Z0-9_:]`` are folded to ``_`` and a leading digit
    gets a ``_`` prefix.
    """
    base = _INVALID_CHARS.sub("_", name)
    if not base or base[0].isdigit():
        base = "_" + base
    return base + suffix


def format_value(value: Any) -> str:
    """One sample value, deterministically.

    Integers render as integers; floats via ``repr`` (shortest
    round-trip, stable across platforms and hash seeds); non-finite
    floats use the exposition-format spellings.
    """
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


def _summary_family(family: str, stats: dict) -> list[str]:
    """The exposition lines of one summary (histogram/timer) family."""
    lines = [f"# TYPE {family} summary"]
    for quantile, key in QUANTILES:
        lines.append(f'{family}{{quantile="{quantile}"}} '
                     f"{format_value(stats.get(key, 0.0))}")
    lines.append(f"{family}_sum {format_value(stats.get('total', 0.0))}")
    lines.append(f"{family}_count {format_value(stats.get('count', 0))}")
    for extreme in ("min", "max"):
        lines.append(f"# TYPE {family}_{extreme} gauge")
        lines.append(f"{family}_{extreme} "
                     f"{format_value(stats.get(extreme, 0.0))}")
    return lines


def prometheus_text(snapshot: dict) -> str:
    """Render a metrics snapshot as Prometheus exposition text.

    Deterministic: families sorted by exported name, fixed line order
    within a family, type-stable value formatting.  The ``unit`` field
    of each histogram/timer summary (snapshot schema v2) selects the
    family suffix — ``"seconds"`` appends ``_seconds``; pre-v2
    snapshots fall back to the section default (timers are seconds).
    """
    families: list[tuple[str, list[str]]] = []

    for name, value in snapshot.get("counters", {}).items():
        family = metric_name(name, "_total")
        families.append((family, [f"# TYPE {family} counter",
                                  f"{family} {format_value(value)}"]))

    for name, value in snapshot.get("gauges", {}).items():
        family = metric_name(name)
        families.append((family, [f"# TYPE {family} gauge",
                                  f"{family} {format_value(value)}"]))

    for section, default_unit in (("histograms", _metrics.UNIT_NONE),
                                  ("timers", _metrics.UNIT_SECONDS)):
        for name, stats in snapshot.get(section, {}).items():
            unit = stats.get("unit", default_unit)
            suffix = "_seconds" if unit == _metrics.UNIT_SECONDS else ""
            family = metric_name(name, suffix)
            families.append((family, _summary_family(family, stats)))

    lines: list[str] = []
    for _, family_lines in sorted(families):
        lines.extend(family_lines)
    return "\n".join(lines) + "\n" if lines else ""


def write_response(request: BaseHTTPRequestHandler, status: int,
                   content_type: str, body: bytes, *,
                   headers: dict[str, str] | None = None,
                   close: bool = False) -> None:
    """Send status line, headers and body with one ``sendall``: sent
    apart, the body waits for the client's ~40 ms delayed ACK of the
    headers.  ``close`` ends the connection after this response."""
    fields = {"Server": request.version_string(),
              "Date": request.date_time_string(),
              "Content-Type": content_type,
              "Content-Length": len(body), **(headers or {})}
    if close:
        fields["Connection"] = "close"
        request.close_connection = True
    lines = [f"{request.protocol_version} {status} "
             f"{request.responses[status][0]}"]
    lines += [f"{name}: {value}" for name, value in fields.items()]
    try:
        request.connection.sendall(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    except (BrokenPipeError, ConnectionResetError):
        request.close_connection = True  # the client went away


def write_json(request: BaseHTTPRequestHandler, status: int,
               payload: dict, **options: Any) -> None:
    """:func:`write_response` of ``payload`` as key-sorted JSON."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    write_response(request, status, "application/json", body, **options)


class MetricsExporter:
    """A background HTTP server exposing the live metrics registry.

    ``GET /metrics`` renders :func:`repro.obs.metrics.snapshot` (or a
    caller-supplied ``snapshot_fn``) through :func:`prometheus_text`;
    ``GET /healthz`` answers ``{"status": "ok", "uptime_s": ...}``.
    Binds ``host:port`` (``port=0`` picks a free ephemeral port — read
    :attr:`port` after :meth:`start`).  The serving thread is a daemon,
    so a crashed main thread never hangs on it; call :meth:`stop` for
    an orderly shutdown.  Usable as a context manager.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1", *,
                 snapshot_fn: Callable[[], dict] | None = None) -> None:
        self.host = host
        self.requested_port = port
        self._snapshot = snapshot_fn if snapshot_fn is not None \
            else _metrics.snapshot
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "MetricsExporter":
        """Bind the socket and start serving in a daemon thread."""
        if self._server is not None:
            raise RuntimeError("exporter already started")
        # Imported here: http.server drags in http.client, email and
        # ssl, which every cold CLI command would otherwise pay for.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            disable_nagle_algorithm = True

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                exporter._handle(self)

            def log_message(self, *args: Any) -> None:
                return None  # scrape traffic must not spam stderr

        self._server = ThreadingHTTPServer((self.host,
                                            self.requested_port), Handler)
        self._server.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-obs-exporter", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` requests)."""
        if self._server is None:
            raise RuntimeError("exporter not started")
        return self._server.server_address[1]

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- request handling ----------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/metrics":
            _metrics.inc("obs.export.scrapes")
            body = prometheus_text(self._snapshot()).encode("utf-8")
            write_response(request, 200, CONTENT_TYPE, body)
        elif path == "/healthz":
            write_json(request, 200, {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self._started_at, 3)})
        else:
            body = b"not found: try /metrics or /healthz\n"
            write_response(request, 404, "text/plain; charset=utf-8",
                           body)


def start_exporter(port: int = 0, host: str = "127.0.0.1", *,
                   snapshot_fn: Callable[[], dict] | None = None,
                   ) -> MetricsExporter:
    """Start a :class:`MetricsExporter` and return it (already bound)."""
    return MetricsExporter(port, host, snapshot_fn=snapshot_fn).start()
