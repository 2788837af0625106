"""A seeded load generator for the normalization service.

Drives :func:`repro.runtime.corpus.iter_tasks` — the same
deterministic spec corpus the batch runtime executes — through the
HTTP API from ``concurrency`` client threads, and reports throughput
plus latency quantiles.  Used two ways:

* the CI ``serve-smoke`` job — live traffic while ``/metrics`` and
  ``/readyz`` are scraped and a SIGTERM lands mid-run, asserting no
  accepted request is ever lost;
* ``python -m repro.serve.loadgen URL`` — ad-hoc load from a shell.

Each client thread keeps one persistent HTTP/1.1 connection, as real
clients do, and reconnects after a ``Connection: close`` reply or a
transport error.  Every response is classified, never dropped
silently: 2xx/4xx/5xx land in :attr:`LoadReport.statuses`, transport
failures (connection refused/reset — the listener went away
mid-request — or a reply torn mid-body) in :attr:`LoadReport.lost`.
A clean drain must show ``lost == 0``: a draining server refuses with
503, it never kills an accepted request.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.runtime.corpus import iter_tasks

#: Corpus operation -> service endpoint.
OP_ENDPOINTS = {"implies": "/v1/implication",
                "check": "/v1/xnf-check",
                "normalize": "/v1/normalize"}


def task_request(task: dict) -> tuple[str, dict]:
    """Map one corpus task dict to ``(endpoint, json_payload)``."""
    endpoint = OP_ENDPOINTS[task["op"]]
    payload = {"dtd": task["dtd_text"], "fds": task["fds_text"]}
    if task["op"] == "implies":
        payload["fd"] = task["fd"]
    return endpoint, payload


def percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(quantile * len(ordered))) - 1))
    return ordered[rank]


@dataclass
class LoadReport:
    """What one load run observed."""

    sent: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    #: Transport-level failures: connection refused/reset, timeouts.
    lost: int = 0
    wall_s: float = 0.0
    #: Latencies (seconds) of requests that got *any* HTTP response.
    latencies: list[float] = field(default_factory=list)
    #: Latencies of accepted (2xx) responses only.
    accepted_latencies: list[float] = field(default_factory=list)

    def count(self, *, status_class: int | None = None) -> int:
        """Responses seen, optionally restricted to one class (2 ->
        2xx, ...)."""
        return sum(count for status, count in self.statuses.items()
                   if status_class is None
                   or status // 100 == status_class)

    def throughput_rps(self) -> float:
        return self.count() / self.wall_s if self.wall_s > 0 else 0.0

    def quantiles(self, *, accepted_only: bool = True,
                  ) -> dict[str, float]:
        values = sorted(self.accepted_latencies if accepted_only
                        else self.latencies)
        if not values:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {"p50": percentile(values, 0.50),
                "p95": percentile(values, 0.95),
                "p99": percentile(values, 0.99)}

    def summary(self) -> dict:
        """A JSON-ready digest (what ``__main__`` prints)."""
        return {
            "sent": self.sent,
            "responses": {str(status): count for status, count
                          in sorted(self.statuses.items())},
            "lost": self.lost,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": round(self.throughput_rps(), 2),
            "latency": {name: round(value, 5) for name, value
                        in self.quantiles().items()},
        }


def run_load(base_url: str, *, requests: int = 100, seed: int = 7,
             concurrency: int = 4, timeout_s: float = 30.0,
             budget: dict | None = None) -> LoadReport:
    """Fire ``requests`` corpus tasks at ``base_url`` and report.

    Deterministic workload (``seed`` feeds the corpus generator);
    wall-clock numbers of course are not.  ``budget``, when given, is
    attached to every request body (client-side tightening).
    """
    url = urlsplit(base_url)
    prefix = url.path.rstrip("/")
    tasks = iter_tasks(requests, seed=seed)
    lock = threading.Lock()
    report = LoadReport()

    def next_task() -> dict | None:
        with lock:
            return next(tasks, None)

    def record(status: int | None, elapsed: float) -> None:
        with lock:
            if status is None:
                report.lost += 1
                return
            report.statuses[status] = report.statuses.get(status, 0) + 1
            report.latencies.append(elapsed)
            if 200 <= status < 300:
                report.accepted_latencies.append(elapsed)

    def worker() -> None:
        conn = http.client.HTTPConnection(url.netloc, timeout=timeout_s)
        try:
            while (task := next_task()) is not None:
                endpoint, payload = task_request(task)
                if budget:
                    payload["budget"] = budget
                body = json.dumps(payload).encode("utf-8")
                started = time.perf_counter()
                try:
                    conn.request("POST", prefix + endpoint, body=body,
                                 headers={"Content-Type":
                                          "application/json"})
                    response = conn.getresponse()
                    response.read()
                except (OSError, http.client.HTTPException):
                    # HTTPException covers IncompleteRead: a reply torn
                    # mid-body is a lost request, not a worker crash.
                    # The next request reconnects.
                    conn.close()
                    record(None, time.perf_counter() - started)
                    continue
                record(response.status, time.perf_counter() - started)
                if response.will_close:
                    conn.close()
        finally:
            conn.close()

    report.sent = requests
    threads = [threading.Thread(target=worker,
                                name=f"repro-loadgen-{index}")
               for index in range(max(1, concurrency))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - started
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Drive the seeded corpus through an xnf serve "
                    "instance and print a JSON load report.")
    parser.add_argument("url", help="base URL, e.g. http://127.0.0.1:8300")
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--timeout", type=float, default=30.0)
    args = parser.parse_args(argv)
    report = run_load(args.url, requests=args.requests, seed=args.seed,
                      concurrency=args.concurrency,
                      timeout_s=args.timeout)
    json.dump(report.summary(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if report.lost == 0 else 1


if __name__ == "__main__":   # pragma: no cover - exercised in CI
    sys.exit(main())
