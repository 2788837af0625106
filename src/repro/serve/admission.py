"""Bounded admission control for the normalization service.

The service runs on a thread-per-connection HTTP server, so without a
gate an overload melts into unbounded concurrency: every queued socket
gets a thread, every thread contends for the GIL, and tail latency
collapses for *all* callers.  :class:`AdmissionGate` bounds both
dimensions explicitly:

* at most ``max_inflight`` requests execute concurrently — the rest
  wait;
* at most ``max_queue`` requests wait — past that depth new arrivals
  are **shed** immediately (HTTP 429 + ``Retry-After``) instead of
  being queued into a latency cliff;
* a waiter that outlives ``queue_timeout_s`` is bounced (HTTP 503):
  a queue that old is a stall, and holding the socket longer only
  hides it;
* once :meth:`drain` flips the gate, new arrivals and current waiters
  are refused (HTTP 503) while the in-flight requests finish — the
  graceful-shutdown half of the contract.

Decisions are returned, not raised: the HTTP layer maps each
:class:`Decision` to its status/headers, and the counters
(``serve.admitted`` / ``serve.shed`` / ``serve.queue.timeout`` /
``serve.drain.refused``, plus ``serve.inflight`` / ``serve.queue.depth``
gauges) come from this module so every path is accounted exactly once.

Fault site ``serve.admission`` fires on every :meth:`admit` before any
state changes, so an injected fault never leaks a permit.
"""

from __future__ import annotations

import threading
import time
from enum import Enum

from repro.faults import plan as _faults
from repro.obs import metrics as _obs

_SITE_ADMISSION = _faults.register_site(
    "serve.admission", "serve",
    "request admission, before any queue/inflight accounting")


class Decision(Enum):
    """The outcome of one admission attempt."""

    ADMITTED = "admitted"
    SHED = "shed"              # queue already max_queue deep -> 429
    TIMEOUT = "timeout"        # waited queue_timeout_s -> 503
    DRAINING = "draining"      # shutdown in progress -> 503


class AdmissionGate:
    """Counting gate: ``max_inflight`` running, ``max_queue`` waiting.

    Thread-safe; one instance guards all endpoints of a server.  Use::

        decision = gate.admit()
        if decision is Decision.ADMITTED:
            try:
                ...handle...
            finally:
                gate.release()
    """

    def __init__(self, *, max_inflight: int = 8, max_queue: int = 64,
                 queue_timeout_s: float = 5.0,
                 clock=time.monotonic) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if queue_timeout_s <= 0:
            raise ValueError("queue_timeout_s must be positive")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.queue_timeout_s = queue_timeout_s
        self._clock = clock
        # ``with self._lock`` rather than ``with self._cond``: the same
        # lock, without a Python-level call on every admit and release.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._inflight = 0
        self._waiting = 0
        self._draining = False

    # -- introspection -------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._waiting

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- admission -----------------------------------------------------

    def admit(self) -> Decision:
        """Try to enter; may block up to ``queue_timeout_s``."""
        if _faults.active:
            _faults.fire(_SITE_ADMISSION)
        with self._lock:
            if self._draining:
                self._count("serve.drain.refused")
                return Decision.DRAINING
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self._account()
                self._count("serve.admitted")
                return Decision.ADMITTED
            if self._waiting >= self.max_queue:
                self._count("serve.shed")
                return Decision.SHED
            self._waiting += 1
            self._account()
            deadline = self._clock() + self.queue_timeout_s
            try:
                while True:
                    if self._draining:
                        self._count("serve.drain.refused")
                        return Decision.DRAINING
                    if self._inflight < self.max_inflight:
                        self._inflight += 1
                        self._count("serve.admitted")
                        return Decision.ADMITTED
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        self._count("serve.queue.timeout")
                        return Decision.TIMEOUT
                    self._cond.wait(remaining)
            finally:
                self._waiting -= 1
                self._account()

    def release(self) -> None:
        """Leave the in-flight set (only after an ``ADMITTED``)."""
        with self._lock:
            self._inflight -= 1
            self._account()
            if self._waiting or self._draining:
                # Only queued admits and a drain ever wait on the gate.
                self._cond.notify_all()

    # -- drain ---------------------------------------------------------

    def drain(self, deadline_s: float) -> bool:
        """Refuse new work and wait for in-flight requests to finish.

        Returns ``True`` when the last in-flight request completed
        within ``deadline_s``, ``False`` when the deadline expired
        first (the caller decides whether to abandon them).
        Idempotent: a second call (mid-drain SIGTERM) just joins the
        same wait.
        """
        with self._lock:
            self._draining = True
            self._cond.notify_all()  # bounce the current waiters
            deadline = self._clock() + deadline_s
            while self._inflight > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # -- accounting ----------------------------------------------------

    def _account(self) -> None:
        # Callers hold the lock; gauges publish queue pressure for
        # /metrics scrapes mid-run.
        if _obs.enabled:
            _obs.set_gauge("serve.inflight", self._inflight)
            _obs.set_gauge("serve.queue.depth", self._waiting)

    @staticmethod
    def _count(name: str) -> None:
        if _obs.enabled:
            _obs.inc(name)
