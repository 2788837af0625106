"""Per-fault-site circuit breakers: stop paying for known-bad sites.

When one fault site fails task after task (a systematically broken
spec corpus entry, a planted repeated fault, an engine bug), spending
the full retry/backoff budget on every affected task multiplies the
damage.  The classic remedy is a circuit breaker; ours is keyed by
**failure signature** — the fault site of a
:class:`~repro.errors.FaultError`, ``guard.<limit>`` for a
:class:`~repro.errors.ResourceExhausted`, the exception type name
otherwise — so one pathological site cannot open the breaker for
unrelated failures.

State machine (deterministic, counted in events — never wall clock)::

            failure x threshold                  probe failure
    CLOSED ---------------------> OPEN <------------------------+
       ^                            | skip retries,              |
       |                            | dead-letter directly       |
       | success                    | (skip-and-record)          |
       |                            v                            |
       +------------------- HALF_OPEN  (every probe_interval-th  |
          probe succeeds            skip admits one full-retry --+
                                    probe)

* **CLOSED** — failures are retried normally; ``threshold``
  *consecutive* exhausted-retry failures with the same signature trip
  the breaker (a success resets the count).
* **OPEN** — a task failing with this signature skips its retry
  budget: it is dead-lettered on the first failure, marked
  ``breaker_open`` (degrade, don't abort — the batch keeps going).
* **HALF_OPEN** — every ``probe_interval``-th skipped task is admitted
  as a probe with its full retry budget; a probe that succeeds closes
  the breaker, one that fails re-opens it.

The registry (:class:`BreakerBoard`) is per-batch state, reported in
the batch summary so an operator can see *which* site burned down and
how often it was probed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    FaultError,
    ReproError,
    ResourceExhausted,
    WorkerCrash,
)
from repro.obs import metrics as _obs

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


def failure_signature(error: ReproError) -> str:
    """The breaker key of one failure.

    Faults group by their injection site, budget trips by the tripped
    limit, worker crashes by their detection source (the signal name,
    the exit code, a corrupted result pipe, a heartbeat stall),
    everything else by exception type — the granularity at which "this
    keeps happening" is meaningful.
    """
    if isinstance(error, FaultError):
        return f"site:{error.site}"
    if isinstance(error, WorkerCrash):
        return f"crash:{error.detail}"
    if isinstance(error, ResourceExhausted):
        return f"guard:{error.limit}"
    return f"error:{type(error).__name__}"


@dataclass
class Breaker:
    """The per-signature state machine (see the module docstring)."""

    signature: str
    threshold: int = 5
    probe_interval: int = 8
    state: str = CLOSED
    consecutive_failures: int = 0
    #: Tasks dead-lettered without retries while OPEN.
    skips: int = 0
    #: Skips since the breaker last opened (drives probe admission).
    _skips_since_open: int = field(default=0, repr=False)
    trips: int = 0
    probes: int = 0
    #: Back-reference set by :meth:`BreakerBoard.get`, so state
    #: transitions can refresh the board-level ``runtime.breaker.open``
    #: gauge.
    _board: "BreakerBoard | None" = field(default=None, repr=False,
                                          compare=False)

    def _transition(self, new_state: str) -> None:
        """Move to ``new_state``, emitting the transition telemetry.

        Every *change* of state increments
        ``runtime.breaker.transitions.<state>`` (state names use
        underscores: ``closed`` / ``open`` / ``half_open``) and
        refreshes the board's open-breaker gauge; re-asserting the
        current state emits nothing.
        """
        if new_state == self.state:
            return
        self.state = new_state
        if _obs.enabled:
            _obs.inc("runtime.breaker.transitions."
                     + new_state.replace("-", "_"))
            if self._board is not None:
                self._board.publish_open_gauge()

    def allows_retries(self) -> bool:
        """Whether the next failing task may spend its retry budget.

        While OPEN, every ``probe_interval``-th admission request is
        let through as a HALF_OPEN probe; the rest are told to skip.
        """
        if self.refuses():
            return False
        if self.state == OPEN:  # due a probe
            self._transition(HALF_OPEN)
            self.probes += 1
            if _obs.enabled:
                _obs.inc("runtime.breaker.probes")
        return True  # HALF_OPEN: the probe in flight retries fully

    def refuses(self) -> bool:
        """Whether :meth:`allows_retries` would say no right now: OPEN
        and not yet due a probe.  Unlike that call, a pure read."""
        return self.state == OPEN \
            and self._skips_since_open < self.probe_interval

    def record_skip(self) -> None:
        """A task was dead-lettered without retries (breaker open)."""
        self.skips += 1
        self._skips_since_open += 1
        if _obs.enabled:
            _obs.inc("runtime.breaker.skips")

    def record_success(self) -> None:
        """A task with work at this signature ultimately succeeded."""
        if self.state == HALF_OPEN and _obs.enabled:
            _obs.inc("runtime.breaker.closes")
        self._transition(CLOSED)
        self.consecutive_failures = 0
        self._skips_since_open = 0

    def record_failure(self) -> None:
        """A task ultimately failed here after exhausting retries."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # The probe failed: straight back to OPEN.
            self._transition(OPEN)
            self._skips_since_open = 0
            return
        if self.state == CLOSED \
                and self.consecutive_failures >= self.threshold:
            self._transition(OPEN)
            self._skips_since_open = 0
            self.trips += 1
            if _obs.enabled:
                _obs.inc("runtime.breaker.trips")

    def snapshot(self) -> dict:
        """The JSON-ready summary entry for this breaker."""
        return {"state": self.state, "trips": self.trips,
                "skips": self.skips, "probes": self.probes,
                "consecutive_failures": self.consecutive_failures}


class BreakerBoard:
    """All breakers of one batch run, created on first failure."""

    def __init__(self, *, threshold: int = 5,
                 probe_interval: int = 8) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if probe_interval < 1:
            raise ValueError(
                f"probe_interval must be >= 1, got {probe_interval}")
        self.threshold = threshold
        self.probe_interval = probe_interval
        self._breakers: dict[str, Breaker] = {}

    def get(self, signature: str) -> Breaker:
        breaker = self._breakers.get(signature)
        if breaker is None:
            breaker = Breaker(signature=signature,
                              threshold=self.threshold,
                              probe_interval=self.probe_interval,
                              _board=self)
            self._breakers[signature] = breaker
        return breaker

    def refused(self) -> frozenset[str]:
        """The *refused set*: the signatures whose next failing task
        must skip its retries (:meth:`Breaker.refuses`).  A pure read,
        so a task can be handed it at dispatch."""
        return frozenset(signature for signature, breaker
                         in self._breakers.items() if breaker.refuses())

    def state_counts(self) -> dict[str, int]:
        """How many breakers sit in each state right now."""
        counts = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        for breaker in self._breakers.values():
            counts[breaker.state] += 1
        return counts

    def publish_open_gauge(self) -> None:
        """Refresh the ``runtime.breaker.open`` gauge (count of
        breakers currently OPEN); called on every state transition."""
        _obs.set_gauge("runtime.breaker.open",
                       sum(1 for breaker in self._breakers.values()
                           if breaker.state == OPEN))

    def snapshot(self) -> dict[str, dict]:
        """Only breakers that saw at least one failure, key-sorted."""
        return {signature: breaker.snapshot()
                for signature, breaker
                in sorted(self._breakers.items())}
