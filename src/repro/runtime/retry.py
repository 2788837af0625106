"""Deterministic retry with exponential backoff and seeded jitter.

A batch runner that retries must answer two questions per failure:
*is this worth retrying?* and *how long to wait?*  Both answers here
are deterministic, because the whole batch runtime is replayable under
:mod:`repro.faults` — two runs of the same manifest with the same
fault plan must produce byte-identical summaries.

**Classification** (:func:`is_transient`): an error is worth retrying
when a repeat of the same attempt could plausibly end differently.

* :class:`~repro.errors.InjectedFault` and
  :class:`~repro.errors.InjectedAllocationFailure` — transient by
  construction: a :class:`~repro.faults.FaultArm` fires once and never
  again, the deterministic model of "the flaky thing happened".
* :class:`~repro.errors.ResourceExhausted` with ``limit="injected"``
  (a planted exhaustion) or ``limit="deadline"`` (wall-clock, so
  load-dependent) — transient.
* :class:`~repro.errors.ResourceExhausted` on a *counted* limit
  (``steps`` / ``branches`` / ``nodes``) — **permanent**: the engines
  are deterministic, so the same budget buys the same trip.
* :class:`~repro.errors.WorkerCrash` — **transient**: the death of a
  pool worker (signal, OOM kill, corrupted result pipe, a stall with
  no ping) says something about the environment, not necessarily about
  the task, so the supervisor requeues it — under its *own* crash
  budget, so a task that deterministically kills every worker it
  lands on still dead-letters (reason ``worker_crash``) rather than
  looping forever.
* Every other :class:`~repro.errors.ReproError` (parse failures,
  invalid FDs, unsupported features, ensemble disagreements) —
  permanent: the input itself is the problem.

**Backoff** (:meth:`RetryPolicy.delay_ms`): exponential with
full-decorrelation jitter, ``base * 2^attempt * U[0.5, 1.5)``, where
the uniform draw comes from ``random.Random`` seeded with
``(policy seed, task id, attempt)`` — never from the wall clock, never
from a shared generator whose state would depend on scheduling order.
Two batches with the same seed plan the same delays; two tasks in one
batch still spread out (their ids differ).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    FaultError,
    ReproError,
    ResourceExhausted,
    WorkerCrash,
)

#: ``ResourceExhausted.limit`` values considered transient.
TRANSIENT_LIMITS = ("injected", "deadline")


def is_transient(error: ReproError) -> bool:
    """Whether a repeat of the same attempt could end differently."""
    if isinstance(error, FaultError):
        return True
    if isinstance(error, WorkerCrash):
        return True
    if isinstance(error, ResourceExhausted):
        return error.limit in TRANSIENT_LIMITS
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait in between.

    ``retries`` counts *re*-attempts: a task runs at most
    ``retries + 1`` times.  ``backoff_base_ms`` of 0 disables waiting
    (useful in tests and when faults are known to be injected).
    """

    retries: int = 2
    backoff_base_ms: float = 100.0
    multiplier: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(
                f"retries must be >= 0, got {self.retries}")
        if self.backoff_base_ms < 0:
            raise ValueError("backoff_base_ms must be >= 0, "
                             f"got {self.backoff_base_ms}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def to_json(self) -> dict:
        """The policy as the journal's meta record and the batch
        summary both pin it."""
        return {"retries": self.retries,
                "backoff_base_ms": self.backoff_base_ms,
                "multiplier": self.multiplier, "seed": self.seed}

    def should_retry(self, error: ReproError, attempt: int) -> bool:
        """Whether to re-run after ``attempt`` (0-based) failed with
        ``error``."""
        return attempt + 1 < self.max_attempts and is_transient(error)

    def delay_ms(self, task_id: str, attempt: int) -> float:
        """The planned wait before re-running after failed ``attempt``.

        Deterministic: the jitter factor is drawn from a generator
        seeded with ``(seed, task_id, attempt)`` — the task's identity,
        never the wall clock.
        """
        if self.backoff_base_ms == 0:
            return 0.0
        rng = random.Random(f"{self.seed}:{task_id}:{attempt}")
        jitter = 0.5 + rng.random()  # U[0.5, 1.5)
        return self.backoff_base_ms * (self.multiplier ** attempt) * jitter
