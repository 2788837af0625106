"""``repro.runtime`` — the crash-tolerant batch execution layer.

Built in this order, each piece usable on its own:

* :mod:`~repro.runtime.manifest` — declarative batch manifests, one
  :class:`~repro.runtime.manifest.Manifest` for both layouts: a JSON
  document validated whole before the first task runs
  (:class:`~repro.errors.ManifestError` → exit 2), or the lazy
  ``.jsonl`` stream for 100k-task corpora;
* :mod:`~repro.runtime.retry` — transient/permanent classification and
  seeded exponential-backoff jitter (deterministic, replayable);
* :mod:`~repro.runtime.breaker` — per-failure-signature circuit
  breakers with count-based probing;
* :mod:`~repro.runtime.batch` — the runner tying them together under
  the zero-task-loss invariant, with dead-letter reports, a pluggable
  execution backend and one commit path that settles breakers in
  index order; each task runs under its own session of the
  differential engine ensemble (:mod:`repro.fd.ensemble`) when it can
  reach it;
* :mod:`~repro.runtime.pool` — the supervised process-pool backend:
  parallel execution with crash detection, task requeue, and commits
  in index order, so its report is byte-identical to the serial one;
* :mod:`~repro.runtime.journal` — the journal behind ``--journal`` /
  ``--resume``: one result record per committed task, from which a
  resume rebuilds its :class:`~repro.runtime.batch.TaskOutcome` and
  runs every task without one;
* :mod:`~repro.runtime.corpus` — seeded spec-corpus generation for
  chaos and acceptance runs (streamable at any size).

The CLI front door is ``xnf batch MANIFEST`` (see ``repro.cli``).  A
run's live progress is its metrics: the ``runtime.*`` counters and
gauges, which ``--metrics-port`` serves while it runs, against the
``runtime.batch.tasks.total`` gauge the runner sets once per run.
"""

from __future__ import annotations

from repro.runtime.batch import BatchRunner, SerialBackend, run_batch
from repro.runtime.breaker import BreakerBoard
from repro.runtime.manifest import Manifest, Task, load
from repro.runtime.pool import PoolBackend, resolve_workers
from repro.runtime.retry import RetryPolicy

__all__ = ["BatchRunner", "BreakerBoard", "Manifest", "PoolBackend",
           "RetryPolicy", "SerialBackend", "Task", "load",
           "resolve_workers", "run_batch"]
