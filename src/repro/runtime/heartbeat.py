"""Live batch heartbeats: a long run observable *in flight*.

``xnf batch --heartbeat FILE`` attaches a :class:`HeartbeatWriter` to
the batch runner's per-task completion hook, which sees tasks in
index order on both backends.  At most once per
``interval_s`` (and always on the final task) it appends one
schema-versioned record (:mod:`repro.records`) on the run so far::

    {"schema": "repro.runtime.heartbeat", "version": 1, "seq": 3,
     "elapsed_s": 2.134,
     "tasks": {"total": 200, "done": 57, "ok": 55, "deadletter": 2},
     "retries": 9,
     "breakers": {"total": 1, "open": 1, "half-open": 0, "closed": 0},
     "throughput_tps": 26.7, "eta_s": 5.4}

* ``tasks`` — terminal outcomes so far (``done = ok + deadletter``);
* ``retries`` — re-attempts scheduled across all tasks so far;
* ``breakers`` — circuit-breaker states right now
  (:meth:`repro.runtime.breaker.BreakerBoard.state_counts`), the same
  board on parallel runs: each task settles on it as it commits;
* ``throughput_tps`` — completed tasks per second since the run
  started; ``eta_s`` — remaining tasks at that rate (``null`` until
  the throughput is measurable);
* ``workers`` (optional, parallel runs only) — pool liveness from
  :meth:`repro.runtime.pool.PoolBackend.liveness`: the target pool
  size, how many workers are alive right now, and the cumulative
  crash/requeue counts, so an operator tailing the heartbeat file
  sees worker churn as it happens.  Serial runs omit the key, which
  keeps their records byte-compatible with pre-pool consumers.

The same numbers are published as ``runtime.batch.*`` gauges while
the batch runs, so an exporter scrape (``--metrics-port``) sees live
progress without reading the heartbeat file.  Wall-clock fields make
heartbeat *values* inherently non-deterministic; the *schema* is
pinned by :func:`validate_heartbeat`, which tests and the CI smoke
job run over every emitted line.
"""

from __future__ import annotations

import time
from typing import IO, Callable

from repro import records
from repro.obs import metrics as _obs
from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard

#: The ``schema`` discriminator stamped on every heartbeat record.
HEARTBEAT_SCHEMA = "repro.runtime.heartbeat"

#: Bump on any incompatible change to the record layout.
HEARTBEAT_VERSION = 1

_TASK_KEYS = ("total", "done", "ok", "deadletter")
_BREAKER_KEYS = ("total", OPEN, HALF_OPEN, CLOSED)
_WORKER_KEYS = ("target", "alive", "crashed", "requeued")
_JOURNAL_KEYS = ("appended", "replayed", "skipped")


class HeartbeatWriter:
    """Emits heartbeat records for one batch run (see module doc).

    ``interval_s`` throttles emission (0 emits on every completed
    task); ``clock`` is injectable for deterministic tests.  The
    writer is given the runner's :class:`BreakerBoard` so records can
    report breaker states without reaching into runner internals.
    """

    def __init__(self, stream: IO[str], *, total: int,
                 board: BreakerBoard | None = None,
                 pool: object | None = None,
                 journal: object | None = None,
                 interval_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if interval_s < 0:
            raise ValueError(
                f"interval_s must be >= 0, got {interval_s}")
        self.stream = stream
        self.total = total
        self.board = board
        #: Anything with a ``liveness() -> dict`` method (in practice
        #: a :class:`repro.runtime.pool.PoolBackend`); ``None`` on
        #: serial runs.
        self.pool = pool
        #: Anything with a ``stats() -> dict`` method (in practice a
        #: :class:`repro.runtime.journal.BatchJournal`); ``None`` when
        #: the run is not journaled.  On a resume, ``tasks.done``
        #: counts only tasks executed *by this process* — the skipped
        #: prefix shows up here instead.
        self.journal = journal
        self.interval_s = interval_s
        self._clock = clock
        self._started = clock()
        self._last_emit: float | None = None
        self.seq = 0
        self.done = 0
        self.ok = 0
        self.deadletter = 0
        self.retries = 0

    # -- the runner hook -----------------------------------------------

    def task_done(self, outcome) -> None:
        """Record one terminal task outcome; emit if the interval
        elapsed or the batch just finished."""
        self.done += 1
        if outcome.ok:
            self.ok += 1
        else:
            self.deadletter += 1
        self.retries += max(0, outcome.attempts - 1)
        now = self._clock()
        due = (self._last_emit is None
               or now - self._last_emit >= self.interval_s)
        if due or self.done >= self.total:
            self.emit(now=now)

    # -- emission --------------------------------------------------------

    def record(self, *, now: float | None = None) -> dict:
        """The current heartbeat record (without writing it)."""
        now = self._clock() if now is None else now
        elapsed = max(0.0, now - self._started)
        throughput = self.done / elapsed if elapsed > 0 else None
        remaining = max(0, self.total - self.done)
        eta = remaining / throughput if throughput else None
        breakers = {OPEN: 0, HALF_OPEN: 0, CLOSED: 0}
        if self.board is not None:
            breakers.update(self.board.state_counts())
        record = {
            "schema": HEARTBEAT_SCHEMA,
            "version": HEARTBEAT_VERSION,
            "seq": self.seq + 1,
            "elapsed_s": round(elapsed, 3),
            "tasks": {"total": self.total, "done": self.done,
                      "ok": self.ok, "deadletter": self.deadletter},
            "retries": self.retries,
            "breakers": {"total": sum(breakers.values()), **breakers},
            "throughput_tps": (round(throughput, 3)
                               if throughput is not None else None),
            "eta_s": round(eta, 3) if eta is not None else None,
        }
        if self.pool is not None:
            record["workers"] = self.pool.liveness()
        if self.journal is not None:
            record["journal"] = self.journal.stats()
        return record

    def emit(self, *, now: float | None = None) -> dict:
        """Write one heartbeat line (and refresh the live gauges)."""
        now = self._clock() if now is None else now
        record = self.record(now=now)
        self.seq = record["seq"]
        self._last_emit = now
        records.append(self.stream, record)
        if _obs.enabled:
            self._publish_gauges(record)
            _obs.inc("runtime.heartbeats")
        return record

    @staticmethod
    def _publish_gauges(record: dict) -> None:
        tasks = record["tasks"]
        _obs.set_gauge("runtime.batch.tasks.total", tasks["total"])
        _obs.set_gauge("runtime.batch.tasks.done", tasks["done"])
        _obs.set_gauge("runtime.batch.tasks.ok", tasks["ok"])
        _obs.set_gauge("runtime.batch.tasks.deadletter",
                       tasks["deadletter"])
        _obs.set_gauge("runtime.batch.retries", record["retries"])
        if record["throughput_tps"] is not None:
            _obs.set_gauge("runtime.batch.throughput_tps",
                           record["throughput_tps"])
        if record["eta_s"] is not None:
            _obs.set_gauge("runtime.batch.eta_s", record["eta_s"])

    def close(self) -> None:
        """Emit a final record unless the last one already covered the
        terminal state (so every heartbeat file ends complete)."""
        if self.done and (self.seq == 0 or self._last_pending()):
            self.emit()

    def _last_pending(self) -> bool:
        # task_done emits unconditionally on the final task, so a
        # pending state only arises when close() is called mid-run
        # (e.g. the batch loop aborted on a contract breach).
        return self.done < self.total


def validate_heartbeat(record: object) -> dict:
    """Check one heartbeat record against the schema; returns it.

    Raises ``ValueError`` with a precise message on any mismatch —
    used by the unit tests and the CI smoke job over every line of a
    live run's heartbeat file.
    """
    if not isinstance(record, dict):
        raise ValueError(f"heartbeat must be an object, got "
                         f"{type(record).__name__}")
    if record.get("schema") != HEARTBEAT_SCHEMA:
        raise ValueError(f"schema={record.get('schema')!r}, expected "
                         f"{HEARTBEAT_SCHEMA!r}")
    if record.get("version") != HEARTBEAT_VERSION:
        raise ValueError(f"version={record.get('version')!r}, expected "
                         f"{HEARTBEAT_VERSION}")
    if not isinstance(record.get("seq"), int) or record["seq"] < 1:
        raise ValueError(f"seq must be a positive int, got "
                         f"{record.get('seq')!r}")
    if not isinstance(record.get("elapsed_s"), (int, float)) \
            or record["elapsed_s"] < 0:
        raise ValueError(f"elapsed_s must be a non-negative number, "
                         f"got {record.get('elapsed_s')!r}")
    tasks = record.get("tasks")
    if not isinstance(tasks, dict):
        raise ValueError("missing 'tasks' object")
    for key in _TASK_KEYS:
        if not isinstance(tasks.get(key), int) or tasks[key] < 0:
            raise ValueError(f"tasks.{key} must be a non-negative "
                             f"int, got {tasks.get(key)!r}")
    if tasks["done"] != tasks["ok"] + tasks["deadletter"]:
        raise ValueError(f"tasks.done={tasks['done']} != ok+deadletter="
                         f"{tasks['ok'] + tasks['deadletter']}")
    if tasks["done"] > tasks["total"]:
        raise ValueError(f"tasks.done={tasks['done']} exceeds "
                         f"total={tasks['total']}")
    if not isinstance(record.get("retries"), int) \
            or record["retries"] < 0:
        raise ValueError(f"retries must be a non-negative int, got "
                         f"{record.get('retries')!r}")
    breakers = record.get("breakers")
    if not isinstance(breakers, dict):
        raise ValueError("missing 'breakers' object")
    for key in _BREAKER_KEYS:
        if not isinstance(breakers.get(key), int) or breakers[key] < 0:
            raise ValueError(f"breakers[{key!r}] must be a "
                             f"non-negative int, got "
                             f"{breakers.get(key)!r}")
    for key in ("throughput_tps", "eta_s"):
        value = record.get(key)
        if value is not None and (not isinstance(value, (int, float))
                                  or value < 0):
            raise ValueError(f"{key} must be null or a non-negative "
                             f"number, got {value!r}")
    if "workers" in record:
        workers = record["workers"]
        if not isinstance(workers, dict):
            raise ValueError("'workers' must be an object when present")
        for key in _WORKER_KEYS:
            if not isinstance(workers.get(key), int) \
                    or workers[key] < 0:
                raise ValueError(f"workers.{key} must be a "
                                 f"non-negative int, got "
                                 f"{workers.get(key)!r}")
        if workers["alive"] > workers["target"]:
            raise ValueError(f"workers.alive={workers['alive']} "
                             f"exceeds target={workers['target']}")
    if "journal" in record:
        journal = record["journal"]
        if not isinstance(journal, dict):
            raise ValueError("'journal' must be an object when present")
        for key in _JOURNAL_KEYS:
            if not isinstance(journal.get(key), int) \
                    or journal[key] < 0:
                raise ValueError(f"journal.{key} must be a "
                                 f"non-negative int, got "
                                 f"{journal.get(key)!r}")
    return record


def validate_heartbeat_lines(text: str) -> list[dict]:
    """Validate every line of a heartbeat file; returns the records.

    A torn last record is an error here (the newline after the last
    line may be left out).  Also checks the cross-record invariants:
    ``seq`` strictly increasing and ``tasks.done`` non-decreasing.
    """
    if not text.endswith("\n"):
        text += "\n"
    found = records.read("<heartbeat>", error=ValueError, text=text)
    if found.torn:
        raise ValueError(f"line {found.torn}: torn trailing record "
                         f"(not valid JSON)")
    heartbeats: list[dict] = []
    for lineno, parsed in found.lines:
        try:
            heartbeats.append(validate_heartbeat(parsed))
        except ValueError as error:
            raise ValueError(f"line {lineno}: {error}")
    for previous, current in zip(heartbeats, heartbeats[1:]):
        if current["seq"] <= previous["seq"]:
            raise ValueError(f"seq not strictly increasing: "
                             f"{previous['seq']} -> {current['seq']}")
        if current["tasks"]["done"] < previous["tasks"]["done"]:
            raise ValueError(f"tasks.done decreased: "
                             f"{previous['tasks']['done']} -> "
                             f"{current['tasks']['done']}")
    return heartbeats
