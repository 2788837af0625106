"""Crash-safe batch journaling: survive parent death, resume exactly-once.

The worker pool makes *worker* crashes recoverable; this module makes
the batch survive the death of the **supervisor** itself.  ``xnf batch
--journal FILE`` appends a log of the run: one ``meta`` record pinning
everything that shapes the summary bytes, then one ``result`` record
carrying each task's full terminal outcome as it commits — in index
order on both backends.  ``--resume`` replays that log, skips
completed tasks, runs every task that has no result, and emits a
merged summary **byte-identical** to an uninterrupted serial run: the
batch determinism contract, extended across process lifetimes.

The journal file is JSON-lines::

    {"record": "meta", "schema": "repro.runtime.journal", "version": 2,
     "manifest": "batch.jsonl", "manifest_sha": "d05b54…", "seed": 7,
     "count": 100000, "ensemble": "off",
     "policy": {"retries": 2, "backoff_base_ms": 100.0,
                "multiplier": 2.0, "seed": 7},
     "breaker": {"threshold": 5, "probe_interval": 8}, "limits": null}
    {"record": "result", "index": 0, "id": "corpus-000000",
     "op": "check", "dtd_sha": "…", "fds_sha": null,
     "reason": null, "signature": null,
     "payload": { …the summary's ``tasks[0]`` entry, verbatim… }}

Design decisions, each load-bearing:

* **A record file made durable in groups** (:mod:`repro.records`).
  Each record is written and flushed as it commits, so a supervisor
  killed by a signal loses nothing it wrote.  :meth:`BatchJournal.sync`
  fsyncs whatever was appended since its last call: the meta record at
  open, then each serial commit, each pass of the pool's supervision
  loop (:mod:`repro.runtime.pool`), and :meth:`BatchJournal.close`.
  A power loss therefore loses at most one pass of results (at most
  ``WINDOW`` × workers), and those tasks run again on ``--resume``.
  Resume cuts a torn last record off with a counted warning
  (``runtime.journal.torn``); any other bad line raises
  :class:`~repro.errors.JournalError` (exit 2).
* **Meta is verified field-by-field on resume.**  Every field in the
  meta record affects summary bytes (manifest identity via the same
  ``source:seed:count`` fingerprint the run ledger uses, retry policy,
  breaker knobs, ensemble mode, the budget flags' cap on each task's
  limits — ``null`` without flags, as a meta without the field reads);
  a mismatch is a structural error — the journal cannot apply to this
  invocation.  So is a journal of
  another :data:`JOURNAL_VERSION`.  Per-task ``dtd_sha`` /
  ``fds_sha`` fingerprints are recorded in each result for audit, but
  deliberately *not* re-verified on resume: checking them would force
  a spec-file read per completed task, defeating the streaming-skip
  contract (see :meth:`Manifest.iter_indexed`).
* **Results are an index-ordered prefix.**  Both backends commit in
  index order, so the result records of any journal this module
  writes are tasks ``0 … k-1``, in that order; a result out of that
  order is refused as structural (exit 2).  The summary embeds the
  breaker board snapshot, so resume replays the outcomes onto a fresh
  board in that same order, as the live run reached it: the board is
  asked again for each retry decision a result records, then
  :func:`~repro.runtime.batch.settle` records its terminal event —
  and the board ends exactly where the interrupted run left it.  A
  result whose decisions the board contradicts (possible only in an
  edited journal) is refused the same way, and so is a result whose
  status or failures replay cannot rebuild.
* **No result ⇒ run again.**  A task may have partially executed
  before the crash; every op is a pure function of its spec inputs,
  so re-execution is idempotent.  Dispatch is therefore not recorded:
  the result is the one record a task writes.

Fault sites ``runtime.journal.append`` / ``runtime.journal.replay``
accept the ``truncate`` kind: at the append site it simulates a
mid-append parent kill (the torn record reaches the file, then the
batch aborts); at the replay site it simulates losing an arbitrary
tail of the journal.  Both are swept by the chaos suite and the
parent-kill harness (``tests/property/test_journal_chaos.py``).
"""

from __future__ import annotations

import os
import sys
from typing import IO, Callable

from repro import records
from repro.errors import JournalError
from repro.faults import plan as _faults
from repro.guard import Limits
from repro.obs import metrics as _obs
from repro.runtime.batch import TaskOutcome
from repro.runtime.breaker import BreakerBoard
from repro.runtime.manifest import Manifest, Task
from repro.runtime.retry import RetryPolicy

#: Bump on any incompatible change to the journal record layout.
#: Version 2 dropped version 1's per-dispatch ``intent`` records.
JOURNAL_VERSION = 2

#: The ``schema`` discriminator stamped on every journal meta record.
JOURNAL_SCHEMA = "repro.runtime.journal"

_SITE_APPEND = _faults.register_site(
    "runtime.journal.append", "runtime",
    "journal record append, between serialization and the write "
    "(truncate = a mid-append parent kill: the torn record reaches "
    "the file and the batch aborts; --resume recovers)",
    kinds=_faults.INPUT_KINDS)
_SITE_REPLAY = _faults.register_site(
    "runtime.journal.replay", "runtime",
    "journal read-back on --resume, after the raw bytes are loaded "
    "(truncate = losing an arbitrary tail of the journal)",
    kinds=_faults.INPUT_KINDS)

_RECORD_KINDS = ("meta", "result")

#: What :meth:`TaskOutcome.from_record` reads from a result record, from
#: its payload and from each failure the breakers settle: ``(key,
#: allowed types, required)``.
_NULLABLE_STR = (str, type(None))
_RESULT_FIELDS = (("index", int, True), ("id", str, True),
                  ("op", str, True),
                  ("reason", _NULLABLE_STR, True),
                  ("signature", _NULLABLE_STR, True),
                  ("payload", dict, True))
_PAYLOAD_FIELDS = (("status", str, True), ("attempts", int, True),
                   ("delays_ms", list, True), ("failures", list, False),
                   ("result", dict, False),
                   ("disagreements", list, False))
_FAILURE_FIELDS = (("signature", str, True), ("chain", list, True))
_STATUSES = ("ok", "dead-letter")


def _warn_stderr(message: str) -> None:
    print(f"xnf batch: {message}", file=sys.stderr)


def meta_record(manifest: Manifest, policy: RetryPolicy,
                board: BreakerBoard, ensemble_mode: str,
                limits: Limits | None = None) -> dict:
    """The journal's first record: everything that shapes summary
    bytes, pinned.  Fully deterministic — no run id, no timestamp —
    so identical invocations write identical journals."""
    return {
        "record": "meta",
        "schema": JOURNAL_SCHEMA,
        "version": JOURNAL_VERSION,
        "manifest": manifest.source,
        # The identity the run ledger stamps on its records too, so
        # journal and ledger agree on what "same batch" means.
        "manifest_sha": manifest.sha,
        "seed": manifest.seed,
        "count": manifest.task_count,
        "ensemble": ensemble_mode,
        "policy": policy.to_json(),
        "breaker": {"threshold": board.threshold,
                    "probe_interval": board.probe_interval},
        "limits": limits.to_json() if limits else None,
    }


def _structural(message: str) -> JournalError:
    return JournalError(f"journal: {message}")


def _check_record(record: object, source: str, line_no: int) -> dict:
    """``record`` once it is a meta record of this version on line 1,
    or a result record that replay can rebuild and settle."""
    where = f"{source}: line {line_no}"
    record = records.check(record, (), where=where, error=_structural)
    kind = record.get("record")
    if kind not in _RECORD_KINDS:
        raise _structural(
            f"{where}: record kind must be one of "
            f"{list(_RECORD_KINDS)}, got {kind!r}")
    if kind == "meta":
        if line_no != 1:
            raise _structural(
                f"{where}: meta record only allowed on line 1")
        if record.get("version") != JOURNAL_VERSION:
            raise _structural(
                f"{where}: journal version {record.get('version')!r} "
                f"cannot be resumed, expected version "
                f"{JOURNAL_VERSION}; re-run the batch without --resume")
        return record
    records.check(record, _RESULT_FIELDS, where=f"{where}: result",
                  error=_structural)
    if record["index"] < 0:
        raise _structural(f"{where}: result: 'index' is negative")
    where = f"{where}: result payload"
    payload = records.check(record["payload"], _PAYLOAD_FIELDS,
                            where=where, error=_structural)
    if payload["status"] not in _STATUSES:
        raise _structural(f"{where}: 'status' must be one of "
                          f"{list(_STATUSES)}, got {payload['status']!r}")
    failures = payload.get("failures", [])
    if payload["status"] == "dead-letter" and not failures:
        raise _structural(f"{where}: a dead-letter needs at least one "
                          f"entry in 'failures'")
    for number, failure in enumerate(failures):
        records.check(failure, _FAILURE_FIELDS,
                      where=f"{where}: failure {number}",
                      error=_structural)
    return record


class _JournalState:
    """What one read of a journal file found."""

    def __init__(self) -> None:
        self.meta: dict | None = None
        self.results: dict[int, dict] = {}
        self.torn: bool = False


def read_journal(path: str) -> _JournalState:
    """Parse a journal file, leaving out a torn last record
    (:func:`repro.records.read`)."""
    found = records.read(path, error=_structural)
    state = _JournalState()
    state.torn = found.torn is not None
    for line_no, record in found.lines:
        record = _check_record(record, found.source, line_no)
        if record["record"] == "meta":
            state.meta = record
            continue
        index = record["index"]
        if index in state.results:
            raise _structural(
                f"{found.source}: line {line_no}: duplicate result for "
                f"task index {index}")
        if index != len(state.results):
            raise _structural(
                f"{found.source}: line {line_no}: result for task index "
                f"{index} out of index order (expected "
                f"{len(state.results)})")
        state.results[index] = record
    if state.meta is None and state.results:
        raise _structural("first record must be the meta record")
    return state


def _verify_meta(found: dict, expected: dict, path: str) -> None:
    """Field-by-field meta check: every key affects summary bytes."""
    for key in expected:
        if found.get(key) != expected[key]:
            raise _structural(
                f"{path}: {key} mismatch — journal has "
                f"{found.get(key)!r}, this invocation expects "
                f"{expected[key]!r}; the journal cannot apply to "
                f"this batch")


class BatchJournal:
    """The journal of one ``xnf batch`` run.

    Build via :func:`open_journal`.  The runner calls :meth:`result`
    when a task's terminal outcome commits, which appends and flushes
    one line, and :meth:`sync` when its backend makes the lines so far
    durable.  On resume, :attr:`completed_indices` /
    :meth:`completed_outcomes` carry the replayed state.
    """

    def __init__(self, path: str, stream: IO[str], *,
                 completed: dict[int, TaskOutcome] | None = None,
                 fsync: bool = True) -> None:
        self.path = path
        self._stream = stream
        self._fsync = fsync
        self._completed = dict(completed or {})
        self.appended = 0
        #: :attr:`appended` as of the last :meth:`sync`.
        self._synced = 0
        self.skipped = len(self._completed)
        if _obs.enabled and self.skipped:
            _obs.inc("runtime.journal.skipped", self.skipped)

    # -- durability ----------------------------------------------------

    def _append(self, record: dict) -> None:
        if not records.append(self._stream, record, site=_SITE_APPEND):
            # The injected mid-append kill: the torn record is on disk
            # and this process must stop appending past the hole.
            raise _structural(
                f"{self.path}: torn append (record did not reach the "
                f"file intact); re-run with --resume to recover")
        self.appended += 1
        if _obs.enabled:
            _obs.inc("runtime.journal.appended")

    def sync(self) -> None:
        """Make every record appended since the last call durable: one
        fsync, none when there is nothing new or ``fsync`` is off.  A
        stream that a failed append has closed is left alone: that
        failure already ends the batch."""
        if self._synced == self.appended or self._stream.closed:
            return
        if self._fsync:
            records.sync(self._stream)
            if _obs.enabled:
                _obs.inc("runtime.journal.synced")
        self._synced = self.appended

    # -- the runner-facing seam ----------------------------------------

    @property
    def completed_indices(self) -> frozenset[int]:
        return frozenset(self._completed)

    def completed_outcomes(self) -> dict[int, TaskOutcome]:
        return dict(self._completed)

    def stale(self, index: int) -> JournalError:
        """The error for the result at ``index`` when the breakers
        settled before it, asked again, contradict a retry decision it
        records (see
        :meth:`~repro.runtime.batch.BatchRunner.replayed_outcomes`)."""
        return _structural(f"result for task index {index} disagrees "
                           f"with the circuit breakers settled before it")

    def intent(self, index: int, task: Task) -> None:
        """Append nothing: a task without a result runs again on
        resume, so dispatch needs no record.  The method stays because
        the end-to-end benchmark's replay (``xnfbench/replay.py``)
        patches it by name to time the journal layer."""

    def result(self, index: int, outcome: TaskOutcome) -> None:
        task = outcome.task
        dtd_sha, fds_sha = task.spec_fingerprints
        self._append({"record": "result", "index": index,
                      "id": task.id, "op": task.op,
                      "dtd_sha": dtd_sha, "fds_sha": fds_sha,
                      "reason": outcome.reason,
                      "signature": outcome.signature,
                      "payload": outcome.to_json()})

    def close(self) -> None:
        try:
            self.sync()
        finally:
            self._stream.close()


def _open(path: str, mode: str) -> IO[str]:
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as error:
        raise _structural(f"cannot open {path}: {error}") from error


def open_journal(path: str, *, manifest: Manifest,
                 policy: RetryPolicy, board: BreakerBoard,
                 ensemble_mode: str = "off", resume: bool = False,
                 fsync: bool = True,
                 warn: Callable[[str], None] = _warn_stderr,
                 limits: Limits | None = None) -> BatchJournal:
    """Open (and on ``resume``, replay) the journal at ``path``.

    Fresh runs truncate the file and write the meta record.  Resumes
    cut a torn last record off the file (counted warning), read it
    back, verify the meta record against this invocation, and return
    a journal pre-loaded with the completed outcomes.  A resume
    against a missing or record-less file degrades to a fresh run with
    a warning — the parent may have died before the first append.
    """
    expected = meta_record(manifest, policy, board, ensemble_mode, limits)
    if resume and os.path.exists(path):
        stream = _open(path, "r+")
        try:
            if records.repair(stream, site=_SITE_REPLAY):
                warn(f"journal {path}: torn trailing record truncated "
                     f"(mid-append crash); resuming from the last "
                     f"intact record")
                if _obs.enabled:
                    _obs.inc("runtime.journal.torn")
            state = read_journal(path)
            if state.meta is not None:
                _verify_meta(state.meta, expected, path)
        except BaseException:
            stream.close()
            raise
        if state.meta is not None:
            return BatchJournal(
                path, stream,
                completed={index: TaskOutcome.from_record(record)
                           for index, record in state.results.items()},
                fsync=fsync)
        stream.close()
        warn(f"journal {path} has no meta record; starting fresh")
    elif resume:
        warn(f"journal {path} does not exist; starting fresh")
    journal = BatchJournal(path, _open(path, "w"), fsync=fsync)
    journal._append(expected)
    journal.sync()
    return journal
