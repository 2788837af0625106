"""Crash-safe batch journaling: survive parent death, resume exactly-once.

The worker pool makes *worker* crashes recoverable; this module makes
the batch survive the death of the **supervisor** itself.  ``xnf batch
--journal FILE`` appends a write-ahead log of the run: one ``meta``
record pinning everything that shapes the summary bytes, an ``intent``
record before each task is dispatched, and a ``result`` record
carrying the task's full terminal outcome once it commits — in index
order on both backends.  ``--resume`` replays that log, skips
completed tasks, re-dispatches the ones that were in flight when the
parent died, and emits a merged summary **byte-identical** to an
uninterrupted serial run: the batch determinism contract, extended
across process lifetimes.

The journal file is JSON-lines::

    {"record": "meta", "schema": "repro.runtime.journal", "version": 1,
     "manifest": "batch.jsonl", "manifest_sha": "d05b54…", "seed": 7,
     "count": 100000, "ensemble": "off",
     "policy": {"retries": 2, "backoff_base_ms": 100.0,
                "multiplier": 2.0, "seed": 7},
     "breaker": {"threshold": 5, "probe_interval": 8}}
    {"record": "intent", "index": 0, "id": "corpus-000000"}
    {"record": "result", "index": 0, "id": "corpus-000000",
     "op": "check", "dtd_sha": "…", "fds_sha": null,
     "reason": null, "signature": null,
     "payload": { …the summary's ``tasks[0]`` entry, verbatim… }}

Design decisions, each load-bearing:

* **A record file that fsyncs every append** (:mod:`repro.records`).
  Resume cuts a torn last record off with a counted warning
  (``runtime.journal.torn``); any other bad line raises
  :class:`~repro.errors.JournalError` (exit 2).
* **Meta is verified field-by-field on resume.**  Every field in the
  meta record affects summary bytes (manifest identity via the same
  ``source:seed:count`` fingerprint the run ledger uses, retry policy,
  breaker knobs, ensemble mode); a mismatch is a structural error —
  the journal cannot apply to this invocation.  Per-task ``dtd_sha`` /
  ``fds_sha`` fingerprints are recorded in each result for audit, but
  deliberately *not* re-verified on resume: checking them would force
  a spec-file read per completed task, defeating the streaming-skip
  contract (see :meth:`Manifest.iter_indexed`).
* **Results are an index-ordered prefix.**  Both backends commit in
  index order, so the result records of any journal this module
  writes are tasks ``0 … k-1``, in that order; a result out of that
  order is refused as structural (exit 2).  The summary embeds the
  breaker board snapshot, so resume settles the replayed outcomes onto
  a fresh board in that same order through
  :func:`~repro.runtime.batch.settle`, the rule the live commit
  applies — and the board ends exactly where the interrupted run left
  it.  A replayed outcome that settle would cut short or send back
  (possible only in a journal an older version's parallel run wrote,
  or one edited by hand) is refused the same way.
* **Intent without result ⇒ re-dispatch.**  The task may have partially
  executed before the crash; every op is a pure function of its spec
  inputs, so re-execution is idempotent.  Counted as
  ``runtime.journal.replayed``.

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
from repro.obs import metrics as _obs
from repro.runtime.batch import TaskOutcome
from repro.runtime.breaker import BreakerBoard
from repro.runtime.manifest import Manifest, Task
from repro.runtime.retry import RetryPolicy

#: Bump on any incompatible change to the journal record layout.
JOURNAL_VERSION = 1

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

_RECORD_KINDS = ("meta", "intent", "result")

#: What :meth:`TaskOutcome.from_record` reads from a result record and
#: from its payload: ``(key, allowed types, required)``.
_NULLABLE_STR = (str, type(None))
_RESULT_FIELDS = (("id", str, True), ("op", str, True),
                  ("reason", _NULLABLE_STR, True),
                  ("signature", _NULLABLE_STR, True))
_PAYLOAD_FIELDS = (("status", str, True), ("attempts", int, True),
                   ("delays_ms", list, True), ("failures", list, False),
                   ("result", dict, False),
                   ("disagreements", list, False))

#: Why resume refuses results a serial run could not have committed:
#: older versions' parallel runs committed them in completion order.
_OLDER_PARALLEL = ("a journal written by a parallel run of an older "
                   "version cannot be resumed")


def _warn_stderr(message: str) -> None:
    print(f"xnf batch: {message}", file=sys.stderr)


def meta_record(manifest: Manifest, policy: RetryPolicy,
                board: BreakerBoard, ensemble_mode: str) -> dict:
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
    }


def _structural(message: str) -> JournalError:
    return JournalError(f"journal: {message}")


def _check_record(record: object, line_no: int) -> dict:
    if not isinstance(record, dict):
        raise _structural(f"line {line_no}: record must be an object")
    kind = record.get("record")
    if kind not in _RECORD_KINDS:
        raise _structural(
            f"line {line_no}: record kind must be one of "
            f"{list(_RECORD_KINDS)}, got {kind!r}")
    if kind == "meta":
        if line_no != 1:
            raise _structural(
                f"line {line_no}: meta record only allowed on line 1")
        return record
    index = record.get("index")
    if not isinstance(index, int) or isinstance(index, bool) \
            or index < 0:
        raise _structural(
            f"line {line_no}: index must be a non-negative integer, "
            f"got {index!r}")
    if kind == "result":
        payload = record.get("payload")
        if not isinstance(payload, dict):
            raise _structural(
                f"line {line_no}: result record must carry a payload "
                f"object")
        for where, found, fields in (
                ("result", record, _RESULT_FIELDS),
                ("result payload", payload, _PAYLOAD_FIELDS)):
            for key, types, required in fields:
                if key not in found:
                    if required:
                        raise _structural(f"line {line_no}: {where} is "
                                          f"missing {key!r}")
                elif not isinstance(found[key], types) \
                        or isinstance(found[key], bool):
                    raise _structural(
                        f"line {line_no}: {where} field {key!r} has the "
                        f"wrong type {type(found[key]).__name__}")
    return record


class _JournalState:
    """What one read of a journal file found."""

    def __init__(self) -> None:
        self.meta: dict | None = None
        self.intents: set[int] = set()
        self.results: dict[int, dict] = {}
        self.torn: bool = False


def read_journal(path: str) -> _JournalState:
    """Parse a journal file, leaving out a torn last record
    (:func:`repro.records.read`)."""
    found = records.read(path, error=_structural)
    state = _JournalState()
    state.torn = found.torn is not None
    for line_no, record in found.lines:
        record = _check_record(record, line_no)
        if record["record"] == "meta":
            state.meta = record
        elif record["record"] == "intent":
            state.intents.add(record["index"])
        else:
            index = record["index"]
            if index in state.results:
                raise _structural(
                    f"line {line_no}: duplicate result for task "
                    f"index {index}")
            if index != len(state.results):
                raise _structural(
                    f"line {line_no}: result for task index {index} "
                    f"out of index order (expected {len(state.results)})"
                    f"; {_OLDER_PARALLEL}")
            state.results[index] = record
    if state.meta is None and (state.intents or state.results):
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
    """The write-ahead journal of one ``xnf batch`` run.

    Build via :func:`open_journal`.  The runner calls :meth:`intent`
    before dispatching a task and :meth:`result` when its terminal
    outcome commits; both append one fsync'd line.  On resume,
    :attr:`completed_indices` / :meth:`completed_outcomes` carry the
    replayed state.
    """

    def __init__(self, path: str, stream: IO[str], *,
                 completed: dict[int, TaskOutcome] | None = None,
                 pending_intents: frozenset[int] = frozenset(),
                 fsync: bool = True) -> None:
        self.path = path
        self._stream = stream
        self._fsync = fsync
        self._completed = dict(completed or {})
        #: Indices that had an intent but no result when the journal
        #: was read back: the in-flight set at the moment of death.
        self._pending_intents = set(pending_intents)
        self.appended = 0
        self.replayed = 0
        self.skipped = len(self._completed)
        if _obs.enabled and self.skipped:
            _obs.inc("runtime.journal.skipped", self.skipped)

    # -- durability ----------------------------------------------------

    def _append(self, record: dict) -> None:
        if not records.append(self._stream, record, fsync=self._fsync,
                              site=_SITE_APPEND):
            # The injected mid-append kill: the torn record is on disk
            # and this process must stop appending past the hole.
            raise _structural(
                f"{self.path}: torn append (record did not reach the "
                f"file intact); re-run with --resume to recover")
        self.appended += 1
        if _obs.enabled:
            _obs.inc("runtime.journal.appended")

    # -- the runner-facing seam ----------------------------------------

    @property
    def completed_indices(self) -> frozenset[int]:
        return frozenset(self._completed)

    @property
    def in_flight(self) -> int:
        """How many tasks had an intent but no result on read-back."""
        return len(self._pending_intents)

    def completed_outcomes(self) -> dict[int, TaskOutcome]:
        return dict(self._completed)

    def stale(self, index: int) -> JournalError:
        """The error for the result at ``index`` when the breakers
        settled before it contradict it (see
        :meth:`~repro.runtime.batch.BatchRunner.replayed_outcomes`)."""
        return _structural(f"result for task index {index} disagrees "
                           f"with the circuit breakers settled before "
                           f"it; {_OLDER_PARALLEL}")

    def intent(self, index: int, task: Task) -> None:
        if index in self._pending_intents:
            # This exact task already has an intent on file from the
            # interrupted run: it is being re-dispatched, not newly
            # dispatched, and the journal already says so.
            self.replayed += 1
            if _obs.enabled:
                _obs.inc("runtime.journal.replayed")
            return
        self._append({"record": "intent", "index": index,
                      "id": task.id})

    def result(self, index: int, outcome: TaskOutcome) -> None:
        task = outcome.task
        dtd_sha, fds_sha = task.spec_fingerprints
        self._append({"record": "result", "index": index,
                      "id": task.id, "op": task.op,
                      "dtd_sha": dtd_sha, "fds_sha": fds_sha,
                      "reason": outcome.reason,
                      "signature": outcome.signature,
                      "payload": outcome.to_json()})

    def stats(self) -> dict:
        """Journal state for heartbeats: monotone counters only."""
        return {"appended": self.appended, "replayed": self.replayed,
                "skipped": self.skipped}

    def close(self) -> None:
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
                 ) -> BatchJournal:
    """Open (and on ``resume``, replay) the journal at ``path``.

    Fresh runs truncate the file and write the meta record.  Resumes
    cut a torn last record off the file (counted warning), read it
    back, verify the meta record against this invocation, and return
    a journal pre-loaded with the completed outcomes and in-flight
    intents.  A resume against a missing or record-less file degrades
    to a fresh run with a warning — the parent may have died before
    the first append.
    """
    expected = meta_record(manifest, policy, board, ensemble_mode)
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
                pending_intents=frozenset(
                    state.intents - set(state.results)),
                fsync=fsync)
        stream.close()
        warn(f"journal {path} has no meta record; starting fresh")
    elif resume:
        warn(f"journal {path} does not exist; starting fresh")
    journal = BatchJournal(path, _open(path, "w"), fsync=fsync)
    journal._append(expected)
    return journal
