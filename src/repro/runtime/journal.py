"""Crash-safe batch journaling: survive parent death, resume exactly-once.

PR 7 made *worker* crashes recoverable; this module makes the batch
survive the death of the **supervisor** itself.  ``xnf batch --journal
FILE`` appends a write-ahead log of the run: one ``meta`` record
pinning everything that shapes the summary bytes, an ``intent`` record
before each task is dispatched, and a ``result`` record carrying the
task's full terminal outcome once it lands.  ``--resume`` replays that
log, skips completed tasks, re-dispatches the ones that were in flight
when the parent died, and emits a merged summary **byte-identical** to
an uninterrupted serial run whenever no breaker opened — the PR 7
determinism contract, extended across process lifetimes.

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

* **Append = one ``write`` of one full line, then ``fsync``.**  A
  record is either entirely in the file or entirely absent; the only
  partial state a crash can leave is a torn *trailing* line, which
  resume truncates with a counted warning (``runtime.journal.torn``)
  and never treats as an error.  A torn line anywhere *else* means the
  file was edited, not crashed on, and raises
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
* **Results replay, breaker traffic replays with them.**  The summary
  embeds the breaker board snapshot, so a resumed run reconstructs the
  board by replaying each journaled outcome's breaker decisions in
  manifest order (:meth:`BatchJournal.replay_board`) — the exact calls
  ``BatchRunner._run_task_core`` made, recoverable from the outcome
  record alone.  ``worker_crash`` outcomes are skipped: their breaker
  traffic went to the pool's private crash board, which is invisible
  in the summary by design.
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

import copy
import json
import os
import sys
from typing import IO, Callable

from repro.errors import JournalError
from repro.faults import plan as _faults
from repro.obs import metrics as _obs
from repro.obs.ledger import append_line, fingerprint, spec_fingerprints
from repro.runtime.batch import (
    REASON_BREAKER_OPEN,
    REASON_WORKER_CRASH,
    TaskOutcome,
)
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


def _warn_stderr(message: str) -> None:
    print(f"xnf batch: {message}", file=sys.stderr)


class ReplayedOutcome:
    """A completed task's outcome, reconstructed from its journal
    record.  Duck-types the slice of :class:`TaskOutcome` that
    :meth:`BatchRunner.summarize` consumes, so replayed and live
    outcomes merge into one summary with identical bytes."""

    __slots__ = ("index", "id", "op", "reason", "signature", "payload")

    def __init__(self, record: dict) -> None:
        self.index: int = record["index"]
        self.id: str = record["id"]
        self.op: str = record["op"]
        self.reason: str | None = record["reason"]
        self.signature: str | None = record["signature"]
        self.payload: dict = record["payload"]

    @property
    def status(self) -> str:
        return self.payload["status"]

    @property
    def ok(self) -> bool:
        return self.payload["status"] == "ok"

    @property
    def attempts(self) -> int:
        return self.payload["attempts"]

    @property
    def failures(self) -> list[dict]:
        return self.payload.get("failures", [])

    @property
    def disagreements(self) -> list[dict]:
        return self.payload.get("disagreements", [])

    def to_json(self) -> dict:
        return copy.deepcopy(self.payload)

    def dead_letter(self) -> dict:
        assert self.status == "dead-letter" and self.failures
        return {"id": self.id, "op": self.op,
                "reason": self.reason, "signature": self.signature,
                "attempts": self.attempts,
                "failures": copy.deepcopy(self.failures),
                "error_chain": copy.deepcopy(self.failures[-1]["chain"])}


def meta_record(manifest: Manifest, policy: RetryPolicy,
                board: BreakerBoard, ensemble_mode: str) -> dict:
    """The journal's first record: everything that shapes summary
    bytes, pinned.  Fully deterministic — no run id, no timestamp —
    so identical invocations write identical journals."""
    count = manifest.task_count
    return {
        "record": "meta",
        "schema": JOURNAL_SCHEMA,
        "version": JOURNAL_VERSION,
        "manifest": manifest.source,
        # The same identity fingerprint the run ledger stamps on its
        # records, so journal and ledger agree on what "same batch"
        # means.
        "manifest_sha": fingerprint(
            f"{manifest.source}:{manifest.seed}:{count}"),
        "seed": manifest.seed,
        "count": count,
        "ensemble": ensemble_mode,
        "policy": {"retries": policy.retries,
                   "backoff_base_ms": policy.backoff_base_ms,
                   "multiplier": policy.multiplier,
                   "seed": policy.seed},
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
    if kind == "result" and not isinstance(record.get("payload"), dict):
        raise _structural(
            f"line {line_no}: result record must carry a payload "
            f"object")
    return record


class _JournalState:
    """What one read of a journal file found."""

    def __init__(self) -> None:
        self.meta: dict | None = None
        self.intents: set[int] = set()
        self.results: dict[int, dict] = {}
        self.good_bytes: int = 0
        self.torn: bool = False


def read_journal(path: str) -> _JournalState:
    """Parse a journal file, tolerating exactly one torn trailing line.

    ``good_bytes`` is the byte offset of the end of the last complete,
    parseable record — the truncation point a resume restores the file
    to before appending.  Journal content is ASCII (``json.dumps``
    with the default ``ensure_ascii``), so character offsets are byte
    offsets.
    """
    state = _JournalState()
    try:
        with open(path, "r", encoding="utf-8") as stream:
            text = stream.read()
    except OSError as error:
        raise _structural(f"cannot read {path}: {error}") from error
    if _faults.active:
        # An injected tear: recover exactly as if the file really lost
        # its tail (the resume truncates to the surviving prefix).
        text = _faults.mangle(_SITE_REPLAY, text)
    offset = 0
    line_no = 0
    for line in text.splitlines(keepends=True):
        line_no += 1
        if not line.endswith("\n"):
            # A trailing chunk without its newline: the torn-append
            # crash window.  Everything before it is intact.
            state.torn = True
            break
        if line.strip() == "":
            offset += len(line)
            continue
        try:
            record = _check_record(json.loads(line), line_no)
        except ValueError as error:
            # A *complete* line that does not parse was not torn by a
            # crash — single-write appends cannot leave one.
            raise _structural(
                f"line {line_no}: malformed record: {error}") from error
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
            state.results[index] = record
        offset += len(line)
    if state.meta is None and (state.intents or state.results):
        raise _structural("first record must be the meta record")
    state.good_bytes = offset
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
    outcome lands; both append one fsync'd line.  On resume,
    :attr:`completed_indices` / :meth:`completed_outcomes` carry the
    replayed state and :meth:`replay_board` reconstructs the breaker
    board.
    """

    def __init__(self, path: str, stream: IO[str], *,
                 completed: dict[int, ReplayedOutcome] | None = None,
                 pending_intents: frozenset[int] = frozenset(),
                 fsync: bool = True) -> None:
        self.path = path
        self._stream = stream
        self._fsync = fsync
        self._completed = dict(completed or {})
        #: Indices that had an intent but no result when the journal
        #: was read back: the in-flight set at the moment of death.
        self._pending_intents = set(pending_intents)
        self._board_replayed = False
        self.appended = 0
        self.replayed = 0
        self.skipped = len(self._completed)
        if _obs.enabled and self.skipped:
            _obs.inc("runtime.journal.skipped", self.skipped)

    # -- durability ----------------------------------------------------

    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        if _faults.active:
            line = _faults.mangle(_SITE_APPEND, line)
        # One write of one full line: a real crash between write and
        # fsync can only lose or tear the *trailing* record, which
        # resume truncates.  (Buffered partial flushes are why the
        # write must be a single call.)
        append_line(self._stream, line, fsync=self._fsync)
        if not line.endswith("\n"):
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

    def completed_outcomes(self) -> dict[int, ReplayedOutcome]:
        return dict(self._completed)

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
        dtd_sha, fds_sha = spec_fingerprints(task)
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
        if not self._stream.closed:
            self._stream.close()

    # -- breaker reconstruction ----------------------------------------

    def replay_board(self, board: BreakerBoard) -> None:
        """Replay the journaled outcomes' breaker traffic onto
        ``board``, in manifest order.

        Mirrors ``BatchRunner._run_task_core`` exactly: each recorded
        failure implies the calls the serial runner made at the time
        (``allows_retries`` per retried attempt, then the terminal
        ``record_skip`` / ``record_failure`` / ``record_success``), so
        a serial resume reconstructs the board byte-for-byte — even
        through open/half-open transitions.  ``worker_crash`` outcomes
        are skipped: their traffic went to the pool's private crash
        board, never this one.
        """
        if self._board_replayed:
            return
        self._board_replayed = True
        for index in sorted(self._completed):
            outcome = self._completed[index]
            failures = outcome.failures
            if not failures:
                continue
            if outcome.reason == REASON_WORKER_CRASH:
                continue
            for failure in failures[:-1]:
                # Every non-final failure was followed by a retry the
                # breaker admitted.
                board.get(failure["signature"]).allows_retries()
            last = failures[-1]
            breaker = board.get(last["signature"])
            if outcome.ok:
                # Success after failures: the final failed attempt was
                # also admitted, then the success closed the breaker.
                breaker.allows_retries()
                breaker.record_success()
            elif outcome.reason == REASON_BREAKER_OPEN:
                breaker.allows_retries()
                breaker.record_skip()
            else:
                breaker.record_failure()


def open_journal(path: str, *, manifest: Manifest,
                 policy: RetryPolicy, board: BreakerBoard,
                 ensemble_mode: str = "off", resume: bool = False,
                 fsync: bool = True,
                 warn: Callable[[str], None] = _warn_stderr,
                 ) -> BatchJournal:
    """Open (and on ``resume``, replay) the journal at ``path``.

    Fresh runs truncate the file and write the meta record.  Resumes
    read the file back, chop a torn trailing record (counted warning,
    physical truncate to the last good byte), verify the meta record
    against this invocation, and return a journal pre-loaded with the
    completed outcomes and in-flight intents.  A resume against a
    missing or record-less file degrades to a fresh run with a
    warning — the parent may have died before the first append.
    """
    expected = meta_record(manifest, policy, board, ensemble_mode)
    if not resume:
        try:
            stream = open(path, "w", encoding="utf-8")
        except OSError as error:
            raise _structural(
                f"cannot open {path}: {error}") from error
        journal = BatchJournal(path, stream, fsync=fsync)
        journal._append(expected)
        return journal

    if os.path.exists(path):
        state = read_journal(path)
    else:
        warn(f"journal {path} does not exist; starting fresh")
        state = _JournalState()
    if state.torn:
        warn(f"journal {path}: torn trailing record truncated "
             f"(mid-append crash); resuming from the last intact "
             f"record")
        if _obs.enabled:
            _obs.inc("runtime.journal.torn")
    if state.meta is None:
        if os.path.exists(path):
            warn(f"journal {path} has no meta record; starting fresh")
        try:
            stream = open(path, "w", encoding="utf-8")
        except OSError as error:
            raise _structural(
                f"cannot open {path}: {error}") from error
        journal = BatchJournal(path, stream, fsync=fsync)
        journal._append(expected)
        return journal
    _verify_meta(state.meta, expected, path)
    completed = {index: ReplayedOutcome(record)
                 for index, record in state.results.items()}
    pending = frozenset(state.intents - set(state.results))
    try:
        # Physically drop the torn tail before appending past it, so
        # the journal never holds a record-inside-a-record splice.
        stream = open(path, "r+", encoding="utf-8")
        stream.truncate(state.good_bytes)
        stream.seek(0, os.SEEK_END)
    except OSError as error:
        raise _structural(f"cannot open {path}: {error}") from error
    return BatchJournal(path, stream, completed=completed,
                        pending_intents=pending, fsync=fsync)
